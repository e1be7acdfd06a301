// Storage of a sparse matrix by diagonals and SpMV by diagonals —
// the Madsen, Rodrigue & Karush (1976) scheme the paper uses on the
// CYBER 203/205 (Section 3.1, structure (3.2)).
//
// After the six-colour ordering the stiffness matrix has a bounded number
// of nonzero diagonals; multiplying diagonal-by-diagonal turns SpMV into a
// short sequence of long vector triads — exactly what a memory-to-memory
// pipeline machine wants.  On modern CPUs the same layout is a unit-stride,
// branch-free kernel; bench_kernels compares it against CSR.
#pragma once

#include <vector>

#include "la/csr_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"

namespace mstep::la {

/// Square sparse matrix stored by (generalized) diagonals.
///
/// Diagonal with offset k holds entries A(i, i+k).  Each diagonal is stored
/// at full length n with zeros outside its valid range, so the SpMV inner
/// loops have no per-diagonal index arithmetic beyond a start/stop clamp.
class DiaMatrix {
 public:
  DiaMatrix() = default;

  /// Convert from CSR, keeping every diagonal that holds at least one
  /// nonzero.  Throws if the matrix is not square.
  static DiaMatrix from_csr(const CsrMatrix& a);

  /// Bandedness probe: true when storing `a` by diagonals costs at most
  /// `max_fill` times its nonzero count (each diagonal is stored at full
  /// length n).  Multicolour-permuted stencils pass easily; a matrix with
  /// scattered structure fails and should stay in CSR.
  [[nodiscard]] static bool profitable(const CsrMatrix& a,
                                       double max_fill = 4.0);

  [[nodiscard]] index_t rows() const { return n_; }
  [[nodiscard]] index_t num_diagonals() const {
    return static_cast<index_t>(offsets_.size());
  }
  [[nodiscard]] const std::vector<index_t>& offsets() const {
    return offsets_;
  }
  /// diagonals()[d][i] = A(i, i + offsets()[d]); full length n per diagonal.
  [[nodiscard]] const std::vector<std::vector<double>>& diagonals() const {
    return diag_;
  }

  /// y = A x
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x
  void multiply_sub(const Vec& x, Vec& y) const;

  /// Total stored doubles (n per diagonal) — the storage cost of the
  /// scheme, reported by the kernel bench.
  [[nodiscard]] std::size_t stored_values() const {
    return offsets_.size() * static_cast<std::size_t>(n_);
  }

 private:
  index_t n_ = 0;
  std::vector<index_t> offsets_;          // sorted diagonal offsets
  std::vector<std::vector<double>> diag_;  // diag_[d][i] = A(i, i+offset_d)
};

/// Diagonal storage of per-row SEGMENTS of a CSR matrix: the strictly-
/// lower / strictly-upper couplings of one colour class, the layout the
/// paper's CYBER sweep runs on (Section 3.1).  Within a class, the
/// couplings to the other classes lie on a few long diagonals; each
/// distinct offset k = column - row is stored once, as the values of its
/// live row range [lo, hi) (class-local rows, first to last row holding
/// a nonzero on it, holes stored as 0).  Explicit zeros are dropped and
/// there are no column indices.  A class block's offsets are a subset of
/// the whole matrix's nonzero diagonals, so the storage of every class
/// together never exceeds the DiaMatrix of the same matrix.
///
/// The build also cuts the rows into RUNS — maximal intervals with one set
/// of live diagonals — so simd::dia_sweep_rows sums each row over exactly
/// its live diagonals, in ascending offset order, with no per-diagonal
/// range clamp: the fused sweep pass forms each row's sum in a register
/// and applies the row's update at once.
class DiaSegments {
 public:
  DiaSegments() = default;

  /// Rows [row_begin, row_end) of `a`, row i contributing its CSR entries
  /// [seg_begin[i], seg_end[i]); both arrays are indexed by global row id
  /// (pass row_ptr().data() / the RowSplits arrays directly).
  [[nodiscard]] static DiaSegments build(const CsrMatrix& a,
                                         const index_t* seg_begin,
                                         const index_t* seg_end,
                                         index_t row_begin, index_t row_end);

  [[nodiscard]] index_t row_begin() const { return row_begin_; }
  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t num_diagonals() const {
    return static_cast<index_t>(offsets_.size());
  }
  /// Diagonal d couples local row i to global column row_begin() + i +
  /// offset(d); its values cover local rows [lo(d), hi(d)), value(d, i) at
  /// values(d)[i - lo(d)].  Offsets ascend.
  [[nodiscard]] index_t offset(index_t d) const { return offsets_[d]; }
  [[nodiscard]] index_t lo(index_t d) const { return lo_[d]; }
  [[nodiscard]] index_t hi(index_t d) const { return hi_[d]; }
  [[nodiscard]] const double* values(index_t d) const {
    return val_.data() + ptr_[d];
  }
  /// Stored doubles, holes included.
  [[nodiscard]] std::size_t stored_values() const { return val_.size(); }

  /// The rows cut into RUNS: maximal local row intervals over which the
  /// set of live diagonals does not change, each with its live diagonals
  /// in ascending offset order.  Every row lies in exactly one run, a row
  /// with no live diagonal included.
  [[nodiscard]] index_t num_runs() const {
    return static_cast<index_t>(run_row_.size()) - 1;
  }
  [[nodiscard]] index_t run_begin(index_t k) const { return run_row_[k]; }
  [[nodiscard]] index_t run_end(index_t k) const { return run_row_[k + 1]; }
  [[nodiscard]] index_t run_diagonals(index_t k) const {
    return run_tap_[k + 1] - run_tap_[k];
  }

  /// Non-owning kernel view (simd::dia_sweep_rows); valid while this
  /// object lives.
  [[nodiscard]] simd::DiaRunView view() const;

 private:
  index_t row_begin_ = 0;
  index_t rows_ = 0;
  std::vector<index_t> offsets_;
  std::vector<index_t> lo_;
  std::vector<index_t> hi_;
  std::vector<std::size_t> ptr_;  // value offset per diagonal, +1 sentinel
  std::vector<double> val_;
  std::vector<index_t> run_row_{0};  // run boundaries, +1 sentinel
  std::vector<index_t> run_tap_{0};  // tap offset per run, +1 sentinel
  std::vector<simd::DiaTap> taps_;
};

}  // namespace mstep::la
