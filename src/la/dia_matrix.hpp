// Storage of a sparse matrix by diagonals and SpMV by diagonals —
// the Madsen, Rodrigue & Karush (1976) scheme the paper uses on the
// CYBER 203/205 (Section 3.1, structure (3.2)).
//
// After the six-colour ordering the stiffness matrix has a bounded number
// of nonzero diagonals; multiplying diagonal-by-diagonal turns SpMV into a
// short sequence of long vector triads — exactly what a memory-to-memory
// pipeline machine wants.  On modern CPUs the same layout is a unit-stride,
// gather-free kernel; bench_kernels compares it against CSR.
// The multicolour sweep's class segments (DiaSegments) read the same
// diagonals in place, and one kernel (simd::dia_sweep_rows) runs both: the
// SpMV over the whole matrix's runs, the sweep over a class's runs.  One
// copy of the values and one kernel serve SpMV and sweep.
#pragma once

#include <cstddef>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"

namespace mstep::la {

namespace detail {

/// Rows [0, rows) cut into RUNS: maximal intervals over which the set of
/// covering diagonals does not change, each run with its covering
/// diagonals as taps in the given (ascending offset) order.  Every row
/// lies in exactly one run, a row no diagonal covers included.
struct DiaRuns {
  std::vector<index_t> row{0};  // run boundaries, +1 sentinel
  std::vector<index_t> tap{0};  // tap offset per run, +1 sentinel
  std::vector<simd::DiaTap> taps;

  /// Diagonal d, as tap diag[d], covers rows [lo[d], hi[d]): the rows are
  /// cut wherever a range opens or closes.
  [[nodiscard]] static DiaRuns cut(index_t rows,
                                   const std::vector<simd::DiaTap>& diag,
                                   const std::vector<index_t>& lo,
                                   const std::vector<index_t>& hi);

  [[nodiscard]] index_t size() const {
    return static_cast<index_t>(row.size()) - 1;
  }
  /// Kernel view over the values `val`, local row 0 at global `row_begin`.
  [[nodiscard]] simd::DiaRunView view(const double* val,
                                      index_t row_begin) const;
};

}  // namespace detail

/// Square sparse matrix stored by (generalized) diagonals.
///
/// Diagonal with offset k holds entries A(i, i+k).  Each diagonal is stored
/// at full length n with zeros outside its valid range.  The rows are cut
/// into runs over the diagonals' valid ranges, so the SpMV sums each row
/// over exactly the diagonals that reach it, in ascending offset order,
/// with no per-diagonal index arithmetic.
class DiaMatrix {
 public:
  DiaMatrix() = default;

  /// Convert from CSR, keeping every diagonal that holds at least one
  /// nonzero.  Throws if the matrix is not square.
  static DiaMatrix from_csr(const CsrMatrix& a);

  /// Bandedness threshold for `profitable`: diagonal storage may cost at
  /// most 4 times the nonzero count.
  static constexpr double kDefaultMaxFill = 4.0;

  /// Bandedness probe: true when storing `a` by diagonals costs at most
  /// kDefaultMaxFill times its nonzero count (each diagonal is stored at
  /// full length n).  Multicolour-permuted stencils pass easily; a matrix
  /// with scattered structure fails and should stay in CSR.
  [[nodiscard]] static bool profitable(const CsrMatrix& a);

  [[nodiscard]] index_t rows() const { return n_; }
  [[nodiscard]] index_t cols() const { return n_; }
  /// Every stored diagonal holds a nonzero: the kernel-log pricing of an
  /// SpMV, as CsrMatrix counts it.
  [[nodiscard]] index_t num_nonzero_diagonals() const {
    return static_cast<index_t>(offsets_.size());
  }
  [[nodiscard]] const std::vector<index_t>& offsets() const {
    return offsets_;
  }
  /// Every diagonal in one array: values()[d * rows() + i] =
  /// A(i, i + offsets()[d]).
  [[nodiscard]] const std::vector<double>& values() const { return val_; }

  /// y = A x
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x
  void multiply_sub(const Vec& x, Vec& y) const;

  /// The units multiply_parts splits a product into: rows.
  [[nodiscard]] index_t num_parts() const { return n_; }

  /// Rows [part_begin, part_end) of y = A x, or of y -= A x when
  /// `subtract`: one simd::dia_sweep_rows pass, each element adding its
  /// terms to +0 (or subtracting them from y) in ascending offset order, so
  /// any partition of the rows gives the bits of one whole-range call.
  void multiply_parts(const double* x, double* y, index_t part_begin,
                      index_t part_end, bool subtract) const;

  /// Total stored doubles (n per diagonal) — the storage cost of the
  /// scheme, reported by the kernel bench.
  [[nodiscard]] std::size_t stored_values() const { return val_.size(); }

 private:
  index_t n_ = 0;
  std::vector<index_t> offsets_;  // sorted diagonal offsets
  std::vector<double> val_;       // val_[d * n_ + i] = A(i, i + offsets_[d])
  detail::DiaRuns runs_;          // over each diagonal's valid range
};

/// Per-row SEGMENTS of a CSR matrix indexed as diagonals of its DiaMatrix:
/// the strictly-lower / strictly-upper couplings of one colour class, the
/// layout the paper's CYBER sweep runs on (Section 3.1).  Within a class,
/// the couplings to the other classes lie on a few long diagonals; each
/// distinct offset k = column - row keeps its live row range [lo, hi)
/// (class-local rows, first to last row holding a nonzero on it) and reads
/// its values in place from the DiaMatrix, holes as its stored zeros.  No
/// value is copied: the segments hold only offsets, ranges and runs.
///
/// The build also cuts the rows into RUNS — maximal intervals with one set
/// of live diagonals, the DiaMatrix's own cut over live instead of valid
/// ranges — so simd::dia_sweep_rows sums each row over exactly its live
/// diagonals, in ascending offset order, with no per-diagonal range clamp:
/// the fused sweep pass forms each row's sum in a register and applies the
/// row's update at once.
class DiaSegments {
 public:
  DiaSegments() = default;

  /// Rows [row_begin, row_end) of `a`, row i contributing its CSR entries
  /// [seg_begin[i], seg_end[i]); both arrays are indexed by global row id
  /// (pass row_ptr().data() / the RowSplits arrays directly).  `dia`, the
  /// DiaMatrix of `a`, must outlive the segments and hold only segment
  /// entries on their live rows (true of a class's couplings when its
  /// diagonal block is diagonal).  Throws if it lacks one of their offsets.
  [[nodiscard]] static DiaSegments build(const CsrMatrix& a,
                                         const DiaMatrix& dia,
                                         const index_t* seg_begin,
                                         const index_t* seg_end,
                                         index_t row_begin, index_t row_end);

  [[nodiscard]] index_t row_begin() const { return row_begin_; }
  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t num_diagonals() const {
    return static_cast<index_t>(diag_.size());
  }
  /// Diagonal d couples local row i to global column row_begin() + i +
  /// offset(d); its values cover local rows [lo(d), hi(d)), value(d, i) at
  /// values(d)[i - lo(d)], inside the DiaMatrix's storage.  Offsets ascend.
  [[nodiscard]] index_t offset(index_t d) const { return diag_[d].offset; }
  [[nodiscard]] index_t lo(index_t d) const { return lo_[d]; }
  [[nodiscard]] index_t hi(index_t d) const { return hi_[d]; }
  [[nodiscard]] const double* values(index_t d) const {
    return val_ + diag_[d].base + lo_[d];
  }
  /// Doubles one pass reads: every live range, holes included.
  [[nodiscard]] std::size_t stored_values() const { return reads_; }

  /// The rows cut into RUNS: maximal local row intervals over which the
  /// set of live diagonals does not change, each with its live diagonals
  /// in ascending offset order.  Every row lies in exactly one run, a row
  /// with no live diagonal included.
  [[nodiscard]] index_t num_runs() const { return runs_.size(); }
  [[nodiscard]] index_t run_begin(index_t k) const { return runs_.row[k]; }
  [[nodiscard]] index_t run_end(index_t k) const { return runs_.row[k + 1]; }
  [[nodiscard]] index_t run_diagonals(index_t k) const {
    return runs_.tap[k + 1] - runs_.tap[k];
  }

  /// Non-owning kernel view (simd::dia_sweep_rows); valid while this
  /// object and its DiaMatrix live.
  [[nodiscard]] simd::DiaRunView view() const;

 private:
  index_t row_begin_ = 0;
  index_t rows_ = 0;
  const double* val_ = nullptr;  // the DiaMatrix's values()
  std::size_t reads_ = 0;
  std::vector<simd::DiaTap> diag_;  // each live diagonal as a tap
  std::vector<index_t> lo_;
  std::vector<index_t> hi_;
  detail::DiaRuns runs_;  // over each diagonal's live range
};

}  // namespace mstep::la
