// Storage of a sparse matrix by diagonals and SpMV by diagonals —
// the Madsen, Rodrigue & Karush (1976) scheme the paper uses on the
// CYBER 203/205 (Section 3.1, structure (3.2)), applied to each class
// block of the multicoloured matrix.
//
// After the six-colour ordering the stiffness matrix has a bounded number
// of nonzero diagonals; multiplying diagonal-by-diagonal turns SpMV into a
// short sequence of long vector triads — exactly what a memory-to-memory
// pipeline machine wants.  On modern CPUs the same layout is a unit-stride,
// gather-free kernel; bench_kernels compares it against CSR.
// The rows are stored in blocks, the colour classes, each holding only the
// live part of the diagonals it uses.  The multicolour sweep's class
// segments (DiaSegments) are views of those blocks, and one kernel
// (simd::dia_sweep_rows) runs both: the SpMV over every block's runs, the
// sweep over a class's lower or upper runs.  One copy of the values and
// one kernel serve SpMV and sweep.
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

/// One row block of a DiaMatrix: the diagonals live on its rows, as taps
/// in ascending offset order.  Tap t covers block-local rows [lo[t],
/// hi[t]), the first to the last row of the block holding a nonzero on
/// it, and reads the value of local row i at values()[taps[t].base + i].
struct DiaBlock {
  std::vector<simd::DiaTap> taps;
  std::vector<index_t> lo;
  std::vector<index_t> hi;
  detail::DiaRuns runs;  // the block's rows cut over the live ranges
};

/// Square sparse matrix stored by (generalized) diagonals, block by block.
///
/// The diagonal with offset k holds the entries A(i, i+k).  The rows are
/// split into BLOCKS, the colour classes of a multicoloured matrix: the
/// paper's structure (3.2) stores each class block K_ij by its diagonals
/// (Section 3.1).  Within a block, each offset that holds a nonzero there
/// stores only its live range, from the first to the last row with a
/// nonzero on it, contiguously; holes in the range are stored zeros.  No
/// diagonal is stored at full length.  Each block's rows are cut into runs
/// over the live ranges, so the SpMV sums each row over exactly the
/// diagonals live on it, in ascending offset order, with no per-diagonal
/// index arithmetic.
///
/// Bits: a term the full-length layout summed and this one drops is a
/// stored zero times x.  For finite x it is +-0, and s + (+-0) and
/// s - (+-0) equal s for any s other than -0; a product or sweep sum
/// starts from +0 and never becomes -0, so every product and sweep keeps
/// the bits of the full-length per-diagonal triads.  The one exception is
/// a kResidual row with y = -0 whose live terms are all +0 and whose
/// dropped terms include a -0 (a stored zero times a negative x): it ends
/// at -0 where the full-length sum ended at +0 (-0 - (-0) = +0).
class DiaMatrix {
 public:
  DiaMatrix() = default;

  /// Convert from CSR, blocks [block_start[b], block_start[b+1]); no
  /// blocks means one block [0, n).  Explicit zeros are not stored.
  /// Throws if the matrix is not square or the blocks do not run from 0
  /// to n in order.
  static DiaMatrix from_csr(const CsrMatrix& a,
                            const std::vector<index_t>& block_start = {});

  /// Bandedness threshold for `profitable`: diagonal storage may cost at
  /// most 4 times the nonzero count.
  static constexpr double kDefaultMaxFill = 4.0;

  /// Bandedness probe: true when kDefaultMaxFill times the nonzero count
  /// is at least n per distinct nonzero diagonal.  That is the cost of
  /// full-length diagonals, an upper bound on what the blocked store
  /// keeps.  Multicolour-permuted stencils pass easily; a matrix with
  /// scattered structure fails and should stay in CSR.
  [[nodiscard]] static bool profitable(const CsrMatrix& a);

  [[nodiscard]] index_t rows() const { return n_; }
  [[nodiscard]] index_t cols() const { return n_; }
  /// Distinct offsets holding a nonzero: the kernel-log pricing of an
  /// SpMV, as CsrMatrix counts it.
  [[nodiscard]] index_t num_nonzero_diagonals() const {
    return static_cast<index_t>(offsets_.size());
  }
  /// Those offsets, ascending.
  [[nodiscard]] const std::vector<index_t>& offsets() const {
    return offsets_;
  }

  /// Block boundaries: one more entry than there are blocks, from 0 to
  /// rows().
  [[nodiscard]] const std::vector<index_t>& block_start() const {
    return block_start_;
  }
  [[nodiscard]] const DiaBlock& block(index_t b) const { return blocks_[b]; }
  /// Every block's live ranges, block by block, in one array.
  [[nodiscard]] const std::vector<double>& values() const { return val_; }

  /// y = A x
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x
  void multiply_sub(const Vec& x, Vec& y) const;

  /// The units multiply_parts splits a product into: rows.
  [[nodiscard]] index_t num_parts() const { return n_; }

  /// Rows [part_begin, part_end) of y = A x, or of y -= A x when
  /// `subtract`: one simd::dia_sweep_rows pass per block the rows meet,
  /// each element adding its terms to +0 (or subtracting them from y) in
  /// ascending offset order, so any partition of the rows gives the bits
  /// of one whole-range call.
  void multiply_parts(const double* x, double* y, index_t part_begin,
                      index_t part_end, bool subtract) const;

  /// Total stored doubles, the sum of every block's live ranges: the
  /// storage cost of the scheme, reported by the kernel bench.
  [[nodiscard]] std::size_t stored_values() const { return val_.size(); }

 private:
  index_t n_ = 0;
  std::vector<index_t> offsets_;  // distinct nonzero offsets, ascending
  std::vector<index_t> block_start_{0};
  std::vector<DiaBlock> blocks_;
  std::vector<double> val_;
};

/// The strictly-lower or strictly-upper couplings of one colour class as
/// a view of its DiaMatrix block: the layout the paper's CYBER sweep runs
/// on (Section 3.1).  The class block's taps with negative offsets are its
/// couplings to earlier classes, those with positive offsets its couplings
/// to later ones (the class's diagonal block is diagonal).  Each keeps its
/// live range and reads its values in place from the DiaMatrix: no value
/// is copied, and no CSR row is read.
///
/// The build also cuts the rows into RUNS over the selected taps' live
/// ranges, so simd::dia_sweep_rows sums each row over exactly its live
/// diagonals, in ascending offset order, with no per-diagonal range clamp:
/// the fused sweep pass forms each row's sum in a register and applies the
/// row's update at once.
class DiaSegments {
 public:
  DiaSegments() = default;

  /// The taps of block `block` of `dia` whose offsets lie in
  /// [first_offset, last_offset].  `dia` must outlive the segments.
  [[nodiscard]] static DiaSegments build(const DiaMatrix& dia, index_t block,
                                         index_t first_offset,
                                         index_t last_offset);

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
