// SELL-C-sigma: the SIMD-friendly sliced sparse format (Kreutzer et al.),
// the third entry in the MatrixFormat registry after CSR and DIA.
//
// Rows are grouped into slices of C = 4 rows (one AVX2 double vector);
// within sorting windows of sigma rows, rows are ordered by descending
// length so slice-mates have similar lengths and padding stays small.
// Each slice stores its rows column-major — entry j of the row in lane r
// sits at val[slice_ptr[s] + j*C + r] — so the SpMV kernel walks j with
// all four lane-rows in one vector register, gathering x by column.
// Padding entries are (col = 0, val = 0) and masked out of the lane
// accumulators, never added.
//
// The kernel (simd::sell_spmv_slices) accumulates each lane-row's entries
// through the same fixed 8-lane schedule as the CSR row kernel, so SELL
// SpMV is BITWISE identical to CSR SpMV — the format changes memory
// layout and speed, never bits.  The occupancy probe `profitable` is what
// `--format=auto` consults after the DIA bandedness probe: SELL pays off
// when sigma-sorted padding is small, i.e. row lengths are locally
// uniform, which multicolour-permuted stencils and banded random systems
// both satisfy; a skewed matrix (one dense row per window) fails the
// probe and stays in CSR.
#pragma once

#include <cstddef>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"

namespace mstep::la {

class SellMatrix {
 public:
  /// C: rows per slice — one AVX2 vector of doubles.
  static constexpr index_t kSliceHeight =
      static_cast<index_t>(simd::kSellSlice);
  /// sigma: the row-sorting window, a multiple of C.  Sorting is local so
  /// the permutation stays cache-friendly; 64 keeps windows well inside L1
  /// while absorbing typical row-length jitter.
  static constexpr index_t kDefaultSigma = 64;
  /// Occupancy threshold for `profitable`: padded storage may exceed nnz
  /// by at most 25%.
  static constexpr double kDefaultMaxFill = 1.25;

  SellMatrix() = default;

  /// Convert from CSR.  `sigma` is clamped to at least kSliceHeight.
  [[nodiscard]] static SellMatrix from_csr(const CsrMatrix& a,
                                           index_t sigma = kDefaultSigma);

  /// Occupancy probe (no conversion): true when the sigma-sorted padded
  /// entry count is at most max_fill * nnz.  False for empty matrices.
  [[nodiscard]] static bool profitable(const CsrMatrix& a,
                                       double max_fill = kDefaultMaxFill,
                                       index_t sigma = kDefaultSigma);

  /// Padded-entries / nnz the probe compares against max_fill (inf-free:
  /// returns 0 for empty matrices).
  [[nodiscard]] static double fill_estimate(const CsrMatrix& a,
                                            index_t sigma = kDefaultSigma);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] index_t nnz() const { return nnz_; }
  [[nodiscard]] index_t num_slices() const {
    return static_cast<index_t>(slice_ptr_.size()) - 1;
  }
  /// Stored entries including padding — the storage cost of the layout.
  [[nodiscard]] std::size_t stored_values() const { return val_.size(); }
  [[nodiscard]] double fill_ratio() const {
    return nnz_ > 0 ? static_cast<double>(val_.size()) /
                          static_cast<double>(nnz_)
                    : 0.0;
  }
  /// Cached from the CSR source — the kernel-log pricing of an SpMV.
  [[nodiscard]] index_t num_nonzero_diagonals() const { return ndiags_; }

  /// slot -> global row (slot = slice * C + lane); -1 marks padding slots
  /// past the last row.
  [[nodiscard]] const std::vector<index_t>& permutation() const {
    return perm_;
  }

  /// y = A x  (bitwise identical to CsrMatrix::multiply)
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x
  void multiply_sub(const Vec& x, Vec& y) const;

  /// Non-owning kernel view; valid while this matrix lives.
  [[nodiscard]] simd::SellView view() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t nnz_ = 0;
  index_t ndiags_ = 0;
  std::vector<double> val_;             // slice-column-major, padded
  std::vector<index_t> col_;            // same shape as val_
  std::vector<index_t> len_;            // per slot: real entries of its row
  std::vector<index_t> perm_;           // per slot: global row or -1
  std::vector<std::size_t> slice_ptr_;  // value offset per slice, +1 sentinel
};

/// SELL-layout storage of per-row SEGMENTS of a CSR matrix: the strictly-
/// lower / strictly-upper row parts of one colour class, which the
/// multicolor sweeps sum through simd::sell_sweep_slices.  The slice layout
/// and kernel schedule are exactly SellMatrix's, so each negated sum is
/// bitwise -row_dot over that row's segment; `perm` carries GLOBAL row ids,
/// letting the kernel update the row's z and y directly.  This is
/// what turns the sweep's short per-row sums — too short for a single-row
/// vector kernel to win — into 4-rows-at-a-time vector work, legal only
/// because the multicolor ordering makes rows of a class independent.
class SellSegments {
 public:
  SellSegments() = default;

  /// Rows [row_begin, row_end) of `a`, row i contributing its CSR entries
  /// [seg_begin[i], seg_end[i]); both arrays are indexed by global row id
  /// (pass row_ptr().data() / the RowSplits arrays directly).  `sigma` is
  /// rounded up to a multiple of the slice height.
  [[nodiscard]] static SellSegments build(
      const CsrMatrix& a, const index_t* seg_begin, const index_t* seg_end,
      index_t row_begin, index_t row_end,
      index_t sigma = SellMatrix::kDefaultSigma);

  [[nodiscard]] index_t num_slices() const {
    return slice_ptr_.empty() ? 0
                              : static_cast<index_t>(slice_ptr_.size()) - 1;
  }
  /// Stored entries including padding — the sweep bench's traffic model.
  [[nodiscard]] std::size_t stored_values() const { return val_.size(); }
  /// Rows per sorting window, a multiple of the slice height: a window's
  /// slices hold exactly its rows, so whole windows split the rows into
  /// contiguous ranges.
  [[nodiscard]] index_t sigma() const { return sigma_; }

  /// Non-owning kernel view; valid while this object lives.
  [[nodiscard]] simd::SellView view() const;

 private:
  index_t sigma_ = SellMatrix::kDefaultSigma;
  std::vector<double> val_;
  std::vector<index_t> col_;
  std::vector<index_t> len_;
  std::vector<index_t> perm_;
  std::vector<std::size_t> slice_ptr_;
};

}  // namespace mstep::la
