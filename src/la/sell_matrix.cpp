#include "la/sell_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace mstep::la {

namespace {

constexpr index_t kC = SellMatrix::kSliceHeight;
constexpr index_t kSigma = SellMatrix::kDefaultSigma;
static_assert(kSigma % kC == 0, "a sorting window holds whole slices");

/// The layout without its entries: rows [row_begin, row_end) in slot
/// order — within each sigma window by descending length(row), ties by
/// ascending row id so the layout is deterministic, windows in place —
/// and each slice's offset into the padded storage (+1 sentinel), a slice
/// being as wide as its longest row.
struct SliceShape {
  std::vector<index_t> slots;  // slot -> global row
  std::vector<std::size_t> slice_ptr;
};

template <class Length>
SliceShape slice_shape(index_t row_begin, index_t row_end,
                       const Length& length) {
  const index_t n = row_end - row_begin;
  SliceShape shape;
  shape.slots.resize(static_cast<std::size_t>(n));
  std::iota(shape.slots.begin(), shape.slots.end(), row_begin);
  for (index_t w = 0; w < n; w += kSigma) {
    std::sort(shape.slots.begin() + w,
              shape.slots.begin() + std::min(n, w + kSigma),
              [&](index_t i, index_t j) {
                const index_t li = length(i);
                const index_t lj = length(j);
                if (li != lj) return li > lj;
                return i < j;
              });
  }
  const index_t num_slices = (n + kC - 1) / kC;
  shape.slice_ptr.assign(static_cast<std::size_t>(num_slices) + 1, 0);
  for (index_t s = 0; s < num_slices; ++s) {
    index_t width = 0;
    for (index_t slot = s * kC; slot < std::min(n, (s + 1) * kC); ++slot) {
      width = std::max(width, length(shape.slots[slot]));
    }
    shape.slice_ptr[s + 1] =
        shape.slice_ptr[s] + static_cast<std::size_t>(width) * kC;
  }
  return shape;
}

}  // namespace

SellSegments SellSegments::build(const CsrMatrix& a, const index_t* seg_begin,
                                 const index_t* seg_end, index_t row_begin,
                                 index_t row_end) {
  SellSegments m;
  const index_t n = row_end - row_begin;
  if (n <= 0) return m;

  const auto seg_len = [&](index_t g) { return seg_end[g] - seg_begin[g]; };
  SliceShape shape = slice_shape(row_begin, row_end, seg_len);
  const std::size_t slots = (shape.slice_ptr.size() - 1) * kC;
  m.perm_ = std::move(shape.slots);
  m.perm_.resize(slots, -1);
  m.len_.assign(slots, 0);
  m.slice_ptr_ = std::move(shape.slice_ptr);

  // Padding entries stay (col = 0, val = 0): the gather reads x[0] and the
  // kernel masks the product out of the accumulators.
  m.val_.assign(m.slice_ptr_.back(), 0.0);
  m.col_.assign(m.slice_ptr_.back(), 0);
  const auto& col = a.col_idx();
  const auto& val = a.values();
  for (index_t slot = 0; slot < n; ++slot) {
    const index_t g = m.perm_[slot];
    m.len_[slot] = seg_len(g);
    const std::size_t lane = m.slice_ptr_[slot / kC] + slot % kC;
    for (index_t j = 0; j < m.len_[slot]; ++j) {
      const std::size_t at = lane + static_cast<std::size_t>(j) * kC;
      m.val_[at] = val[seg_begin[g] + j];
      m.col_[at] = col[seg_begin[g] + j];
    }
  }
  return m;
}

simd::SellView SellSegments::view() const {
  simd::SellView v;
  v.val = val_.data();
  v.col = col_.data();
  v.len = len_.data();
  v.perm = perm_.data();
  v.slice_ptr = slice_ptr_.data();
  v.num_slices = num_slices();
  return v;
}

SellMatrix SellMatrix::from_csr(const CsrMatrix& a) {
  SellMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.nnz_ = a.nnz();
  m.ndiags_ = a.num_nonzero_diagonals();
  const index_t* rp = a.row_ptr().data();
  m.slices_ = SellSegments::build(a, rp, rp + 1, 0, a.rows());
  return m;
}

double SellMatrix::fill_estimate(const CsrMatrix& a) {
  if (a.nnz() == 0) return 0.0;
  const auto& rp = a.row_ptr();
  const SliceShape shape = slice_shape(
      0, a.rows(), [&](index_t g) { return rp[g + 1] - rp[g]; });
  return static_cast<double>(shape.slice_ptr.back()) /
         static_cast<double>(a.nnz());
}

bool SellMatrix::profitable(const CsrMatrix& a) {
  if (a.nnz() == 0) return false;
  return fill_estimate(a) <= kDefaultMaxFill;
}

void SellMatrix::multiply(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  y.resize(rows_);  // every real row is written exactly once via perm
  multiply_parts(x.data(), y.data(), 0, num_parts(), /*subtract=*/false);
}

void SellMatrix::multiply_sub(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  assert(static_cast<index_t>(y.size()) == rows_);
  multiply_parts(x.data(), y.data(), 0, num_parts(), /*subtract=*/true);
}

void SellMatrix::multiply_parts(const double* x, double* y,
                                index_t part_begin, index_t part_end,
                                bool subtract) const {
  simd::sell_sweep_slices(slices_.view(), x,
                          simd::RowUpdate::spmv(y, subtract), part_begin,
                          part_end);
}

}  // namespace mstep::la
