#include "la/dia_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "la/simd.hpp"

namespace mstep::la {

DiaMatrix DiaMatrix::from_csr(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("DiaMatrix: matrix must be square");
  }
  DiaMatrix m;
  m.n_ = a.rows();

  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  // slot[offset + n]: the offset's diagonal, -1 until its first nonzero.
  std::vector<index_t> slot(static_cast<std::size_t>(2 * m.n_ + 1), -1);
  for (index_t i = 0; i < m.n_; ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (val[k] == 0.0) continue;
      index_t& s = slot[static_cast<std::size_t>(col[k] - i + m.n_)];
      if (s < 0) {
        s = 0;
        m.offsets_.push_back(col[k] - i);
      }
    }
  }
  std::sort(m.offsets_.begin(), m.offsets_.end());
  for (std::size_t d = 0; d < m.offsets_.size(); ++d) {
    slot[static_cast<std::size_t>(m.offsets_[d] + m.n_)] =
        static_cast<index_t>(d);
  }
  m.diag_.assign(m.offsets_.size(), std::vector<double>(m.n_, 0.0));
  for (index_t i = 0; i < m.n_; ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (val[k] == 0.0) continue;
      m.diag_[slot[static_cast<std::size_t>(col[k] - i + m.n_)]][i] = val[k];
    }
  }
  return m;
}

bool DiaMatrix::profitable(const CsrMatrix& a, double max_fill) {
  if (a.rows() != a.cols() || a.nnz() == 0) return false;
  const double stored = static_cast<double>(a.num_nonzero_diagonals()) *
                        static_cast<double>(a.rows());
  return stored <= max_fill * static_cast<double>(a.nnz());
}

void DiaMatrix::multiply(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  y.assign(n_, 0.0);
  for (std::size_t d = 0; d < offsets_.size(); ++d) {
    const index_t off = offsets_[d];
    const std::vector<double>& v = diag_[d];
    const index_t lo = std::max<index_t>(0, -off);
    const index_t hi = std::min<index_t>(n_, n_ - off);
    // Unit-stride triad: y[i] += v[i] * x[i + off]  — the vectorizable form.
    simd::dia_triad(v.data(), x.data(), y.data(), lo, hi, off,
                    /*subtract=*/false);
  }
}

void DiaMatrix::multiply_sub(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  assert(static_cast<index_t>(y.size()) == n_);
  for (std::size_t d = 0; d < offsets_.size(); ++d) {
    const index_t off = offsets_[d];
    const std::vector<double>& v = diag_[d];
    const index_t lo = std::max<index_t>(0, -off);
    const index_t hi = std::min<index_t>(n_, n_ - off);
    simd::dia_triad(v.data(), x.data(), y.data(), lo, hi, off,
                    /*subtract=*/true);
  }
}

DiaSegments DiaSegments::build(const CsrMatrix& a, const index_t* seg_begin,
                               const index_t* seg_end, index_t row_begin,
                               index_t row_end) {
  DiaSegments m;
  m.row_begin_ = row_begin;
  m.rows_ = std::max<index_t>(0, row_end - row_begin);
  const auto& col = a.col_idx();
  const auto& val = a.values();

  // Offsets col - g of rows g < row_end are at least 1 - row_end, so
  // slot[offset + row_end] is in range: the offset's diagonal, -1 until
  // its first nonzero.
  std::vector<index_t> slot(static_cast<std::size_t>(a.cols() + row_end),
                            -1);
  const auto slot_of = [&](index_t t, index_t g) -> index_t& {
    return slot[static_cast<std::size_t>(col[t] - g + row_end)];
  };

  // Pass 1: the distinct offsets and each one's live local row range
  // (rows ascend, so the last row seen is the range's end).
  std::vector<index_t> lo, hi;
  for (index_t i = 0; i < m.rows_; ++i) {
    const index_t g = row_begin + i;
    for (index_t t = seg_begin[g]; t < seg_end[g]; ++t) {
      if (val[t] == 0.0) continue;
      index_t& s = slot_of(t, g);
      if (s < 0) {
        s = static_cast<index_t>(m.offsets_.size());
        m.offsets_.push_back(col[t] - g);
        lo.push_back(i);
        hi.push_back(i + 1);
      } else {
        hi[s] = i + 1;
      }
    }
  }

  // Ascending offsets fix the summation order, hence the bits.
  std::vector<index_t> order(m.offsets_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](index_t p, index_t q) {
    return m.offsets_[p] < m.offsets_[q];
  });
  const std::vector<index_t> first_seen = m.offsets_;
  m.ptr_.assign(order.size() + 1, 0);
  for (std::size_t d = 0; d < order.size(); ++d) {
    const index_t id = order[d];
    m.offsets_[d] = first_seen[id];
    m.lo_.push_back(lo[id]);
    m.hi_.push_back(hi[id]);
    m.ptr_[d + 1] = m.ptr_[d] + static_cast<std::size_t>(hi[id] - lo[id]);
    slot[static_cast<std::size_t>(first_seen[id] + row_end)] =
        static_cast<index_t>(d);
  }

  // Pass 2: scatter the values; holes stay 0.
  m.val_.assign(m.ptr_.back(), 0.0);
  for (index_t i = 0; i < m.rows_; ++i) {
    const index_t g = row_begin + i;
    for (index_t t = seg_begin[g]; t < seg_end[g]; ++t) {
      if (val[t] == 0.0) continue;
      const index_t d = slot_of(t, g);
      m.val_[m.ptr_[d] + static_cast<std::size_t>(i - m.lo_[d])] = val[t];
    }
  }

  // Runs: cut the rows wherever a live range opens or closes.  Between
  // two cuts every diagonal is live on all rows or on none, and adjacent
  // runs differ in the diagonal whose range the cut opens or closes.
  std::vector<index_t> cuts{0, m.rows_};
  cuts.insert(cuts.end(), m.lo_.begin(), m.lo_.end());
  cuts.insert(cuts.end(), m.hi_.begin(), m.hi_.end());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    for (std::size_t d = 0; d < m.offsets_.size(); ++d) {
      if (m.lo_[d] <= cuts[k] && cuts[k + 1] <= m.hi_[d]) {
        m.taps_.push_back(
            {static_cast<std::ptrdiff_t>(m.ptr_[d]) - m.lo_[d],
             m.offsets_[d]});
      }
    }
    m.run_row_.push_back(cuts[k + 1]);
    m.run_tap_.push_back(static_cast<index_t>(m.taps_.size()));
  }
  return m;
}

simd::DiaRunView DiaSegments::view() const {
  simd::DiaRunView v;
  v.val = val_.data();
  v.taps = taps_.data();
  v.run_row = run_row_.data();
  v.run_tap = run_tap_.data();
  v.runs = num_runs();
  v.row_begin = row_begin_;
  return v;
}

}  // namespace mstep::la
