#include "la/dia_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "la/simd.hpp"

namespace mstep::la {

namespace detail {

DiaRuns DiaRuns::cut(index_t rows, const std::vector<simd::DiaTap>& diag,
                     const std::vector<index_t>& lo,
                     const std::vector<index_t>& hi) {
  // Between two cuts every diagonal covers all rows or none, and adjacent
  // runs differ in the diagonal whose range the cut opens or closes.
  std::vector<index_t> cuts{0, rows};
  cuts.insert(cuts.end(), lo.begin(), lo.end());
  cuts.insert(cuts.end(), hi.begin(), hi.end());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  DiaRuns runs;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    for (std::size_t d = 0; d < diag.size(); ++d) {
      if (lo[d] <= cuts[k] && cuts[k + 1] <= hi[d]) {
        runs.taps.push_back(diag[d]);
      }
    }
    runs.row.push_back(cuts[k + 1]);
    runs.tap.push_back(static_cast<index_t>(runs.taps.size()));
  }
  return runs;
}

simd::DiaRunView DiaRuns::view(const double* val, index_t row_begin) const {
  simd::DiaRunView v;
  v.val = val;
  v.taps = taps.data();
  v.run_row = row.data();
  v.run_tap = tap.data();
  v.runs = size();
  v.row_begin = row_begin;
  return v;
}

}  // namespace detail

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
  m.val_.assign(m.offsets_.size() * static_cast<std::size_t>(m.n_), 0.0);
  for (index_t i = 0; i < m.n_; ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (val[k] == 0.0) continue;
      const auto d = static_cast<std::size_t>(
          slot[static_cast<std::size_t>(col[k] - i + m.n_)]);
      m.val_[d * static_cast<std::size_t>(m.n_) + i] = val[k];
    }
  }
  // Each diagonal's valid range [max(0, -off), min(n, n - off)): the SpMV
  // reads its stored zeros there, as one triad per diagonal would.
  std::vector<simd::DiaTap> diag;
  std::vector<index_t> lo;
  std::vector<index_t> hi;
  for (std::size_t d = 0; d < m.offsets_.size(); ++d) {
    const index_t off = m.offsets_[d];
    diag.push_back({static_cast<std::ptrdiff_t>(d) * m.n_, off});
    lo.push_back(std::max<index_t>(0, -off));
    hi.push_back(std::min(m.n_, m.n_ - off));
  }
  m.runs_ = detail::DiaRuns::cut(m.n_, diag, lo, hi);
  return m;
}

bool DiaMatrix::profitable(const CsrMatrix& a) {
  if (a.rows() != a.cols() || a.nnz() == 0) return false;
  const double stored = static_cast<double>(a.num_nonzero_diagonals()) *
                        static_cast<double>(a.rows());
  return stored <= kDefaultMaxFill * static_cast<double>(a.nnz());
}

void DiaMatrix::multiply(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  y.resize(n_);
  multiply_parts(x.data(), y.data(), 0, n_, /*subtract=*/false);
}

void DiaMatrix::multiply_sub(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  assert(static_cast<index_t>(y.size()) == n_);
  multiply_parts(x.data(), y.data(), 0, n_, /*subtract=*/true);
}

void DiaMatrix::multiply_parts(const double* x, double* y,
                               index_t part_begin, index_t part_end,
                               bool subtract) const {
  simd::dia_sweep_rows(runs_.view(val_.data(), 0), x,
                       simd::RowUpdate::spmv(y, subtract), part_begin,
                       part_end);
}

DiaSegments DiaSegments::build(const CsrMatrix& a, const DiaMatrix& dia,
                               const index_t* seg_begin,
                               const index_t* seg_end, index_t row_begin,
                               index_t row_end) {
  if (dia.rows() != a.rows()) {
    throw std::invalid_argument("DiaSegments: DiaMatrix of another size");
  }
  DiaSegments m;
  m.row_begin_ = row_begin;
  m.rows_ = std::max<index_t>(0, row_end - row_begin);
  m.val_ = dia.values().data();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  const std::vector<index_t>& offsets = dia.offsets();

  // Each DiaMatrix diagonal's live local row range, empty until its first
  // nonzero (rows ascend, so the last row seen is the range's end).  A
  // row's next nonzero usually lies on the next diagonal: try that first.
  const std::size_t nd = offsets.size();
  std::vector<index_t> lo(nd, m.rows_);
  std::vector<index_t> hi(nd, 0);
  for (index_t i = 0; i < m.rows_; ++i) {
    const index_t g = row_begin + i;
    std::size_t d = nd;
    for (index_t t = seg_begin[g]; t < seg_end[g]; ++t, ++d) {
      if (val[t] == 0.0) continue;
      const index_t off = col[t] - g;
      if (d >= nd || offsets[d] != off) {
        d = static_cast<std::size_t>(
            std::lower_bound(offsets.begin(), offsets.end(), off) -
            offsets.begin());
        if (d == nd || offsets[d] != off) {
          throw std::invalid_argument(
              "DiaSegments: DiaMatrix lacks a diagonal of the segments");
        }
      }
      lo[d] = std::min(lo[d], i);
      hi[d] = i + 1;
    }
  }

  // The live diagonals in the DiaMatrix's ascending offset order, which
  // fixes the summation order, hence the bits.
  for (std::size_t d = 0; d < offsets.size(); ++d) {
    if (lo[d] >= hi[d]) continue;
    m.diag_.push_back(
        {static_cast<std::ptrdiff_t>(d) * dia.rows() + row_begin, offsets[d]});
    m.lo_.push_back(lo[d]);
    m.hi_.push_back(hi[d]);
    m.reads_ += static_cast<std::size_t>(hi[d] - lo[d]);
  }

  m.runs_ = detail::DiaRuns::cut(m.rows_, m.diag_, m.lo_, m.hi_);
  return m;
}

simd::DiaRunView DiaSegments::view() const {
  return runs_.view(val_, row_begin_);
}

}  // namespace mstep::la
