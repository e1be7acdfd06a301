#include "la/dia_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
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

DiaMatrix DiaMatrix::from_csr(const CsrMatrix& a,
                             const std::vector<index_t>& block_start) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("DiaMatrix: matrix must be square");
  }
  DiaMatrix m;
  m.n_ = a.rows();
  m.block_start_ =
      block_start.empty() ? std::vector<index_t>{0, m.n_} : block_start;
  const std::vector<index_t>& bs = m.block_start_;
  if (bs.size() < 2 || bs.front() != 0 || bs.back() != m.n_ ||
      !std::is_sorted(bs.begin(), bs.end())) {
    throw std::invalid_argument("DiaMatrix: blocks must run from 0 to n");
  }
  m.blocks_.resize(bs.size() - 1);

  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  // slot[offset + n]: the offset's tap in the block being scanned.
  std::vector<index_t> slot(static_cast<std::size_t>(2 * m.n_ + 1), -1);
  const auto slot_of = [&](index_t i, index_t k) -> index_t& {
    return slot[static_cast<std::size_t>(col[k] - i + m.n_)];
  };

  // Pass 1, block by block: the live offsets and their live ranges (rows
  // ascend, so the last row seen ends a range), numbered from `first` so
  // that a slot an earlier block set reads as stale.  The taps are then
  // laid out contiguously in ascending offset order, which fixes the
  // summation order, hence the bits.
  std::size_t stored = 0;
  index_t first = 0;
  std::vector<index_t> off;
  std::vector<index_t> lo;
  std::vector<index_t> hi;
  std::vector<std::size_t> order;
  for (std::size_t b = 0; b < m.blocks_.size(); ++b) {
    const index_t rb = bs[b];
    off.clear();
    lo.clear();
    hi.clear();
    for (index_t i = rb; i < bs[b + 1]; ++i) {
      for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (val[k] == 0.0) continue;
        index_t& s = slot_of(i, k);
        if (s < first) {
          s = first + static_cast<index_t>(off.size());
          off.push_back(col[k] - i);
          lo.push_back(i - rb);
          hi.push_back(0);
        }
        hi[static_cast<std::size_t>(s - first)] = i - rb + 1;
      }
    }
    first += static_cast<index_t>(off.size());
    order.resize(off.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t p, std::size_t q) { return off[p] < off[q]; });
    DiaBlock& block = m.blocks_[b];
    for (const std::size_t t : order) {
      block.taps.push_back(
          {static_cast<std::ptrdiff_t>(stored) - lo[t], off[t]});
      block.lo.push_back(lo[t]);
      block.hi.push_back(hi[t]);
      stored += static_cast<std::size_t>(hi[t] - lo[t]);
      m.offsets_.push_back(off[t]);
    }
    block.runs =
        detail::DiaRuns::cut(bs[b + 1] - rb, block.taps, block.lo, block.hi);
  }
  std::sort(m.offsets_.begin(), m.offsets_.end());
  m.offsets_.erase(std::unique(m.offsets_.begin(), m.offsets_.end()),
                   m.offsets_.end());

  // Pass 2: each nonzero into its tap's range; holes stay zero.
  m.val_.assign(stored, 0.0);
  for (std::size_t b = 0; b < m.blocks_.size(); ++b) {
    const DiaBlock& block = m.blocks_[b];
    for (std::size_t t = 0; t < block.taps.size(); ++t) {
      slot[static_cast<std::size_t>(block.taps[t].offset + m.n_)] =
          static_cast<index_t>(t);
    }
    const index_t rb = bs[b];
    for (index_t i = rb; i < bs[b + 1]; ++i) {
      for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (val[k] == 0.0) continue;
        const simd::DiaTap& tap =
            block.taps[static_cast<std::size_t>(slot_of(i, k))];
        m.val_[static_cast<std::size_t>(tap.base + (i - rb))] = val[k];
      }
    }
  }
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
  const simd::RowUpdate u = simd::RowUpdate::spmv(y, subtract);
  // The block holding part_begin, then every block the range meets.
  auto b = static_cast<std::size_t>(
      std::upper_bound(block_start_.begin(), block_start_.end(), part_begin) -
      block_start_.begin());
  for (b = b > 0 ? b - 1 : 0;
       b < blocks_.size() && block_start_[b] < part_end; ++b) {
    const index_t rb = block_start_[b];
    simd::dia_sweep_rows(blocks_[b].runs.view(val_.data(), rb), x, u,
                         std::max(part_begin, rb) - rb,
                         std::min(part_end, block_start_[b + 1]) - rb);
  }
}

DiaSegments DiaSegments::build(const DiaMatrix& dia, index_t block,
                               index_t first_offset, index_t last_offset) {
  const DiaBlock& b = dia.block(block);
  DiaSegments m;
  m.row_begin_ = dia.block_start()[block];
  m.rows_ = dia.block_start()[block + 1] - m.row_begin_;
  m.val_ = dia.values().data();
  for (std::size_t t = 0; t < b.taps.size(); ++t) {
    const index_t off = b.taps[t].offset;
    if (off < first_offset || off > last_offset) continue;
    m.diag_.push_back(b.taps[t]);
    m.lo_.push_back(b.lo[t]);
    m.hi_.push_back(b.hi[t]);
    m.reads_ += static_cast<std::size_t>(b.hi[t] - b.lo[t]);
  }
  m.runs_ = detail::DiaRuns::cut(m.rows_, m.diag_, m.lo_, m.hi_);
  return m;
}

simd::DiaRunView DiaSegments::view() const {
  return runs_.view(val_, row_begin_);
}

}  // namespace mstep::la
