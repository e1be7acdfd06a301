#include "par/execution.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "la/simd.hpp"

// Every threaded chunk body below delegates to the same la/simd.hpp kernel
// the serial twin uses, so serial == threaded == SIMD-on == SIMD-off holds
// by construction: partitioning only decides WHO computes an element or a
// block, never the operation sequence that computes it.

namespace mstep::par {

namespace {

/// Zeroed block partials in a buffer owned by the calling thread, so one
/// Execution serves concurrent callers without allocating when warm.  Pool
/// workers must write through the returned reference, not a thread_local.
std::vector<double>& reduction_partials(index_t nblocks) {
  thread_local std::vector<double> partials;
  partials.assign(static_cast<std::size_t>(nblocks), 0.0);
  return partials;
}

}  // namespace

Execution::Execution(int threads) {
  if (threads < 0) {
    throw std::invalid_argument("Execution: thread count must be >= 0");
  }
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

double Execution::dot(const Vec& x, const Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  if (!pool_ || n < kSerialCutoff) return la::dot(x, y);

  const auto block = static_cast<index_t>(la::kReductionBlock);
  const index_t nblocks = (n + block - 1) / block;
  std::vector<double>& partials = reduction_partials(nblocks);
  pool_->for_each(0, nblocks, [&](index_t k) {
    const auto b = static_cast<std::size_t>(k) * la::kReductionBlock;
    partials[k] = la::detail::dot_range(
        x, y, b, std::min(x.size(), b + la::kReductionBlock));
  });
  // Combine in block order — exactly la::dot's serial combination.
  double s = 0.0;
  for (index_t k = 0; k < nblocks; ++k) s += partials[k];
  return s;
}

double Execution::nrm2(const Vec& x) const { return std::sqrt(dot(x, x)); }

void Execution::axpy(double a, const Vec& x, Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  if (!pool_ || n < kSerialCutoff) {
    la::axpy(a, x, y);
    return;
  }
  pool_->for_range(0, n, [&](index_t b, index_t e) {
    la::simd::axpy(a, x.data() + b, y.data() + b,
                   static_cast<std::size_t>(e - b));
  });
}

void Execution::xpay(const Vec& x, double b, Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  if (!pool_ || n < kSerialCutoff) {
    la::xpay(x, b, y);
    return;
  }
  pool_->for_range(0, n, [&](index_t lo, index_t hi) {
    la::simd::xpay(x.data() + lo, b, y.data() + lo,
                   static_cast<std::size_t>(hi - lo));
  });
}

void Execution::scale_copy(double a, const Vec& x, Vec& y) const {
  const auto n = static_cast<index_t>(x.size());
  y.resize(x.size());
  if (!pool_ || n < kSerialCutoff) {
    la::simd::scale_copy(a, x.data(), y.data(), x.size());
    return;
  }
  pool_->for_range(0, n, [&](index_t b, index_t e) {
    la::simd::scale_copy(a, x.data() + b, y.data() + b,
                         static_cast<std::size_t>(e - b));
  });
}

void Execution::hadamard(const Vec& x, const Vec& y, Vec& w) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  if (!pool_ || n < kSerialCutoff) {
    la::hadamard(x, y, w);
    return;
  }
  w.resize(x.size());
  pool_->for_range(0, n, [&](index_t b, index_t e) {
    la::simd::hadamard(x.data() + b, y.data() + b, w.data() + b,
                       static_cast<std::size_t>(e - b));
  });
}

double Execution::step_update_max(double a, const Vec& p, Vec& u) const {
  assert(p.size() == u.size());
  const auto n = static_cast<index_t>(p.size());
  if (!pool_ || n < kSerialCutoff) {
    return la::simd::step_update_max(a, p.data(), u.data(), p.size());
  }
  const auto block = static_cast<index_t>(la::kReductionBlock);
  const index_t nblocks = (n + block - 1) / block;
  std::vector<double>& partials = reduction_partials(nblocks);
  pool_->for_each(0, nblocks, [&](index_t k) {
    const index_t b = k * block;
    const index_t e = std::min(n, b + block);
    partials[k] = la::simd::step_update_max(a, p.data() + b, u.data() + b,
                                            static_cast<std::size_t>(e - b));
  });
  // max over blocks == max over the range: order-insensitive.
  double mx = 0.0;
  for (index_t k = 0; k < nblocks; ++k) mx = std::max(mx, partials[k]);
  return mx;
}

void Execution::spmv(const la::CsrMatrix& a, const Vec& x, Vec& y) const {
  if (!pool_ || a.rows() < kSerialCutoff) {
    a.multiply(x, y);
    return;
  }
  assert(static_cast<index_t>(x.size()) == a.cols());
  y.resize(a.rows());
  pool_->for_range(0, a.rows(), [&](index_t b, index_t e) {
    la::simd::csr_spmv_rows(a.row_ptr().data(), a.col_idx().data(),
                            a.values().data(), x.data(), y.data(), b, e,
                            /*subtract=*/false);
  });
}

void Execution::spmv_sub(const la::CsrMatrix& a, const Vec& x, Vec& y) const {
  if (!pool_ || a.rows() < kSerialCutoff) {
    a.multiply_sub(x, y);
    return;
  }
  assert(static_cast<index_t>(x.size()) == a.cols());
  assert(static_cast<index_t>(y.size()) == a.rows());
  pool_->for_range(0, a.rows(), [&](index_t b, index_t e) {
    la::simd::csr_spmv_rows(a.row_ptr().data(), a.col_idx().data(),
                            a.values().data(), x.data(), y.data(), b, e,
                            /*subtract=*/true);
  });
}

void Execution::spmv(const la::DiaMatrix& a, const Vec& x, Vec& y) const {
  if (!pool_ || a.rows() < kSerialCutoff) {
    a.multiply(x, y);
    return;
  }
  const index_t n = a.rows();
  assert(static_cast<index_t>(x.size()) == n);
  y.assign(n, 0.0);
  const auto& offsets = a.offsets();
  const auto& diags = a.diagonals();
  // Partition the element range; within a chunk, accumulate the diagonals
  // in offset order — per element this is the serial accumulation order.
  pool_->for_range(0, n, [&](index_t b, index_t e) {
    for (std::size_t d = 0; d < offsets.size(); ++d) {
      const index_t off = offsets[d];
      const std::vector<double>& v = diags[d];
      const index_t lo = std::max(b, std::max<index_t>(0, -off));
      const index_t hi = std::min(e, std::min<index_t>(n, n - off));
      la::simd::dia_triad(v.data(), x.data(), y.data(), lo, hi, off,
                          /*subtract=*/false);
    }
  });
}

void Execution::spmv_sub(const la::DiaMatrix& a, const Vec& x, Vec& y) const {
  if (!pool_ || a.rows() < kSerialCutoff) {
    a.multiply_sub(x, y);
    return;
  }
  const index_t n = a.rows();
  assert(static_cast<index_t>(x.size()) == n);
  assert(static_cast<index_t>(y.size()) == n);
  const auto& offsets = a.offsets();
  const auto& diags = a.diagonals();
  pool_->for_range(0, n, [&](index_t b, index_t e) {
    for (std::size_t d = 0; d < offsets.size(); ++d) {
      const index_t off = offsets[d];
      const std::vector<double>& v = diags[d];
      const index_t lo = std::max(b, std::max<index_t>(0, -off));
      const index_t hi = std::min(e, std::min<index_t>(n, n - off));
      la::simd::dia_triad(v.data(), x.data(), y.data(), lo, hi, off,
                          /*subtract=*/true);
    }
  });
}

void Execution::spmv(const la::SellMatrix& a, const Vec& x, Vec& y) const {
  if (!pool_ || a.rows() < kSerialCutoff) {
    a.multiply(x, y);
    return;
  }
  assert(static_cast<index_t>(x.size()) == a.cols());
  y.resize(a.rows());
  // Partition by slices: slices partition the rows (each row is written
  // through exactly one slot's scatter), so chunks never race.
  pool_->for_range(0, a.num_slices(), [&](index_t b, index_t e) {
    la::simd::sell_spmv_slices(a.view(), x.data(), y.data(), b, e,
                               /*subtract=*/false);
  });
}

void Execution::spmv_sub(const la::SellMatrix& a, const Vec& x, Vec& y) const {
  if (!pool_ || a.rows() < kSerialCutoff) {
    a.multiply_sub(x, y);
    return;
  }
  assert(static_cast<index_t>(x.size()) == a.cols());
  assert(static_cast<index_t>(y.size()) == a.rows());
  pool_->for_range(0, a.num_slices(), [&](index_t b, index_t e) {
    la::simd::sell_spmv_slices(a.view(), x.data(), y.data(), b, e,
                               /*subtract=*/true);
  });
}

const Execution& serial_execution() {
  static const Execution serial;
  return serial;
}

}  // namespace mstep::par
