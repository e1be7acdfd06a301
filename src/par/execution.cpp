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

template <class Block, class Combine>
double Execution::blocked_reduce(index_t n, const Block& block,
                                 const Combine& combine) const {
  const auto size = static_cast<index_t>(la::kReductionBlock);
  const index_t nblocks = (n + size - 1) / size;
  const auto partial = [&](index_t k) {
    return block(k * size, std::min(n, (k + 1) * size));
  };
  double acc = 0.0;
  if (!pool_ || n < kSerialCutoff) {
    for (index_t k = 0; k < nblocks; ++k) acc = combine(acc, partial(k));
    return acc;
  }
  std::vector<double>& partials = reduction_partials(nblocks);
  pool_->for_each(0, nblocks, [&](index_t k) { partials[k] = partial(k); });
  for (index_t k = 0; k < nblocks; ++k) acc = combine(acc, partials[k]);
  return acc;
}

double Execution::dot(const Vec& x, const Vec& y) const {
  assert(x.size() == y.size());
  // Block partials summed in block order — exactly la::dot.
  return blocked_reduce(
      static_cast<index_t>(x.size()),
      [&](index_t b, index_t e) {
        return la::detail::dot_range(x, y, static_cast<std::size_t>(b),
                                     static_cast<std::size_t>(e));
      },
      [](double s, double partial) { return s + partial; });
}

double Execution::nrm2(const Vec& x) const { return std::sqrt(dot(x, x)); }

void Execution::axpy(double a, const Vec& x, Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  partitioned(n, n, [&](index_t b, index_t e) {
    la::simd::axpy(a, x.data() + b, y.data() + b,
                   static_cast<std::size_t>(e - b));
  });
}

void Execution::xpay(const Vec& x, double b, Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  partitioned(n, n, [&](index_t lo, index_t hi) {
    la::simd::xpay(x.data() + lo, b, y.data() + lo,
                   static_cast<std::size_t>(hi - lo));
  });
}

void Execution::scale_copy(double a, const Vec& x, Vec& y) const {
  const auto n = static_cast<index_t>(x.size());
  y.resize(x.size());
  partitioned(n, n, [&](index_t b, index_t e) {
    la::simd::scale_copy(a, x.data() + b, y.data() + b,
                         static_cast<std::size_t>(e - b));
  });
}

void Execution::hadamard(const Vec& x, const Vec& y, Vec& w) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  w.resize(x.size());
  partitioned(n, n, [&](index_t b, index_t e) {
    la::simd::hadamard(x.data() + b, y.data() + b, w.data() + b,
                       static_cast<std::size_t>(e - b));
  });
}

double Execution::step_update_max(double a, const Vec& p, Vec& u) const {
  assert(p.size() == u.size());
  // max over blocks == max over the range: order-insensitive.
  return blocked_reduce(
      static_cast<index_t>(p.size()),
      [&](index_t b, index_t e) {
        return la::simd::step_update_max(a, p.data() + b, u.data() + b,
                                         static_cast<std::size_t>(e - b));
      },
      [](double mx, double partial) { return std::max(mx, partial); });
}

const Execution& serial_execution() {
  static const Execution serial;
  return serial;
}

}  // namespace mstep::par
