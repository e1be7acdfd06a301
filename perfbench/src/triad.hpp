// In-process STREAM triad, the bandwidth reference each layer's computed
// bytes per second are divided by (the roofline framing of Williams,
// Waterman & Patterson, CACM 2009).
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "record.hpp"

namespace perfbench {

/// Last-level cache size in bytes as the C library reports it (0 when
/// unknown).
inline std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : 0;
}

/// a = b + s * c over three arrays of `elems` doubles each, split into
/// `threads` contiguous chunks, each initialised by the thread that then
/// streams it.
/// Returns the median GB/s over `reps` passes, counting 24 bytes per
/// element as STREAM does.
class Triad {
 public:
  // Allocated uninitialized, so the first write is each owner's.
  explicit Triad(std::size_t elems)
      : n_(elems), a_(new double[elems]), b_(new double[elems]),
        c_(new double[elems]) {}

  [[nodiscard]] std::size_t total_bytes() const { return 3 * 8 * n_; }

  double gbs(int threads, int reps) {
    run(threads, [this](std::size_t lo, std::size_t hi) {
      std::fill(a_.get() + lo, a_.get() + hi, 0.0);
      std::fill(b_.get() + lo, b_.get() + hi, 1.0);
      std::fill(c_.get() + lo, c_.get() + hi, 2.0);
    });
    std::vector<double> rates;
    for (int r = 0; r < reps; ++r) {
      const double s = 0.5 + r;
      const double t0 = now_s();
      run(threads, [this, s](std::size_t lo, std::size_t hi) {
        double* a = a_.get();
        const double* b = b_.get();
        const double* c = c_.get();
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      });
      rates.push_back(static_cast<double>(total_bytes()) / (now_s() - t0) /
                      1e9);
    }
    return median(rates);
  }

 private:
  template <typename Body>
  void run(int threads, Body body) {
    const std::size_t n = n_;
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back(body, n * t / threads, n * (t + 1) / threads);
    }
    body(0, n / threads);
    for (std::thread& th : pool) th.join();
  }

  std::size_t n_;
  std::unique_ptr<double[]> a_, b_, c_;
};

}  // namespace perfbench
