// Shared-memory parallel version of Algorithm 2.
//
// Identical mathematics to core::MulticolorMStepSsor, but every colour
// class is updated by the thread pool.  Because the class diagonal blocks
// are diagonal, rows within a class read only other-class values and write
// only themselves: the parallel sweep is race-free and produces BITWISE
// the serial result regardless of scheduling — the property that makes the
// multicolor ordering a parallel algorithm at all, asserted by the tests
// with real threads.
#pragma once

#include <memory>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/preconditioner.hpp"
#include "par/thread_pool.hpp"

namespace mstep::par {

class ParallelMulticolorMStepSsor : public core::Preconditioner {
 public:
  /// Builds its own plan in the SELL layout (the default CSR format's).
  /// `cs` and `pool` must outlive the preconditioner.  `log` (optional)
  /// receives exactly the kernel stream of the serial sweep, emitted from
  /// the calling thread, so instrumented reports are identical whether the
  /// sweep is threaded or not.
  ParallelMulticolorMStepSsor(const color::ColoredSystem& cs,
                              std::vector<double> alphas, ThreadPool& pool,
                              core::KernelLog* log = nullptr);
  /// Sweeps over a shared plan (whose system must remain alive).
  ParallelMulticolorMStepSsor(std::shared_ptr<const core::SweepPlan> plan,
                              std::vector<double> alphas, ThreadPool& pool,
                              core::KernelLog* log = nullptr);

  [[nodiscard]] index_t size() const override { return cs_->size(); }
  void apply(const Vec& r, Vec& z) const override;
  [[nodiscard]] int steps() const override {
    return static_cast<int>(alphas_.size());
  }
  [[nodiscard]] std::string name() const override;

 private:
  // The serial sweep's plan: the pool partitions the PARTS of a class's
  // segments, then the elementwise updates, each race-free.
  std::shared_ptr<const core::SweepPlan> plan_;
  const color::ColoredSystem* cs_;
  std::vector<double> alphas_;
  ThreadPool* pool_;
  core::KernelLog* log_;
  mutable Vec y_;
  mutable Vec xl_;  // scratch: the current class's scattered sums
};

}  // namespace mstep::par
