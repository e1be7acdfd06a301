// The threaded Algorithm-2 sweep under its historical name: the one
// core::MulticolorMStepSsor kernel, run across a thread pool.  Each class
// phase is one pool dispatch over static row strips, bitwise the serial
// sweep (see core/multicolor_mstep.hpp).
#pragma once

#include <utility>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/multicolor_mstep.hpp"
#include "par/thread_pool.hpp"

namespace mstep::par {

class ParallelMulticolorMStepSsor : public core::MulticolorMStepSsor {
 public:
  /// Builds its own plan in the SELL layout (the default CSR format's).
  /// `cs` and `pool` must outlive the preconditioner.
  ParallelMulticolorMStepSsor(const color::ColoredSystem& cs,
                              std::vector<double> alphas, ThreadPool& pool,
                              core::KernelLog* log = nullptr)
      : core::MulticolorMStepSsor(cs, std::move(alphas), log, &pool) {}
};

}  // namespace mstep::par
