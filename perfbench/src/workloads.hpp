// The benchmark's workloads; each returns the worker's exit code.
#pragma once

#include "common.hpp"

namespace perfbench {

int run_plate_solve(const Args& args);
int run_plate_rhs_batch(const Args& args);
int run_served_mixed(const Args& args);

}  // namespace perfbench
