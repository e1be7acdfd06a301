// perfbench_worker — runs one benchmark workload and streams its records
// (record.hpp) to stdout; run.py starts it, restarts it after a crash,
// and turns the records into the benchmark's metrics.
//
//   perfbench_worker --workload plate_solve --seed 1 --seconds 20
//                    --trace 0 --state-dir DIR [--done stage,stage]
//   perfbench_worker --self-test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/pcg.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using namespace mstep;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_worker: %s\nusage: perfbench_worker --workload W "
               "--seed N --seconds S --trace 0|1 --state-dir DIR "
               "[--done a,b]\n       perfbench_worker --self-test\n",
               why);
  return 2;
}

int fail(const std::string& what) {
  std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  return 1;
}

/// The benchmark's own checks of its verification and span accounting.
int self_test() {
  // A one-ulp change anywhere in the solution must fail verification.
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("femplate:a=24");
  const solver::Solver solver = solver::Solver::from_string(kBaseConfig);
  const solver::Prepared prepared = solver.prepare(p.matrix, p.classes);
  const solver::SolveReport rep = prepared.solve(p.rhs);
  const Reference ref{rep.solution, rep.iterations()};
  const Limits limits{1e-3, 10};
  if (!verify(p.matrix, p.rhs, true, rep.iterations(), rep.solution, ref, limits)
           .ok) {
    return fail("the reference itself does not verify");
  }
  for (std::size_t i : {std::size_t{0}, rep.solution.size() / 2,
                        rep.solution.size() - 1}) {
    Vec bumped = rep.solution;
    bumped[i] = std::nextafter(bumped[i], INFINITY);
    const Outcome o =
        verify(p.matrix, p.rhs, true, rep.iterations(), bumped, ref, limits);
    if (o.ok) return fail("a one-ulp perturbation passed verification");
  }
  Vec signed_zero(4, 0.0);
  Vec negative_zero(4, 0.0);
  negative_zero[2] = -0.0;
  if (same_bits(signed_zero, negative_zero)) {
    return fail("-0.0 and +0.0 compared bitwise equal");
  }
  if (verify(p.matrix, p.rhs, true, rep.iterations() - 1, rep.solution, ref,
             limits)
          .ok) {
    return fail("a wrong iteration count passed verification");
  }
  if (verify(p.matrix, p.rhs, true, rep.iterations(), rep.solution, ref,
             Limits{1e-3, rep.iterations() + 1})
          .ok) {
    return fail("a solve below the iteration floor passed verification");
  }

  // Self time: a parent's children are subtracted, grandchildren are not.
  std::vector<Span> spans = {
      {"leaf", 1.0, 2.0, 3, 2},
      {"mid", 0.5, 3.0, 2, 1},
      {"root", 0.0, 4.0, 1, -1},
  };
  const auto self = self_times(spans);
  if (std::fabs(self.at("root") - 1.5) > 1e-12 ||
      std::fabs(self.at("mid") - 1.5) > 1e-12 ||
      std::fabs(self.at("leaf") - 1.0) > 1e-12) {
    return fail("self_times");
  }

  // On plate_solve the layer self times (sweep, SpMV, the rest of PCG)
  // account for at least 90% of the traced solve wall.
  const problems::Problem plate =
      problems::ProblemRegistry::instance().create("femplate:a=200");
  solver::SolverConfig config = solver::SolverConfig::from_string(kBaseConfig);
  config.execution.threads = 4;
  const solver::Solver threaded = solver::Solver::from_config(config);
  const solver::Prepared pp = threaded.prepare(plate.matrix, plate.classes);
  const OwnedOperator op = traced_operator(pp);
  SpanLog log(0);
  const TracedSolve t = traced_solve(pp, pp.preconditioner(), op,
                                     threaded.execution(), plate.rhs, log);
  const double accounted = (t.sweep_s + t.spmv_s + t.pcg_self_s) / t.wall_s;
  std::printf("self-test: traced plate_solve %.3f s, %d iterations, layers "
              "account for %.4f of it\n",
              t.wall_s, t.iterations, accounted);
  if (!(accounted >= 0.9)) return fail("layer self times below 90% of wall");
  if (t.sweep_calls < t.iterations || t.spmv_calls < t.iterations) {
    return fail("fewer sweep/SpMV spans than iterations");
  }
  std::printf("self-test: ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      try {
        return self_test();
      } catch (const std::exception& e) {
        return fail(e.what());
      }
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else if (flag == "--done") {
      std::stringstream list(value);
      for (std::string stage; std::getline(list, stage, ',');) {
        if (!stage.empty()) args.done.push_back(stage);
      }
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  try {
    if (args.workload == "plate_solve") return run_plate_solve(args);
    if (args.workload == "plate_rhs_batch") return run_plate_rhs_batch(args);
    if (args.workload == "served_mixed") return run_served_mixed(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
    return 3;
  }
  return usage(("unknown workload " + args.workload).c_str());
}
