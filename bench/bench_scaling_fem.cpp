// Scaling bench, two modes.
//
// --mode=threads (default): real-thread scaling harness.  Sweeps the
// execution policy over a list of thread counts (default 1,2,4,8) on the
// paper's two workload shapes — the plane-stress FEM plate in CSR and the
// same system in the CYBER diagonal layout (DIA) — and reports iterations,
// wall seconds, and speedup vs the serial (threads=0) solve.  The
// deterministic blocked reductions make every threaded solve bitwise
// identical to the serial one; the harness verifies that on each run and
// emits machine-readable JSON (--out=BENCH_scaling.json) for CI artifacts.
//
// --mode=scaled: the original Section-4 scaled-problem study on the
// simulated Finite Element Machine — "as the number of processors
// increases ... m >= 4 steps of the preconditioner will be optimal."
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fem/plane_stress.hpp"
#include "fem/plate_mesh.hpp"
#include "femsim/assignment.hpp"
#include "femsim/dist_solver.hpp"
#include "solver/solver.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mstep;

std::vector<int> parse_count_list(const std::string& flag,
                                  const std::string& text) {
  std::vector<int> out;
  std::stringstream ss(text);
  std::string piece;
  while (std::getline(ss, piece, ',')) {
    if (piece.empty()) continue;
    std::size_t pos = 0;
    int value = 0;
    try {
      value = std::stoi(piece, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != piece.size() || value < 1) {
      throw std::invalid_argument(flag + " wants a list of counts >= 1, got '" +
                                  piece + "'");
    }
    out.push_back(value);
  }
  if (out.empty()) throw std::invalid_argument("empty " + flag + " list");
  return out;
}

struct Workload {
  std::string name;
  solver::SolverConfig config;  // execution.threads filled per run
};

struct Run {
  std::string workload;
  index_t n = 0;
  int threads = 0;  // 0 = serial baseline
  int iterations = 0;
  bool converged = false;
  bool bitwise_match_serial = true;
  double wall_seconds = 0.0;
  double speedup_vs_serial = 1.0;
};

/// Best-of-`repeats` wall time of prepared.solve(f).
double time_solve(const solver::Prepared& prepared, const Vec& f, int repeats,
                  solver::SolveReport* report) {
  double best = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    util::Timer timer;
    *report = prepared.solve(f);
    best = std::min(best, timer.seconds());
  }
  return best;
}

int run_thread_scaling(const util::Cli& cli) {
  const bool quick = cli.has("quick");
  const int plate = cli.get_int("size", quick ? 24 : 80);
  const int repeats = cli.get_int("repeats", quick ? 1 : 3);
  const auto thread_counts = parse_count_list(
      "--threads", cli.get("threads", quick ? "1,2" : "1,2,4,8"));
  const std::string out_path = cli.get("out", "BENCH_scaling.json");

  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(plate);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});

  solver::SolverConfig base;
  base.splitting = "ssor";
  base.steps = 4;
  base.params = "lsq";
  base.ordering = solver::Ordering::kMulticolor;
  base.tolerance = 1e-6;

  std::vector<Workload> workloads;
  workloads.push_back({"fem_plate_csr", base});
  Workload cyber{"cyber_dia", base};
  cyber.config.format = solver::MatrixFormat::kDia;
  workloads.push_back(cyber);

  std::cout << "== Thread-scaling harness ==\n"
            << "plate a = " << plate << " (" << mesh.num_equations()
            << " equations), m = " << base.steps
            << ", best of " << repeats << " repeat(s).\n\n";

  std::vector<Run> runs;
  for (const auto& w : workloads) {
    // Serial baseline: threads = 0, the unthreaded code path.
    solver::SolveReport serial_report;
    const auto serial_solver = solver::Solver::from_config(w.config);
    const auto serial_prepared = serial_solver.prepare(sys.stiffness);
    const double serial_wall =
        time_solve(serial_prepared, sys.load, repeats, &serial_report);

    Run baseline;
    baseline.workload = w.name;
    baseline.n = mesh.num_equations();
    baseline.threads = 0;
    baseline.iterations = serial_report.iterations();
    baseline.converged = serial_report.converged();
    baseline.wall_seconds = serial_wall;
    runs.push_back(baseline);

    util::Table t({"threads", "iterations", "wall (s)", "speedup",
                   "bitwise = serial"});
    t.add_row({"serial", util::Table::integer(baseline.iterations),
               util::Table::fixed(serial_wall, 4), "1.00", "-"});

    for (const int threads : thread_counts) {
      auto cfg = w.config;
      cfg.execution.threads = threads;
      const auto solver = solver::Solver::from_config(cfg);
      // One Prepared per thread count: the pool is created once and reused
      // across the repeats (and would be across further right-hand sides).
      const auto prepared = solver.prepare(sys.stiffness);
      solver::SolveReport report;
      const double wall = time_solve(prepared, sys.load, repeats, &report);

      Run run;
      run.workload = w.name;
      run.n = mesh.num_equations();
      run.threads = threads;
      run.iterations = report.iterations();
      run.converged = report.converged();
      run.wall_seconds = wall;
      run.speedup_vs_serial = serial_wall / wall;
      run.bitwise_match_serial =
          report.iterations() == serial_report.iterations() &&
          report.solution == serial_report.solution;
      runs.push_back(run);

      t.add_row({util::Table::integer(threads),
                 util::Table::integer(run.iterations),
                 util::Table::fixed(wall, 4),
                 util::Table::fixed(run.speedup_vs_serial, 2),
                 run.bitwise_match_serial ? "yes" : "NO"});
    }
    t.print(std::cout, w.name);
    std::cout << '\n';
  }

  util::Json rows = util::Json::array();
  for (const Run& r : runs) {
    rows.push(util::Json::object()
                  .set("workload", r.workload)
                  .set("n", r.n)
                  .set("threads", r.threads)
                  .set("iterations", r.iterations)
                  .set("converged", r.converged)
                  .set("wall_seconds", r.wall_seconds)
                  .set("speedup_vs_serial", r.speedup_vs_serial)
                  .set("bitwise_match_serial", r.bitwise_match_serial));
  }
  std::ofstream json(out_path);
  rows.dump(json);
  std::cout << "wrote " << out_path << '\n';

  bool all_match = true;
  bool all_converged = true;
  for (const Run& r : runs) {
    all_match = all_match && r.bitwise_match_serial;
    all_converged = all_converged && r.converged;
  }
  if (!all_match || !all_converged) {
    std::cerr << (all_match ? "non-converged run\n"
                            : "threaded solve diverged from serial "
                              "bitwise!\n");
    return 1;
  }
  return 0;
}

int run_scaled_problem_study(const util::Cli& cli) {
  const int cols_per_proc = cli.get_int("cols-per-proc", 3);
  const int rows = cli.get_int("rows", 9);

  std::cout << "== Scaled-problem study (Section 4 discussion) ==\n"
               "fixed " << rows * cols_per_proc
            << " nodes per processor, plate grows with P.\n\n";

  util::Table t({"P", "N", "best m (software)", "T (software)",
                 "best m (sum/max)", "T (sum/max)", "comm share"});

  for (int p : {1, 2, 4, 8, 12}) {
    const int ucols = cols_per_proc * p;
    const fem::PlateMesh mesh(rows, ucols + 1);
    const femsim::Assignment assign = femsim::column_strips(mesh, p);
    const femsim::DistributedPlateSolver solver(
        mesh, fem::Material{}, fem::EdgeLoad{1.0, 0.0}, assign);

    auto best_of = [&](bool summax) {
      int best_m = 0;
      double best_t = 1e300;
      for (int m : {0, 1, 2, 3, 4, 5, 6}) {
        femsim::DistOptions opt;
        opt.m = m;
        opt.tolerance = 1e-6;
        opt.costs.use_summax_circuit = summax;
        const auto res = solver.solve(opt);
        if (res.converged && res.simulated_seconds < best_t) {
          best_t = res.simulated_seconds;
          best_m = m;
        }
      }
      return std::pair<int, double>{best_m, best_t};
    };

    const auto [m_soft, t_soft] = best_of(false);
    const auto [m_hard, t_hard] = best_of(true);

    // Reduction share of the software run at its best m.
    femsim::DistOptions opt;
    opt.m = m_soft;
    opt.tolerance = 1e-6;
    const auto res = solver.solve(opt);
    const double comm_share =
        res.max_comm_seconds / res.simulated_seconds;

    t.add_row({util::Table::integer(p),
               util::Table::integer(mesh.num_equations()),
               util::Table::integer(m_soft), util::Table::fixed(t_soft, 2),
               util::Table::integer(m_hard), util::Table::fixed(t_hard, 2),
               util::Table::fixed(100.0 * comm_share, 1) + "%"});
  }
  t.print(std::cout, "optimal m vs processor count");
  std::cout << "\nshape targets: optimal m tends to grow with P (small-m\n"
               "runs are reduction-bound); the sum/max circuit keeps total\n"
               "time lower once P > 2.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    mstep::util::Cli cli(argc, argv,
                         {"mode", "quick", "size", "repeats", "threads",
                          "out", "cols-per-proc", "rows"});
    const std::string mode = cli.get("mode", "threads");
    if (mode == "threads") return run_thread_scaling(cli);
    if (mode == "scaled") return run_scaled_problem_study(cli);
    std::cerr << "unknown --mode '" << mode << "' (threads | scaled)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bench_scaling_fem: " << e.what() << '\n';
    return 2;
  }
}
