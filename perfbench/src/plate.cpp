// plate_solve and plate_rhs_batch: the FEM plate through the library
// facade, one large system with threaded kernels and one cache-resident
// system with a batch of right-hand sides on serial-kernel lanes.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "color/coloring.hpp"
#include "common.hpp"
#include "core/pcg.hpp"
#include "fem/plate_mesh.hpp"
#include "par/execution.hpp"
#include "problems/problem.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mstep;

namespace {

/// One of the two plate workloads.
struct PlateSpec {
  const char* name;
  int a;                // plate subdivisions
  int rhs;              // right-hand sides per call (0: the physical load)
  int threads;          // kernel threads of each solve
  int batch;            // solveMany lanes
  Limits limits;
};

// The iteration floors sit well below the measured counts (226 on the
// physical load at a = 200, ~200 on random loads at a = 120) and far above
// the 3-5 iterations of an eigenvector right-hand side.  The residual
// bound sits above the ~2.4e-5 the delta_inf stop test leaves.
constexpr PlateSpec kPlateSolve{"plate_solve", 200, 0, 4, 0, {1e-3, 100}};
constexpr PlateSpec kPlateBatch{"plate_rhs_batch", 120, 16, 0, 4, {1e-3, 100}};

// Limit of one measured call (prepare + solve call), about five times a
// fully serial call on either workload; a traced pair makes two calls.
constexpr double kCallLimitS = 15.0;

struct PlateInputs {
  problems::Problem problem;
  std::vector<Vec> bs;
  std::vector<Reference> refs;
};

solver::Solver make_solver(const PlateSpec& spec) {
  solver::SolverConfig config = solver::SolverConfig::from_string(kBaseConfig);
  config.execution.threads = spec.threads;
  config.batch = spec.batch;
  return solver::Solver::from_config(config);
}

/// Generates the system and its right-hand sides from the seed, and
/// computes (or, after a crash, reloads) the serial references.
PlateInputs make_inputs(const PlateSpec& spec, const Args& args,
                        int ref_threads) {
  PlateInputs in;
  in.problem = problems::ProblemRegistry::instance().create(
      "femplate:a=" + std::to_string(spec.a));
  const std::size_t n = in.problem.rhs.size();
  if (spec.rhs == 0) {
    in.bs.push_back(in.problem.rhs);
  } else {
    for (int i = 0; i < spec.rhs; ++i) {
      in.bs.push_back(random_rhs(n, derive_seed(args.seed, 100 + i)));
    }
  }
  const std::string path = args.state_dir + "/" + spec.name + ".ref";
  if (args.is_done("reference") &&
      load_references(path, in.bs.size(), n, &in.refs)) {
    return in;
  }
  emit_begin("reference");
  std::vector<double> seconds;
  in.refs = serial_references(in.problem.matrix, in.problem.classes, in.bs,
                              ref_threads, &seconds);
  save_references(path, in.refs);
  emit_metric("core.serial_solve_s", median(seconds));
  emit_stage_done("reference");
  return in;
}

/// Verifies a whole call; returns the record fields.
struct CallCheck {
  int failed = 0;
  long long iterations = 0;
  double max_rel_residual = 0.0;
  std::string why;
};

CallCheck check_call(const PlateInputs& in, const Limits& limits,
                     const std::vector<const solver::SolveReport*>& reports,
                     const std::vector<bool>& threw) {
  CallCheck c;
  for (std::size_t i = 0; i < in.bs.size(); ++i) {
    if (threw[i] || reports[i] == nullptr) {
      ++c.failed;
      c.why = "solve threw";
      continue;
    }
    const solver::SolveReport& r = *reports[i];
    const Outcome o = verify(in.problem.matrix, in.bs[i], r.converged(),
                             r.iterations(), r.solution, in.refs[i], limits);
    if (!o.ok) {
      ++c.failed;
      c.why = o.why;
      continue;
    }
    c.iterations += r.iterations();
    c.max_rel_residual = std::max(c.max_rel_residual, o.rel_residual);
  }
  return c;
}

void emit_op(const PlateInputs& in, const CallCheck& c, double prepare_s,
             double call_s, int lanes) {
  Line("op")
      .integer("rhs", static_cast<long long>(in.bs.size()))
      .integer("failed", c.failed)
      .integer("iterations", c.iterations)
      .num("max_rel_residual", c.max_rel_residual)
      .num("prepare_s", prepare_s)
      .num("call_s", call_s)
      .integer("lanes", lanes)
      .str("why", c.why)
      .emit();
}

/// One measured call: a fresh prepare, then the workload's solve call.
void measured_call(const PlateSpec& spec, const solver::Solver& solver,
                   const PlateInputs& in) {
  emit_begin("op");
  const la::CsrMatrix& k = in.problem.matrix;
  const double t0 = now_s();
  const solver::Prepared prepared = solver.prepare(k, in.problem.classes);
  const double t1 = now_s();
  std::vector<const solver::SolveReport*> reports(in.bs.size(), nullptr);
  std::vector<bool> threw(in.bs.size(), false);
  int lanes = 1;
  if (spec.rhs == 0) {
    solver::SolveReport rep;
    try {
      rep = prepared.solve(in.bs[0]);
      reports[0] = &rep;
    } catch (const std::exception&) {
      threw[0] = true;
    }
    const double t2 = now_s();
    emit_op(in, check_call(in, spec.limits, reports, threw), t1 - t0, t2 - t1,
            lanes);
    return;
  }
  const solver::BatchReport batch = prepared.solveMany(
      util::Span<const Vec>(in.bs.data(), in.bs.size()));
  const double t2 = now_s();
  for (std::size_t i = 0; i < in.bs.size(); ++i) {
    threw[i] = !batch.ok(i);
    reports[i] = &batch.reports[i];
  }
  lanes = batch.concurrency;
  emit_op(in, check_call(in, spec.limits, reports, threw), t1 - t0, t2 - t1,
          lanes);
}

/// The traced run's solve records: the untraced call, then the same
/// right-hand sides through the timing decorators.
void traced_pair(const PlateSpec& spec, const solver::Solver& solver,
                 const PlateInputs& in, const color::ColoredSystem& cs,
                 SpanLog& main_log, std::vector<SpanLog>& lane_logs) {
  const la::CsrMatrix& k = in.problem.matrix;
  const solver::Prepared prepared = solver.prepare(k, in.problem.classes);
  const OwnedOperator op = traced_operator(prepared);
  const std::size_t nrhs = in.bs.size();

  // Untraced, exactly as the measured run calls it.
  std::vector<solver::SolveReport> untraced(nrhs);
  double untraced_s = 0.0;
  int lanes = 1;
  if (spec.rhs == 0) {
    const double t0 = now_s();
    untraced[0] = prepared.solve(in.bs[0]);
    untraced_s = now_s() - t0;
  } else {
    const double t0 = now_s();
    solver::BatchReport batch = prepared.solveMany(
        util::Span<const Vec>(in.bs.data(), nrhs));
    untraced_s = now_s() - t0;
    lanes = batch.concurrency;
    for (std::size_t i = 0; i < nrhs; ++i) {
      untraced[i] = std::move(batch.reports[i]);
    }
  }

  // Traced: one solve on the caller's thread with the solve path's
  // execution, or one serial-kernel lane per thread as solveMany runs them.
  std::vector<TracedSolve> traced(nrhs);
  double precond_build_s = 0.0;
  const double t0 = now_s();
  if (spec.rhs == 0) {
    const par::Execution* exec = solver.config().execution.resolve() > 0
                                     ? solver.execution()
                                     : nullptr;
    traced[0] = traced_solve(prepared, prepared.preconditioner(), op, exec,
                             in.bs[0], main_log);
  } else {
    std::atomic<std::size_t> cursor{0};
    std::vector<double> build_s(static_cast<std::size_t>(lanes), 0.0);
    auto lane = [&](int id) {
      SpanLog& log = lane_logs[static_cast<std::size_t>(id)];
      const double b0 = now_s();
      log.open("core.precond_build");
      const solver::detail::PrecondChoice engine =
          solver::detail::make_preconditioner(solver.config(), &cs, cs.matrix,
                                              prepared.alphas(), nullptr,
                                              nullptr);
      log.close();
      build_s[static_cast<std::size_t>(id)] = now_s() - b0;
      core::PcgWorkspace workspace;
      for (std::size_t i = cursor++; i < nrhs; i = cursor++) {
        traced[i] = traced_solve(prepared, *engine.precond, op, nullptr,
                                 in.bs[i], log, &workspace);
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < lanes; ++t) pool.emplace_back(lane, t);
    lane(0);
    for (std::thread& th : pool) th.join();
    precond_build_s = median(build_s);
  }
  const double traced_s = now_s() - t0;

  int failed = 0;
  bool same_as_untraced = true;
  double sweep = 0, spmv = 0, pcg_self = 0, solve_wall = 0;
  long long sweep_calls = 0, spmv_calls = 0, iterations = 0;
  for (std::size_t i = 0; i < nrhs; ++i) {
    const TracedSolve& t = traced[i];
    const Outcome o = verify(k, in.bs[i], t.converged, t.iterations,
                             t.solution, in.refs[i], spec.limits);
    failed += !o.ok;
    same_as_untraced = same_as_untraced &&
                       t.iterations == untraced[i].iterations() &&
                       same_bits(t.solution, untraced[i].solution);
    sweep += t.sweep_s;
    spmv += t.spmv_s;
    pcg_self += t.pcg_self_s;
    solve_wall += t.wall_s;
    sweep_calls += t.sweep_calls;
    spmv_calls += t.spmv_calls;
    iterations += t.iterations;
  }
  int untraced_failed = 0;
  for (std::size_t i = 0; i < nrhs; ++i) {
    untraced_failed += !verify(k, in.bs[i], untraced[i].converged(),
                               untraced[i].iterations(), untraced[i].solution,
                               in.refs[i], spec.limits)
                            .ok;
  }
  // Per-lane seconds: the lanes run concurrently, so summed layer time
  // over the lanes is divided by their number to give wall-equivalent
  // seconds of the call.
  const double per_lane = 1.0 / lanes;
  const double sweep_bytes =
      static_cast<double>(sweep_calls) *
      sweep_bytes_per_apply(prepared.matrix(), solver.config().steps);
  const double spmv_bytes =
      static_cast<double>(spmv_calls) * op.bytes_per_product;
  Line("traced")
      .integer("failed", failed)
      .integer("untraced_failed", untraced_failed)
      .flag("same_as_untraced", same_as_untraced)
      .num("untraced_s", untraced_s)
      .num("traced_s", traced_s)
      .num("solve_wall_s", solve_wall * per_lane)
      .num("sweep_s", sweep * per_lane)
      .num("spmv_s", spmv * per_lane)
      .num("pcg_self_s", pcg_self * per_lane)
      .integer("sweep_calls", sweep_calls)
      .integer("spmv_calls", spmv_calls)
      .num("sweep_bytes", sweep_bytes)
      .num("spmv_bytes", spmv_bytes)
      .integer("iterations", iterations)
      .integer("lanes", lanes)
      .integer("rhs", static_cast<long long>(nrhs))
      .num("precond_build_s", precond_build_s)
      .num("working_set_mib",
           working_set_bytes(prepared.matrix(), op) / (1 << 20))
      .emit();
}

int run_plate(const PlateSpec& spec, const Args& args) {
  const solver::Solver solver = make_solver(spec);
  // The measured run computes references four at a time to spend its
  // time on the measurement; the traced run solves them one at a time,
  // so their seconds are the uncontended serial baseline.
  const PlateInputs in = make_inputs(spec, args, args.trace ? 1 : 4);
  const la::CsrMatrix& k = in.problem.matrix;

  if (!args.trace) {
    Watchdog watchdog;
    Line("measure_start").emit();
    const double end = now_s() + args.seconds;
    do {
      watchdog.arm(kCallLimitS);
      measured_call(spec, solver, in);
      watchdog.disarm();
    } while (now_s() < end);
    emit_stage_done("measure");
    return 0;
  }

  SpanLog main_log(0);
  const int kernel_threads = std::max(spec.threads, spec.batch);
  if (!args.is_done("triad")) {
    emit_triad(kernel_threads);
    emit_stage_done("triad");
  }
  const int a = spec.a;
  if (!args.is_done("setup")) {
    const SetupStages st = time_setup_stages(
        solver, k,
        [a] { return color::six_color_classes(fem::PlateMesh::unit_square(a)); },
        5, main_log);
    emit_metric("color.greedy_s", st.classes_s);
    emit_metric("color.permute_s", st.permute_s);
    emit_metric("color.classes", st.num_classes);
    emit_metric("core.params_s", st.params_s);
    emit_metric("la.format_probe_s", st.format_probe_s);
    emit_metric("la.format_build_s", st.format_build_s);
    emit_metric("solver.prepare_other_s",
                st.prepare_s - st.inside_prepare(false));
    // A batch call builds one serial preconditioner per lane; the traced
    // lanes time that build themselves (see traced_pair).
    if (spec.rhs == 0) emit_metric("core.precond_build_s", st.precond_build_s);
    flush_trace(args, {&main_log});
    emit_stage_done("setup");
  }

  const color::ColoredSystem cs =
      color::make_colored_system(k, in.problem.classes);
  if (!args.is_done("micro")) {
    Watchdog watchdog;
    watchdog.arm(2 * kCallLimitS);
    const par::Execution* exec = solver.execution();
    par::ThreadPool& pool = *exec->pool();
    emit_metric("par.dispatch_us", dispatch_us(pool, pool.threads()));
    const solver::Prepared prepared = solver.prepare(k, in.problem.classes);
    emit_metric("par.sweep_speedup",
                sweep_speedup(cs, prepared.alphas(), pool,
                              prepared.permute(in.bs[0]), 7));
    emit_metric("bench.kernel_threads", kernel_threads);
    emit_no_serve_layer();
    emit_stage_done("micro");
  }

  std::vector<SpanLog> lane_logs;
  for (int t = 0; t < std::max(1, spec.batch); ++t) lane_logs.emplace_back(t + 1);
  Line("measure_start").emit();
  const double end = now_s() + args.seconds;
  int pairs = 0;
  Watchdog watchdog;
  do {
    emit_begin("traced");
    watchdog.arm(2 * kCallLimitS);
    traced_pair(spec, solver, in, cs, main_log, lane_logs);
    watchdog.disarm();
    ++pairs;
  } while (pairs < 2 || now_s() < end);

  std::vector<const SpanLog*> logs{&main_log};
  for (const SpanLog& l : lane_logs) logs.push_back(&l);
  flush_trace(args, logs);
  emit_stage_done("traced");
  return 0;
}

}  // namespace

int run_plate_solve(const Args& args) { return run_plate(kPlateSolve, args); }
int run_plate_rhs_batch(const Args& args) {
  return run_plate(kPlateBatch, args);
}

}  // namespace perfbench
