// The one solve engine: Prepared::solve is a one-lane Prepared::solveMany.
//
// One expensive setup — coloring, permutation, splitting parameters, alpha
// coefficients — serves many right-hand sides (the reuse the paper's whole
// m-step design is built around).  Each lane pops the next unsolved RHS off
// one atomic cursor, so a slow right-hand side never stalls the rest of
// the batch behind a static partition.  The lane rule lives here alone: a
// lone lane runs on the calling thread with the kernel execution and the
// prepare-time kernel log; several lanes run on the solver's pool with
// serial kernels, because a pool body must not dispatch on its own pool.
//
// Each lane owns a scratch arena — its own preconditioner instance
// (mutable sweep scratch must not be shared across lanes) plus a
// PcgWorkspace and reorder buffers — built once before the loop, so
// nothing allocates inside the batch loop beyond each report's solution
// vector.  On the Algorithm-2 path a lane's preconditioner is only its
// y vector over the pipeline's shared sweep plan.  Threaded
// kernels are bitwise their serial twins, so every per-RHS result is
// BITWISE identical to the corresponding serial solve.
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/kernel_log.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "util/timer.hpp"

namespace mstep::solver {

namespace {

/// Per-lane scratch arena: everything one concurrent PCG solve mutates.
struct Lane {
  detail::PrecondChoice engine;  // the lane's preconditioner (+ splitting)
  core::PcgWorkspace workspace;
  Vec fp, u0p;  // right-hand side and initial guess in solve ordering
  /// Feeds the tracer's kernel census when tracing is on at batch time,
  /// forwarding to the lane's kernel log.
  std::unique_ptr<obs::TracingKernelLog> trace_log;
  core::KernelLog* log = nullptr;  // trace_log, else the lone lane's log
};

}  // namespace

std::size_t BatchReport::num_failed() const {
  std::size_t failed = 0;
  for (const auto& e : errors) {
    if (e) ++failed;
  }
  return failed;
}

bool BatchReport::all_converged() const {
  if (reports.empty()) return true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (errors[i] || !reports[i].converged()) return false;
  }
  return true;
}

long long BatchReport::total_iterations() const {
  long long total = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!errors[i]) total += reports[i].iterations();
  }
  return total;
}

double BatchReport::solves_per_second() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(reports.size() - num_failed()) / wall_seconds;
}

void BatchReport::rethrow_first_error() const {
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

BatchReport Prepared::run_lanes(util::Span<const Vec> bs,
                                const BatchConfig& batch,
                                const Vec& u0) const {
  util::Timer timer;
  if (batch.concurrency < 0) {
    throw std::invalid_argument("solveMany: concurrency must be >= 0");
  }
  BatchReport br;
  br.reports.resize(bs.size());
  br.errors.resize(bs.size());
  const auto nrhs = static_cast<index_t>(bs.size());
  if (nrhs == 0) return br;

  // Lane count: the per-call override, else the config default — both
  // honored as asked (deliberate oversubscription stays possible) — else
  // one lane per pool thread capped at the hardware width: lanes beyond
  // the physical cores only add timesharing and arena memory, never
  // throughput.  Never more lanes than the pool can run at once or than
  // there are right-hand sides.
  par::ThreadPool* pool = exec_ ? exec_->pool() : nullptr;
  const int pool_width = pool ? pool->threads() : 1;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int auto_lanes = hw > 0 ? std::min(pool_width, hw) : pool_width;
  const int want = batch.concurrency > 0
                       ? batch.concurrency
                       : (config_.batch > 0 ? config_.batch : auto_lanes);
  const int lanes = std::max(
      1, std::min({want, pool_width, static_cast<int>(nrhs)}));

  // The lane rule (see the file comment).
  const index_t n = matrix_->rows();
  const bool lone = lanes == 1;
  const par::Execution* exec = lone ? kernel_exec() : nullptr;
  core::KernelLog* log = lone ? log_ : nullptr;
  const int threads = exec && n >= par::kSerialCutoff ? exec->threads() : 1;

  // Build one scratch arena per lane through the same selection policy as
  // prepare().  The expensive setup — coloring, interval, alphas, the
  // sweep plan — is NOT redone: lanes share cs_/matrix_/op_/alphas_/sweep_
  // read-only.  The kernel census rides the same KernelLog stream the
  // Section-4 cost model uses — one instrumentation pass.
  const bool tracing = obs::Tracer::instance().enabled();
  std::vector<Lane> arena(static_cast<std::size_t>(lanes));
  for (Lane& lane : arena) {
    if (tracing) lane.trace_log = std::make_unique<obs::TracingKernelLog>(log);
    lane.log = tracing ? lane.trace_log.get() : log;
    lane.engine = detail::make_preconditioner(config_, cs_.get(), *matrix_,
                                              alphas_, lane.log, exec, sweep_);
  }

  std::atomic<index_t> cursor{0};
  // Lanes on pool threads inherit the caller's correlation id, so a
  // traced daemon request keeps its id on every lane's track.
  const std::uint64_t trace_correlation = obs::correlation();
  auto run_lane = [&](index_t lane_id) {
    const obs::CorrelationScope correlate(trace_correlation);
    Lane& lane = arena[static_cast<std::size_t>(lane_id)];
    // A caller-ordered vector in solve ordering; a missing or mis-sized
    // one passes through unchanged for pcg_solve to accept or reject.
    const auto solve_order = [&](const Vec& x, Vec& buf) -> const Vec& {
      if (!cs_ || static_cast<index_t>(x.size()) != n) return x;
      cs_->permute_into(x, buf);
      return buf;
    };
    for (;;) {
      const index_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= nrhs) return;
      try {
        const Vec& f = bs[i];
        if (static_cast<index_t>(f.size()) != n) {
          throw std::invalid_argument(
              "solve: right-hand side " + std::to_string(i) + " has " +
              std::to_string(f.size()) + " entries, system has " +
              std::to_string(n));
        }
        SolveReport report;
        report.result = core::pcg_solve(
            *op_, solve_order(f, lane.fp), *lane.engine.precond,
            config_.pcg_options(), lane.log, solve_order(u0, lane.u0p), exec,
            &lane.workspace);
        if (cs_) {
          cs_->unpermute_into(report.result.solution, report.solution);
        } else {
          report.solution = report.result.solution;
        }
        report.alphas = alphas_;
        report.interval = interval_;
        report.coloring = stats_;
        report.preconditioner_name = lane.engine.precond->name();
        report.steps = config_.steps;
        report.format_selected = resolved_format_;
        report.sweep_format = sweep_format();
        report.threads = threads;
        br.reports[i] = std::move(report);  // distinct slot per RHS: no race
      } catch (...) {
        br.errors[i] = std::current_exception();
      }
    }
  };

  if (lone) {
    run_lane(0);
  } else {
    // One pool job for the whole batch; the atomic cursor inside run_lane
    // does the per-RHS stealing.  Lane bodies catch everything, so the
    // pool's own exception channel stays quiet and every RHS completes.
    pool->for_each(0, lanes, run_lane);
  }

  br.concurrency = lanes;
  br.wall_seconds = timer.seconds();
  return br;
}

}  // namespace mstep::solver
