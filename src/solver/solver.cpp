#include "solver/solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "color/greedy.hpp"
#include "core/mstep.hpp"
#include "core/multicolor_mstep.hpp"
#include "obs/trace.hpp"

namespace mstep::solver {

namespace {

ColoringStats stats_from(const color::ColoredSystem& cs) {
  ColoringStats stats;
  stats.used = true;
  stats.num_classes = cs.num_classes();
  stats.min_class_size = cs.size();
  stats.max_class_size = 0;
  for (int c = 0; c < cs.num_classes(); ++c) {
    stats.min_class_size = std::min(stats.min_class_size, cs.class_size(c));
    stats.max_class_size = std::max(stats.max_class_size, cs.class_size(c));
  }
  return stats;
}

double ssor_omega(const SolverConfig& config) {
  const auto it = config.splitting_options.find("omega");
  return it == config.splitting_options.end() ? 1.0 : it->second;
}

}  // namespace

namespace detail {

MatrixFormat resolve_format(MatrixFormat requested,
                            const la::CsrMatrix& matrix) {
  if (requested != MatrixFormat::kAuto) return requested;
  // Banded-first: the diagonal layout beats the sliced one when the
  // matrix is banded enough to fill it, and SELL catches the
  // irregular-but-dense-rows middle ground before the CSR fallback.
  if (la::DiaMatrix::profitable(matrix)) return MatrixFormat::kDia;
  if (la::SellMatrix::profitable(matrix)) return MatrixFormat::kSell;
  return MatrixFormat::kCsr;
}

la::SegmentLayout sweep_layout(MatrixFormat resolved) {
  return resolved == MatrixFormat::kDia ? la::SegmentLayout::kDia
                                        : la::SegmentLayout::kSell;
}

bool uses_multicolor_sweep(const SolverConfig& config,
                           const color::ColoredSystem* cs) {
  return cs && config.steps > 0 && config.splitting == "ssor" &&
         ssor_omega(config) == 1.0;
}

PrecondChoice make_preconditioner(
    const SolverConfig& config, const color::ColoredSystem* cs,
    const la::CsrMatrix& matrix, const std::vector<double>& alphas,
    core::KernelLog* log, const par::Execution* exec,
    std::shared_ptr<const core::SweepPlan> sweep) {
  PrecondChoice choice;
  if (config.steps <= 0) {
    choice.precond =
        std::make_unique<core::IdentityPreconditioner>(matrix.rows());
    return choice;
  }
  // Algorithm-2 fast path: the Conrad–Wallach multicolor sweep is the
  // SSOR(omega = 1) m-step operator on the colour-permuted matrix.  With
  // a parallel execution policy each colour class is swept in strips by
  // the thread pool — bitwise the serial result (the decoupling
  // property).  Tiny systems keep the serial sweep: per-class pool
  // dispatch costs more than it saves there (same threshold as the
  // Execution kernels).
  if (uses_multicolor_sweep(config, cs)) {
    if (!sweep) {
      sweep = core::SweepPlan::build(
          *cs, sweep_layout(resolve_format(config.format, matrix)));
    }
    par::ThreadPool* pool =
        exec && matrix.rows() >= par::kSerialCutoff ? exec->pool() : nullptr;
    choice.precond = std::make_unique<core::MulticolorMStepSsor>(
        std::move(sweep), alphas, log, pool);
    return choice;
  }
  // Generic m-step engine: every registered splitting threads its sweep
  // through the execution policy (deterministic, bitwise the serial
  // sweep) instead of only the multicolor fast path.
  choice.splitting = SplittingRegistry::instance().create(
      config.splitting, matrix, config.splitting_options);
  choice.precond = std::make_unique<core::MStepPreconditioner>(
      matrix, *choice.splitting, alphas, log, exec);
  return choice;
}

}  // namespace detail

Solver::Solver(SolverConfig config) : config_(std::move(config)) {
  // One pool for the solver's whole lifetime: every Prepared (and hence
  // every step and right-hand side) reuses the same warm threads.  It is
  // sized for the wider of the two demands on it — kernel threading
  // (threads) and batch lanes (batch) — through ExecutionConfig::resolve(),
  // which collapses 0 and 1 to "no pool", so no path can construct a
  // 0-thread pool.
  const int kernel_threads = config_.execution.resolve();
  const int lane_threads = config_.batch >= 2 ? config_.batch : 0;
  const int pool_threads = std::max(kernel_threads, lane_threads);
  if (pool_threads > 0) {
    exec_ = std::make_shared<par::Execution>(pool_threads);
  }
}

Solver Solver::from_config(SolverConfig config) {
  config.validate();
  return Solver(std::move(config));
}

Solver Solver::from_string(const std::string& text) {
  return from_config(SolverConfig::from_string(text));
}

Prepared Solver::prepare(const la::CsrMatrix& k, core::KernelLog* log) const {
  return prepare_impl(k, nullptr, log);
}

Prepared Solver::prepare(const la::CsrMatrix& k,
                         const color::ColorClasses& classes,
                         core::KernelLog* log) const {
  return prepare_impl(k, &classes, log);
}

Prepared Solver::prepare_impl(const la::CsrMatrix& k,
                              const color::ColorClasses* classes,
                              core::KernelLog* log) const {
  if (k.rows() != k.cols()) {
    throw std::invalid_argument("Solver: matrix must be square");
  }
  const obs::Span prepare_span("prepare");
  Prepared p;
  p.config_ = config_;
  p.exec_ = exec_;
  p.log_ = log;

  // 1. Ordering.
  {
    const obs::Span coloring_span("coloring");
    if (config_.ordering == Ordering::kMulticolor) {
      color::ColorClasses greedy;
      if (classes == nullptr) {
        const obs::Span greedy_span("greedy");
        greedy = color::greedy_classes_from_matrix(k);
        classes = &greedy;
      }
      if (classes->num_classes() == 0) {
        throw std::invalid_argument(
            "Solver: multicolor ordering needs colour classes");
      }
      p.cs_ = std::make_unique<color::ColoredSystem>(
          color::make_colored_system(k, *classes));
      p.matrix_ = &p.cs_->matrix;
      p.stats_ = stats_from(*p.cs_);
    } else {
      p.matrix_ = &k;
    }
  }

  // 2. Operator view for the outer CG products.  `auto` is resolved HERE,
  // on the matrix PCG actually iterates on (the colour-permuted one when
  // multicolour) — a matrix that is banded in the caller's ordering can
  // scatter its diagonals under the permutation and vice versa, so the
  // probe must see the operator matrix, not the input.  It runs before
  // the preconditioner is built: the sweep's segment layout follows it.
  {
    const obs::Span probe_span("format_probe");
    p.resolved_format_ = detail::resolve_format(config_.format, *p.matrix_);
    if (p.resolved_format_ == MatrixFormat::kDia) {
      p.dia_ = std::make_unique<la::DiaMatrix>(
          la::DiaMatrix::from_csr(*p.matrix_));
      p.op_ = std::make_unique<la::DiaOperator>(*p.dia_);
    } else if (p.resolved_format_ == MatrixFormat::kSell) {
      p.sell_ = std::make_unique<la::SellMatrix>(
          la::SellMatrix::from_csr(*p.matrix_));
      p.op_ = std::make_unique<la::SellOperator>(*p.sell_);
    } else {
      p.op_ = std::make_unique<la::CsrOperator>(*p.matrix_);
    }
  }

  // 3. Parameters and preconditioner (splitting via the registries).
  {
    const obs::Span params_span("params");
    if (config_.steps > 0) {
      const auto& entry = SplittingRegistry::instance().at(config_.splitting);
      p.interval_ = config_.interval
                        ? *config_.interval
                        : entry.default_interval(*p.matrix_,
                                                 config_.splitting_options);
      p.alphas_ = ParamStrategyRegistry::instance().alphas(
          config_.params, config_.steps, p.interval_);
    }
    // The sweep's plan (row splits, census, segments in the operator's
    // layout) is built once here and shared read-only by the solve path,
    // every batch lane and every daemon cache hit.
    if (detail::uses_multicolor_sweep(config_, p.cs_.get())) {
      p.sweep_ = core::SweepPlan::build(
          *p.cs_, detail::sweep_layout(p.resolved_format_));
    }
    // The instance behind preconditioner(); each solve lane builds its own
    // through the same factory (m = 0 yields the identity).
    auto choice = detail::make_preconditioner(config_, p.cs_.get(),
                                              *p.matrix_, p.alphas_, log,
                                              p.kernel_exec(), p.sweep_);
    p.splitting_ = std::move(choice.splitting);
    p.precond_ = std::move(choice.precond);
  }
  return p;
}

SolveReport Solver::solve(const la::CsrMatrix& k, const Vec& f,
                          core::KernelLog* log, const Vec& u0) const {
  return prepare(k, log).solve(f, u0);
}

SolveReport Solver::solve(const la::CsrMatrix& k, const Vec& f,
                          const color::ColorClasses& classes,
                          core::KernelLog* log, const Vec& u0) const {
  return prepare(k, classes, log).solve(f, u0);
}

BatchReport Solver::solveMany(const la::CsrMatrix& k, util::Span<const Vec> bs,
                              const BatchConfig& batch) const {
  return prepare(k).solveMany(bs, batch);
}

BatchReport Solver::solveMany(const la::CsrMatrix& k, util::Span<const Vec> bs,
                              const color::ColorClasses& classes,
                              const BatchConfig& batch) const {
  return prepare(k, classes).solveMany(bs, batch);
}

Vec Prepared::permute(const Vec& x) const {
  return cs_ ? cs_->permute(x) : x;
}

Vec Prepared::unpermute(const Vec& x) const {
  return cs_ ? cs_->unpermute(x) : x;
}

SolveReport Prepared::solve(const Vec& f, const Vec& u0) const {
  BatchConfig one_lane;
  one_lane.concurrency = 1;
  BatchReport br = run_lanes(util::Span<const Vec>(&f, 1), one_lane, u0);
  br.rethrow_first_error();
  return std::move(br.reports[0]);
}

}  // namespace mstep::solver
