// The mstep::Solver facade — the paper's whole pipeline behind one call.
//
//   auto report = Solver::from_config(config).solve(K, f);
//
// owns: multicolour ordering (caller-supplied classes or a greedy matrix
// colouring), splitting construction through the registry, alpha selection
// through the parameter-strategy registry, preconditioner assembly (with
// the Algorithm-2 Conrad–Wallach fast path when it applies), the
// CSR/DIA/SELL operator choice, and PCG itself.  Prepared splits the pipeline from the
// solve so one factorization serves many right-hand sides.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/pcg.hpp"
#include "core/planner.hpp"
#include "core/preconditioner.hpp"
#include "la/dia_matrix.hpp"
#include "la/linear_operator.hpp"
#include "par/execution.hpp"
#include "solver/config.hpp"
#include "split/splitting.hpp"
#include "util/span.hpp"

namespace mstep::solver {

/// How the multicolour stage reshaped the system (all zero when the solve
/// ran in the caller's ordering).
struct ColoringStats {
  bool used = false;
  int num_classes = 0;
  index_t min_class_size = 0;
  index_t max_class_size = 0;
};

/// Everything a solve produced: the PCG result plus the pipeline choices
/// that explain it.
struct SolveReport {
  core::PcgResult result;      // solution in the solve ordering
  Vec solution;                // solution in the caller's ordering
  std::vector<double> alphas;  // chosen coefficients; empty for m = 0
  core::SpectrumInterval interval{};  // interval the strategy optimized over
  ColoringStats coloring;
  std::string preconditioner_name;
  int steps = 0;
  /// The storage format the outer products actually ran on — kCsr, kDia,
  /// or kSell, never kAuto (prepare resolves `format=auto` through the
  /// la::DiaMatrix / la::SellMatrix profitability probes on the iteration
  /// matrix).
  MatrixFormat format_selected = MatrixFormat::kCsr;
  /// The layout the multicolour sweep's coupling segments ran on: "dia"
  /// when the operator is DIA, "sell" when it is CSR or SELL, and "none"
  /// when no multicolour sweep ran (natural ordering, a generic
  /// splitting, or m = 0).
  std::string sweep_format = "none";
  /// Kernel threads this solve ran on: the pool width for a lone lane with
  /// kernel threading on and n >= par::kSerialCutoff, else 1.
  int threads = 1;

  [[nodiscard]] bool converged() const { return result.converged; }
  [[nodiscard]] int iterations() const { return result.iterations; }

  /// Eq. (4.1) hook: predicted seconds under a measured cost decomposition.
  [[nodiscard]] double predicted_seconds(
      const core::StepCostModel& costs) const {
    return costs.predict(steps, result.iterations);
  }
};

namespace detail {

/// The config's format with kAuto resolved on `matrix` (the matrix the
/// outer products iterate on): kDia when the diagonal probe pays off, else
/// kSell when the sliced-ELL occupancy probe does, else kCsr.
[[nodiscard]] MatrixFormat resolve_format(MatrixFormat requested,
                                          const la::CsrMatrix& matrix);

/// The sweep-segment layout that goes with a resolved operator format:
/// DIA segments under a DIA operator, SELL segments otherwise.
[[nodiscard]] la::SegmentLayout sweep_layout(MatrixFormat resolved);

/// The one preconditioner-selection policy, shared by Solver::prepare and
/// every solve lane (a lone lane may thread through `exec`, pool lanes pass
/// nullptr): the Algorithm-2 Conrad–Wallach sweep for multicolor
/// SSOR(omega = 1), the generic m-step engine for every other splitting,
/// the identity for m = 0 — one choice, so every lane's operator is equal.
struct PrecondChoice {
  std::unique_ptr<split::Splitting> splitting;  // set on the generic path
  std::unique_ptr<core::Preconditioner> precond;
};

/// True when `config` on a multicolour system takes the Algorithm-2 sweep.
[[nodiscard]] bool uses_multicolor_sweep(const SolverConfig& config,
                                         const color::ColoredSystem* cs);

/// `sweep` is the shared plan the Algorithm-2 sweep runs over; when null,
/// the sweep builds one in the layout resolve_format(config.format,
/// matrix) selects — exactly the layout prepare() picks.
[[nodiscard]] PrecondChoice make_preconditioner(
    const SolverConfig& config, const color::ColoredSystem* cs,
    const la::CsrMatrix& matrix, const std::vector<double>& alphas,
    core::KernelLog* log, const par::Execution* exec,
    std::shared_ptr<const core::SweepPlan> sweep = nullptr);

}  // namespace detail

/// Everything a batched solve produced: one SolveReport per right-hand
/// side (input order) plus a per-RHS error channel — one bad right-hand
/// side never poisons the rest of the batch — and aggregate throughput
/// numbers.
struct BatchReport {
  std::vector<SolveReport> reports;        // reports[i] belongs to bs[i]
  std::vector<std::exception_ptr> errors;  // errors[i] set iff RHS i threw
  int concurrency = 0;                     // worker lanes actually used
  double wall_seconds = 0.0;               // whole-batch wall time

  [[nodiscard]] std::size_t size() const { return reports.size(); }
  /// True when right-hand side i solved without throwing.
  [[nodiscard]] bool ok(std::size_t i) const { return !errors[i]; }
  [[nodiscard]] std::size_t num_failed() const;
  /// Every right-hand side solved AND converged.
  [[nodiscard]] bool all_converged() const;
  [[nodiscard]] long long total_iterations() const;
  /// Aggregate throughput: successfully solved RHSs per wall second.
  [[nodiscard]] double solves_per_second() const;
  /// Rethrow the first per-RHS exception; no-op when the batch is clean.
  /// The reports of the other right-hand sides stay valid either way.
  void rethrow_first_error() const;
};

class Prepared;

class Solver {
 public:
  /// Validates the config (throws std::invalid_argument on bad fields).
  static Solver from_config(SolverConfig config);
  /// Convenience: from_config(SolverConfig::from_string(text)).
  static Solver from_string(const std::string& text);

  [[nodiscard]] const SolverConfig& config() const { return config_; }

  /// The execution engine backing this solver's kernels and batch lanes,
  /// shared by every Prepared it creates so one thread pool serves all
  /// steps and right-hand sides.  The pool is sized for the wider of the
  /// two demands (`threads`, `batch`); nullptr when neither asks for
  /// parallelism (threads in {0, 1} and batch in {0, 1}).
  [[nodiscard]] const par::Execution* execution() const {
    return exec_.get();
  }

  /// Instantiate the pipeline on a concrete (square, SPD) matrix.  With a
  /// multicolour ordering and no caller classes, the equations are
  /// coloured greedily from the matrix graph.  `k` must outlive the
  /// returned object; `log` (optional) receives the kernel stream of
  /// every later solve that runs as a lone lane (see Prepared::solveMany).
  [[nodiscard]] Prepared prepare(const la::CsrMatrix& k,
                                 core::KernelLog* log = nullptr) const;
  [[nodiscard]] Prepared prepare(const la::CsrMatrix& k,
                                 const color::ColorClasses& classes,
                                 core::KernelLog* log = nullptr) const;

  /// One-call form: prepare + solve.  `f` and `u0` are in the caller's
  /// ordering, as is the returned report's `solution`.
  [[nodiscard]] SolveReport solve(const la::CsrMatrix& k, const Vec& f,
                                  core::KernelLog* log = nullptr,
                                  const Vec& u0 = {}) const;
  [[nodiscard]] SolveReport solve(const la::CsrMatrix& k, const Vec& f,
                                  const color::ColorClasses& classes,
                                  core::KernelLog* log = nullptr,
                                  const Vec& u0 = {}) const;

  /// One-call batched form: prepare once, then solve every right-hand
  /// side concurrently through Prepared::solveMany.
  [[nodiscard]] BatchReport solveMany(const la::CsrMatrix& k,
                                      util::Span<const Vec> bs) const;
  [[nodiscard]] BatchReport solveMany(
      const la::CsrMatrix& k, util::Span<const Vec> bs,
      const color::ColorClasses& classes) const;

 private:
  explicit Solver(SolverConfig config);

  /// Both prepare() overloads: null `classes` under a multicolour ordering
  /// means colour greedily, inside the traced "coloring" phase.
  [[nodiscard]] Prepared prepare_impl(const la::CsrMatrix& k,
                                      const color::ColorClasses* classes,
                                      core::KernelLog* log) const;

  SolverConfig config_;
  std::shared_ptr<par::Execution> exec_;  // set when execution is parallel
};

/// An instantiated pipeline bound to one matrix: the coloured system, the
/// splitting, the alphas, the preconditioner, and the operator view.
/// Reusable across right-hand sides.
class Prepared {
 public:
  /// Solve for one right-hand side (caller's ordering, as is `u0`): a
  /// one-lane solveMany with a warm start that rethrows the lane's error.
  [[nodiscard]] SolveReport solve(const Vec& f, const Vec& u0 = {}) const;

  /// Solve many independent right-hand sides, reusing this pipeline's one
  /// coloring/splitting/alpha setup.  Each lane owns a scratch arena (its
  /// own preconditioner instance and PCG workspace) and grabs the next
  /// unsolved RHS.  A lone lane runs on the calling thread with
  /// kernel_exec() and the prepare-time kernel log; several lanes run on
  /// the solver's pool with serial kernels and no kernel log (it is
  /// single-stream).  Every per-RHS result is BITWISE identical to the
  /// serial solve(bs[i]).  A throwing right-hand side records its
  /// exception in the report's error channel; the remaining RHSs still
  /// complete.  Both solve forms are safe for concurrent callers.
  [[nodiscard]] BatchReport solveMany(util::Span<const Vec> bs) const {
    return run_lanes(bs, 0, {});
  }

  /// The matrix PCG iterates on (colour-permuted when multicolour).
  [[nodiscard]] const la::CsrMatrix& matrix() const { return *matrix_; }
  [[nodiscard]] const core::Preconditioner& preconditioner() const {
    return *precond_;
  }
  [[nodiscard]] const std::vector<double>& alphas() const { return alphas_; }
  [[nodiscard]] core::SpectrumInterval interval() const { return interval_; }
  [[nodiscard]] const ColoringStats& coloring() const { return stats_; }
  [[nodiscard]] const SolverConfig& config() const { return config_; }

  /// The operator layout this pipeline runs on: the config's format, with
  /// kAuto resolved at prepare time (on the matrix the outer products
  /// iterate on, i.e. after any colour permutation) — kDia when the
  /// diagonal probe pays off, else kSell when the sliced-ELL occupancy
  /// probe does, else kCsr.
  [[nodiscard]] MatrixFormat resolved_format() const {
    return resolved_format_;
  }

  /// The DIA operator's diagonals (null unless resolved_format() is
  /// kDia); a DIA sweep plan reads the same object.
  [[nodiscard]] const la::DiaMatrix* dia_matrix() const { return dia_.get(); }

  /// The multicolour sweep's shared plan (row splits, census, segments),
  /// or null when no multicolour sweep runs.  Built once in prepare();
  /// solve(), every solveMany lane and every daemon cache hit read it.
  [[nodiscard]] const std::shared_ptr<const core::SweepPlan>& sweep_plan()
      const {
    return sweep_;
  }
  /// SolveReport::sweep_format of every solve on this pipeline.
  [[nodiscard]] const char* sweep_format() const {
    return sweep_ ? la::to_string(sweep_->layout()) : "none";
  }

  /// Caller ordering <-> solve ordering (identity when natural).
  [[nodiscard]] Vec permute(const Vec& x) const;
  [[nodiscard]] Vec unpermute(const Vec& x) const;

 private:
  friend class Solver;
  Prepared() = default;

  /// The execution policy for a lone lane's kernels: set only when the
  /// config asked for kernel threading (threads >= 2), NOT when the pool
  /// exists merely to serve batch lanes — `threads=0;batch=8` keeps every
  /// solve on the serial kernel path.
  [[nodiscard]] const par::Execution* kernel_exec() const {
    return config_.execution.resolve() > 0 ? exec_.get() : nullptr;
  }

  /// The one solve body; `u0` is every right-hand side's initial guess.
  /// `max_lanes` > 0 caps the lanes (Prepared::solve asks for one); 0 is
  /// the config's `batch` rule.
  [[nodiscard]] BatchReport run_lanes(util::Span<const Vec> bs,
                                      int max_lanes, const Vec& u0) const;

  SolverConfig config_;
  // cs_ and the format-specific matrices live on the heap so every
  // internal pointer (matrix_, the operator view, the preconditioner's
  // system reference) stays valid when a Prepared is moved.
  std::unique_ptr<color::ColoredSystem> cs_;  // set when multicolour
  const la::CsrMatrix* matrix_ = nullptr;     // cs_->matrix or the caller's k
  std::shared_ptr<const la::DiaMatrix> dia_;  // set when format == dia
  std::unique_ptr<la::SellMatrix> sell_;      // set when format == sell
  std::unique_ptr<la::LinearOperator> op_;
  std::unique_ptr<split::Splitting> splitting_;
  std::shared_ptr<const core::SweepPlan> sweep_;  // set on the sweep path
  std::unique_ptr<core::Preconditioner> precond_;  // no solve runs on it
  // Shared with the creating Solver (and its other Prepared instances):
  // one pool, warm across steps and right-hand sides.
  std::shared_ptr<par::Execution> exec_;
  std::vector<double> alphas_;
  core::SpectrumInterval interval_{};
  ColoringStats stats_;
  MatrixFormat resolved_format_ = MatrixFormat::kCsr;
  core::KernelLog* log_ = nullptr;
};

}  // namespace mstep::solver
