// Declarative solve configuration for the mstep::solver facade.
//
// Every knob the paper studies — splitting (and its omega), step count m,
// alpha parametrization, equation ordering, stopping rule — is one field
// here, and the whole config round-trips through a compact string form:
//
//   splitting=ssor:omega=1.2;m=4;params=lsq;ordering=multicolor;
//   format=csr;stop=delta_inf;tol=1e-06;maxit=20000
//
// so an experiment is reproducible from one line of a log, and a CLI
// driver exposes the full design space as --splitting/--m/--params/
// --threads/...
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/pcg.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"

namespace mstep::solver {

/// Equation ordering applied before the solve.
enum class Ordering {
  kNatural,     // solve in the caller's ordering
  kMulticolor,  // colour-permute first (Section 3)
};

/// Storage format the outer CG matrix-vector products run on.
///
/// `kAuto` defers the choice to prepare time: the solver probes the
/// actual iteration matrix (after any multicolour permutation) with
/// la::DiaMatrix::profitable (banded layout first) and, failing that,
/// la::SellMatrix::profitable (sliced-ELL occupancy), routing through
/// kCsr when neither structured layout pays off.  The resolved choice is
/// reported in SolveReport::format_selected (and the driver's JSON
/// `format_selected` field), so a log line always names the layout that
/// actually ran.
enum class MatrixFormat {
  kCsr,   // general sparsity
  kDia,   // by diagonals — the CYBER 203/205 layout (Section 3.1)
  kSell,  // SELL-C-sigma sliced layout for the SIMD SpMV kernel
  kAuto,  // probe at prepare time; resolves to kDia, kSell, or kCsr
};

/// Parse "csr" | "dia" | "sell" | "auto"; throws std::invalid_argument
/// otherwise.
/// (The inverse of to_string(MatrixFormat), for drivers that take a
/// --format flag without going through SolverConfig::from_cli.)
[[nodiscard]] MatrixFormat matrix_format_from_string(const std::string& text);

/// Execution policy for the hot kernels (multicolor sweeps, SpMV, vector
/// ops).  threads = 0 is the serial default — the solve runs entirely on
/// the calling thread through the unthreaded code path.  threads = n >= 1
/// runs on a pool of n threads (including the caller) with deterministic
/// blocked reductions: the solve is BITWISE identical to the serial one.
struct ExecutionConfig {
  int threads = 0;

  [[nodiscard]] bool parallel() const { return threads >= 1; }

  /// Pool-construction normal form: how many pool threads this config asks
  /// for, with 0 AND 1 both collapsed to 0 — one thread is the caller, so
  /// "one thread" and "serial" are the same policy and neither constructs
  /// a pool.  Every site that sizes a ThreadPool/Execution from a config
  /// goes through here, so no round-tripped config can ever request a
  /// 0-thread pool (ThreadPool itself throws on < 1 as the backstop).
  [[nodiscard]] int resolve() const { return threads >= 2 ? threads : 0; }

  friend bool operator==(const ExecutionConfig& a, const ExecutionConfig& b) {
    return a.threads == b.threads;
  }
  friend bool operator!=(const ExecutionConfig& a, const ExecutionConfig& b) {
    return !(a == b);
  }
};

/// Per-call options for Prepared::solveMany / Solver::solveMany.
struct BatchConfig {
  /// Maximum right-hand sides in flight at once.  0 defers to the solver
  /// config's `batch` default, which itself defers to the width of the
  /// solver's thread pool capped at the hardware width; 1 solves
  /// sequentially on the calling thread.  The pool is sized at Solver
  /// construction from max(threads, batch), so a per-call request can
  /// never EXCEED that width — asking for 8 lanes from a solver built
  /// with threads=0;batch=0 (no pool) runs sequentially; put the intended
  /// width in the config's `batch` (or `threads`) to provision it.
  int concurrency = 0;
};

/// The whole design space of one solve, declaratively.  Every field
/// round-trips through to_string()/from_string() and the --flag set of
/// from_cli(), so a config is reproducible from one log line.
struct SolverConfig {
  /// SplittingRegistry key (jacobi | ssor | richardson | user-registered).
  std::string splitting = "ssor";
  SplitOptions splitting_options;        // e.g. {"omega", 1.2}
  int steps = 4;                         // m; 0 = plain CG
  std::string params = "lsq";            // parameter strategy key
  Ordering ordering = Ordering::kMulticolor;
  /// Operator storage for the outer CG products (string form
  /// "format=csr|dia|sell|auto", CLI --format).  kAuto defers to the
  /// bandedness/occupancy probes at prepare time; see MatrixFormat.
  MatrixFormat format = MatrixFormat::kCsr;
  core::StopRule stop_rule = core::StopRule::kDeltaInf;
  double tolerance = 1e-6;               // on the stop_rule quantity
  int max_iterations = 20000;
  bool record_history = false;           // keep per-iteration history
  /// Serial by default; serializes as "threads=N" only when parallel, so
  /// serial config strings are unchanged from the unthreaded library.
  ExecutionConfig execution;
  /// Default solveMany concurrency (string form ";batch=N", CLI --batch=N).
  /// 0 = auto (one lane per pool thread); N >= 2 also guarantees the
  /// solver's pool is at least N wide, so `threads=0;batch=8` batches
  /// eight solves concurrently while each individual solve stays on the
  /// serial kernel path.
  int batch = 0;
  /// Spectrum interval for the parameter strategy; the splitting's default
  /// (e.g. [0, 1] for SSOR) when unset.
  std::optional<core::SpectrumInterval> interval;

  /// Throws std::invalid_argument if any field is out of range or names an
  /// unregistered splitting/strategy (SSOR omega must lie in (0, 2)).
  void validate() const;

  /// Serialize; from_string(to_string()) reproduces every field.
  [[nodiscard]] std::string to_string() const;
  static SolverConfig from_string(const std::string& text);

  /// Read the config flags out of a parsed command line; flags that are
  /// absent keep `defaults`.
  static SolverConfig from_cli(const util::Cli& cli,
                               const SolverConfig& defaults);
  static SolverConfig from_cli(const util::Cli& cli);
  /// Flag names from_cli consumes — append to a driver's allowed list.
  static std::vector<std::string> cli_flags();

  [[nodiscard]] core::PcgOptions pcg_options() const;

  friend bool operator==(const SolverConfig& a, const SolverConfig& b);
  friend bool operator!=(const SolverConfig& a, const SolverConfig& b) {
    return !(a == b);
  }
};

[[nodiscard]] std::string to_string(Ordering o);
[[nodiscard]] std::string to_string(MatrixFormat f);
[[nodiscard]] std::string to_string(core::StopRule s);

}  // namespace mstep::solver
