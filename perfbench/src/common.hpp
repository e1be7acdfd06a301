// Shared pieces of the benchmark workloads: arguments, inputs, the
// per-operation verification, and the traced-run layer probes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "la/csr_matrix.hpp"
#include "layers.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"

namespace perfbench {

using mstep::index_t;
using mstep::Vec;

/// The driver defaults every workload solves with (format resolved by
/// the probes at prepare time).
inline constexpr const char* kBaseConfig =
    "splitting=ssor;m=4;params=lsq;ordering=multicolor;format=auto";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measurement time left for this worker
  bool trace = false;
  std::string state_dir = ".";  // scratch for references and traces
  std::vector<std::string> done;  // stages a crashed predecessor finished

  [[nodiscard]] bool is_done(const std::string& stage) const;
};

/// A stable per-purpose seed derived from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Uniform [-1, 1) right-hand side of length n.
[[nodiscard]] Vec random_rhs(std::size_t n, std::uint64_t seed);

/// Ends the worker when one operation runs past its limit: the library's
/// pool race can make a threaded solve run thousands of iterations or
/// never return.  The worker exits with code 4 after a "timeout" record;
/// run.py counts the operation in flight as failed and starts a new
/// worker.  Correct operations finish far inside the limit.
class Watchdog {
 public:
  Watchdog();
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Limit the operation that starts now to `seconds`.
  void arm(double seconds);
  void disarm();

 private:
  void watch();

  std::mutex mutex_;
  std::condition_variable wake_;
  double deadline_ = 0.0;  // 0: disarmed
  bool stop_ = false;
  std::thread thread_;  // last: it uses the members above
};

// ---- verification ----------------------------------------------------------

/// What a correct solve must reproduce: the reference's solution bits and
/// iteration count.
struct Reference {
  Vec solution;
  int iterations = 0;
};

/// Limits every solve of a workload is held to.
struct Limits {
  double max_rel_residual = 1e-4;
  int min_iterations = 1;  // the iteration floor
};

struct Outcome {
  bool ok = false;
  std::string why;  // first failed check; empty when ok
  double rel_residual = 0.0;
};

/// ||b - K u||_2 / ||b||_2 in the caller's ordering.
[[nodiscard]] double rel_residual(const mstep::la::CsrMatrix& k, const Vec& b,
                                  const Vec& u);

/// Bitwise equality (a one-ulp difference or a sign of zero counts).
[[nodiscard]] bool same_bits(const Vec& a, const Vec& b);

/// Every check one solve must pass: converged, at or above the iteration
/// floor, the reference's iteration count and solution bits, and a
/// relative residual within the bound.
[[nodiscard]] Outcome verify(const mstep::la::CsrMatrix& k, const Vec& b,
                             bool converged, int iterations, const Vec& u,
                             const Reference& ref, const Limits& limits);

/// References persisted across a worker restart, so a crash does not
/// repeat the serial reference solves.  load() returns false when absent
/// or of the wrong shape.
bool save_references(const std::string& path, const std::vector<Reference>& refs);
bool load_references(const std::string& path, std::size_t count, std::size_t n,
                     std::vector<Reference>* refs);

/// Serial reference solves of every right-hand side, `threads` at a time,
/// each thread on its own serial Prepared (a Prepared's sweep scratch is
/// not shared).  Returns the per-RHS solve seconds through `seconds`.
std::vector<Reference> serial_references(const mstep::la::CsrMatrix& k,
                                         const mstep::color::ColorClasses& classes,
                                         const std::vector<Vec>& bs, int threads,
                                         std::vector<double>* seconds);

// ---- traced-run probes -----------------------------------------------------

/// Median seconds of each setup stage, timed by calling the public
/// function behind it, plus the whole Solver::prepare wall.
struct SetupStages {
  double classes_s = 0.0;  // colouring (greedy, or the closed form)
  double permute_s = 0.0;
  double params_s = 0.0;
  double precond_build_s = 0.0;
  double format_probe_s = 0.0;
  double format_build_s = 0.0;
  double prepare_s = 0.0;
  int num_classes = 0;
  /// Stage seconds that run inside Solver::prepare (closed-form classes
  /// are computed by the generator, not by prepare).
  [[nodiscard]] double inside_prepare(bool greedy) const;
};

/// `closed_form` supplies the classes when the problem has them (timed
/// as the colouring stage); empty means greedy colouring of `k`.
[[nodiscard]] SetupStages time_setup_stages(
    const mstep::solver::Solver& solver, const mstep::la::CsrMatrix& k,
    const std::function<mstep::color::ColorClasses()>& closed_form, int reps,
    SpanLog& log);

/// One solve through core::pcg_solve with the timing decorators around
/// the prepared preconditioner and a rebuilt operator.
struct TracedSolve {
  Vec solution;  // caller ordering
  int iterations = 0;
  bool converged = false;
  double wall_s = 0.0;   // the whole traced solve (root span)
  double pcg_s = 0.0;    // core::pcg_solve call
  double sweep_s = 0.0;  // self time of the sweep spans
  double spmv_s = 0.0;
  double pcg_self_s = 0.0;  // pcg time outside sweep and SpMV
  long long sweep_calls = 0;
  long long spmv_calls = 0;
};

/// The operator a traced solve of `p` runs on: rebuilt once from
/// Prepared::matrix() in Prepared::resolved_format().
[[nodiscard]] OwnedOperator traced_operator(const mstep::solver::Prepared& p);

/// `exec` is what Prepared::solve would pass (the solver's execution when
/// the config threads the kernels, else null); `precond` is the
/// preconditioner to wrap (Prepared::preconditioner() or a lane's).
[[nodiscard]] TracedSolve traced_solve(const mstep::solver::Prepared& p,
                                       const mstep::core::Preconditioner& precond,
                                       const OwnedOperator& op,
                                       const mstep::par::Execution* exec,
                                       const Vec& f, SpanLog& log,
                                       mstep::core::PcgWorkspace* workspace = nullptr);

/// Median microseconds of one empty ThreadPool::for_range over `width`
/// indices.
[[nodiscard]] double dispatch_us(mstep::par::ThreadPool& pool, int width);

/// Serial multicolour sweep seconds over threaded sweep seconds on the
/// same residual (median of `reps` applies each).
[[nodiscard]] double sweep_speedup(const mstep::color::ColoredSystem& cs,
                                   const std::vector<double>& alphas,
                                   mstep::par::ThreadPool& pool, const Vec& r,
                                   int reps);

/// Emit the bandwidth reference: triad at 1 and `threads` threads over
/// arrays totalling at least 4x the last-level cache, with the cache
/// size.  Returns {1-thread GB/s, n-thread GB/s}.
std::pair<double, double> emit_triad(int threads);

/// Write this worker's spans so far to <state-dir>/trace-<pid>.json and
/// announce the file; run.py merges the files of every worker of a run.
void flush_trace(const Args& args, const std::vector<const SpanLog*>& logs);

/// Emit every serve.* metric as 0: the layer is not on this workload's
/// path.
void emit_no_serve_layer();

}  // namespace perfbench
