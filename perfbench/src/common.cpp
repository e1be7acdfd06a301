#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unistd.h>

#include "color/greedy.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/pcg.hpp"
#include "la/vector.hpp"
#include "par/colored_sweep.hpp"
#include "par/execution.hpp"
#include "par/thread_pool.hpp"
#include "solver/registry.hpp"
#include "triad.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mstep;

bool Args::is_done(const std::string& stage) const {
  return std::find(done.begin(), done.end(), stage) != done.end();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // SplitMix64 finaliser over (seed, tag): distinct tags give unrelated
  // streams for one workload seed.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Vec random_rhs(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return rng.uniform_vector(n, -1.0, 1.0);
}

Watchdog::Watchdog() : thread_([this] { watch(); }) {}

Watchdog::~Watchdog() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void Watchdog::arm(double seconds) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    deadline_ = now_s() + seconds;
  }
  wake_.notify_all();
}

void Watchdog::disarm() {
  const std::lock_guard<std::mutex> lock(mutex_);
  deadline_ = 0.0;
}

void Watchdog::watch() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (deadline_ > 0.0 && now_s() > deadline_) {
      Line("timeout").emit();
      std::_Exit(4);
    }
    wake_.wait_for(lock, std::chrono::milliseconds(100));
  }
}

// ---- verification ----------------------------------------------------------

double rel_residual(const la::CsrMatrix& k, const Vec& b, const Vec& u) {
  Vec r = b;
  k.multiply_sub(u, r);
  const double nb = la::nrm2(b);
  return nb > 0.0 ? la::nrm2(r) / nb : la::nrm2(r);
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Outcome verify(const la::CsrMatrix& k, const Vec& b, bool converged,
               int iterations, const Vec& u, const Reference& ref,
               const Limits& limits) {
  Outcome out;
  if (u.size() != b.size()) {
    out.why = "solution has the wrong length";
    return out;
  }
  out.rel_residual = rel_residual(k, b, u);
  if (!converged) {
    out.why = "not converged";
  } else if (iterations < limits.min_iterations) {
    out.why = "iterations " + std::to_string(iterations) +
              " below the floor " + std::to_string(limits.min_iterations);
  } else if (iterations != ref.iterations) {
    out.why = "iterations " + std::to_string(iterations) + " vs reference " +
              std::to_string(ref.iterations);
  } else if (!same_bits(u, ref.solution)) {
    out.why = "solution bits differ from the reference";
  } else if (!(out.rel_residual <= limits.max_rel_residual)) {
    out.why = "relative residual above the bound";
  } else {
    out.ok = true;
  }
  return out;
}

bool save_references(const std::string& path,
                     const std::vector<Reference>& refs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  bool ok = true;
  for (const Reference& r : refs) {
    const std::int64_t head[2] = {r.iterations,
                                  static_cast<std::int64_t>(r.solution.size())};
    ok = ok && std::fwrite(head, sizeof head, 1, f) == 1 &&
         std::fwrite(r.solution.data(), sizeof(double), r.solution.size(), f) ==
             r.solution.size();
  }
  return std::fclose(f) == 0 && ok;
}

bool load_references(const std::string& path, std::size_t count, std::size_t n,
                     std::vector<Reference>* refs) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::vector<Reference> out(count);
  bool ok = true;
  for (Reference& r : out) {
    std::int64_t head[2] = {0, 0};
    ok = ok && std::fread(head, sizeof head, 1, f) == 1 &&
         head[1] == static_cast<std::int64_t>(n);
    if (!ok) break;
    r.iterations = static_cast<int>(head[0]);
    r.solution.resize(n);
    ok = std::fread(r.solution.data(), sizeof(double), n, f) == n;
  }
  std::fclose(f);
  if (ok) *refs = std::move(out);
  return ok;
}

std::vector<Reference> serial_references(const la::CsrMatrix& k,
                                         const color::ColorClasses& classes,
                                         const std::vector<Vec>& bs, int threads,
                                         std::vector<double>* seconds) {
  solver::SolverConfig config = solver::SolverConfig::from_string(kBaseConfig);
  const solver::Solver serial = solver::Solver::from_config(config);
  std::vector<Reference> refs(bs.size());
  seconds->assign(bs.size(), 0.0);
  const int width = std::max(1, std::min<int>(threads, bs.size()));
  auto run = [&](int t) {
    const solver::Prepared p = classes.classes.empty()
                                   ? serial.prepare(k)
                                   : serial.prepare(k, classes);
    for (std::size_t i = t; i < bs.size(); i += width) {
      const double t0 = now_s();
      solver::SolveReport rep = p.solve(bs[i]);
      (*seconds)[i] = now_s() - t0;
      refs[i].iterations = rep.converged() ? rep.iterations() : -1;
      refs[i].solution = std::move(rep.solution);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < width; ++t) pool.emplace_back(run, t);
  run(0);
  for (std::thread& th : pool) th.join();
  return refs;
}

// ---- traced-run probes -----------------------------------------------------

double SetupStages::inside_prepare(bool greedy) const {
  return (greedy ? classes_s : 0.0) + permute_s + params_s + precond_build_s +
         format_probe_s + format_build_s;
}

SetupStages time_setup_stages(
    const solver::Solver& solver, const la::CsrMatrix& k,
    const std::function<color::ColorClasses()>& closed_form, int reps,
    SpanLog& log) {
  const solver::SolverConfig& config = solver.config();
  const par::Execution* exec =
      config.execution.resolve() > 0 ? solver.execution() : nullptr;
  std::vector<double> classes_s, permute_s, params_s, build_s, probe_s,
      format_s, prepare_s;
  SetupStages out;
  for (int rep = 0; rep < reps; ++rep) {
    const Scoped setup(log, "setup");
    double t = now_s();
    auto lap = [&t](std::vector<double>& into) {
      const double now = now_s();
      into.push_back(now - t);
      t = now;
    };
    log.open("color.classes");
    const color::ColorClasses classes =
        closed_form ? closed_form() : color::greedy_classes_from_matrix(k);
    log.close();
    lap(classes_s);
    log.open("color.permute");
    const color::ColoredSystem cs = color::make_colored_system(k, classes);
    log.close();
    lap(permute_s);
    log.open("core.params");
    const auto& entry =
        solver::SplittingRegistry::instance().at(config.splitting);
    const core::SpectrumInterval interval =
        config.interval ? *config.interval
                        : entry.default_interval(cs.matrix,
                                                 config.splitting_options);
    const std::vector<double> alphas =
        solver::ParamStrategyRegistry::instance().alphas(
            config.params, config.steps, interval);
    log.close();
    lap(params_s);
    log.open("core.precond_build");
    const solver::detail::PrecondChoice choice =
        solver::detail::make_preconditioner(config, &cs, cs.matrix, alphas,
                                            nullptr, exec);
    log.close();
    lap(build_s);
    log.open("la.format_probe");
    solver::MatrixFormat format = config.format;
    if (format == solver::MatrixFormat::kAuto) {
      if (la::DiaMatrix::profitable(cs.matrix)) {
        format = solver::MatrixFormat::kDia;
      } else if (la::SellMatrix::profitable(cs.matrix)) {
        format = solver::MatrixFormat::kSell;
      } else {
        format = solver::MatrixFormat::kCsr;
      }
    }
    log.close();
    lap(probe_s);
    log.open("la.format_build");
    const OwnedOperator op = build_operator(cs.matrix, format);
    log.close();
    lap(format_s);
    out.num_classes = cs.num_classes();

    log.open("solver.prepare");
    {
      const solver::Prepared p =
          closed_form ? solver.prepare(k, classes) : solver.prepare(k);
    }
    log.close();
    lap(prepare_s);
  }
  out.classes_s = median(classes_s);
  out.permute_s = median(permute_s);
  out.params_s = median(params_s);
  out.precond_build_s = median(build_s);
  out.format_probe_s = median(probe_s);
  out.format_build_s = median(format_s);
  out.prepare_s = median(prepare_s);
  return out;
}

OwnedOperator traced_operator(const solver::Prepared& p) {
  return build_operator(p.matrix(), p.resolved_format());
}

TracedSolve traced_solve(const solver::Prepared& p,
                         const core::Preconditioner& precond,
                         const OwnedOperator& op, const par::Execution* exec,
                         const Vec& f, SpanLog& log,
                         core::PcgWorkspace* workspace) {
  const std::size_t first = log.spans().size();
  const TimedPreconditioner timed_precond(precond, log);
  const TimedOperator timed_op(*op.op, log);
  TracedSolve out;
  {
    const Scoped root(log, "solve");
    const Vec fp = p.permute(f);
    core::PcgResult result;
    {
      const Scoped pcg(log, "core.pcg");
      result = core::pcg_solve(timed_op, fp, timed_precond,
                               p.config().pcg_options(), nullptr, {}, exec,
                               workspace);
    }
    out.solution = p.unpermute(result.solution);
    out.iterations = result.iterations;
    out.converged = result.converged;
  }
  const std::vector<Span> mine(log.spans().begin() + first, log.spans().end());
  const std::map<std::string, double> self = self_times(mine);
  auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  out.sweep_s = self_of("core.sweep");
  out.spmv_s = self_of("la.spmv");
  out.pcg_self_s = self_of("core.pcg");
  out.pcg_s = out.pcg_self_s + out.sweep_s + out.spmv_s;
  out.wall_s = out.pcg_s + self_of("solve");
  out.sweep_calls = span_count(mine, "core.sweep");
  out.spmv_calls = span_count(mine, "la.spmv");
  return out;
}

double dispatch_us(par::ThreadPool& pool, int width) {
  const std::function<void(index_t, index_t)> body = [](index_t, index_t) {};
  for (int i = 0; i < 50; ++i) pool.for_range(0, width, body);
  std::vector<double> per_call;
  constexpr int kCalls = 400;
  for (int batch = 0; batch < 5; ++batch) {
    const double t0 = now_s();
    for (int i = 0; i < kCalls; ++i) pool.for_range(0, width, body);
    per_call.push_back((now_s() - t0) / kCalls * 1e6);
  }
  return median(per_call);
}

double sweep_speedup(const color::ColoredSystem& cs,
                     const std::vector<double>& alphas, par::ThreadPool& pool,
                     const Vec& r, int reps) {
  const core::MulticolorMStepSsor serial(cs, alphas);
  const par::ParallelMulticolorMStepSsor threaded(cs, alphas, pool);
  Vec z;
  auto time_apply = [&](const core::Preconditioner& m) {
    std::vector<double> s;
    m.apply(r, z);  // warm
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_s();
      m.apply(r, z);
      s.push_back(now_s() - t0);
    }
    return median(s);
  };
  const double serial_s = time_apply(serial);
  return serial_s / time_apply(threaded);
}

std::pair<double, double> emit_triad(int threads) {
  const std::size_t llc = llc_bytes();
  // At least four times the last-level cache (and never below 96 MiB
  // when the cache size is unknown), rounded to whole MiB per array.
  const std::size_t total =
      std::max<std::size_t>(4 * llc, std::size_t{96} << 20);
  const std::size_t elems = ((total / 3 + (1u << 20) - 1) >> 20 << 20) / 8;
  Triad triad(elems);
  const double one = triad.gbs(1, 5);
  const double many = triad.gbs(threads, 5);
  emit_metric("la.triad_gbs_1t", one);
  emit_metric("la.triad_gbs_nt", many);
  emit_metric("bench.llc_mib", static_cast<double>(llc) / (1 << 20));
  emit_metric("bench.triad_mib",
              static_cast<double>(triad.total_bytes()) / (1 << 20));
  return {one, many};
}

void flush_trace(const Args& args, const std::vector<const SpanLog*>& logs) {
  std::vector<std::vector<Span>> tracks;
  for (const SpanLog* log : logs) {
    if (!log->spans().empty()) tracks.push_back(log->spans());
  }
  const std::string path =
      args.state_dir + "/trace-" + std::to_string(getpid()) + ".json";
  if (write_chrome_trace(path, tracks)) {
    Line("trace_file").str("path", path).emit();
  }
}

void emit_no_serve_layer() {
  for (const char* name :
       {"serve.hit_rate", "serve.hit_latency_p50_ms", "serve.server_solve_ms",
        "serve.overhead_ms", "serve.busy_retries", "serve.miss_latency_p50_ms",
        "serve.server_setup_ms", "serve.request_mb"}) {
    emit_metric(name, 0.0);
  }
}

}  // namespace perfbench
