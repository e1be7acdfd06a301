// served_mixed: an in-process serve::Server on a Unix socket under four
// closed-loop clients.  About three requests in four hit one of a few
// resident pipelines; the rest upload a never-seen matrix inline.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "color/greedy.hpp"
#include "common.hpp"
#include "par/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mstep;

namespace {

constexpr int kClients = 4;
constexpr int kMissEvery = 4;   // request k of client c misses when
                                // (k + c) % kMissEvery == 0
constexpr int kPoolRhs = 32;    // seeded right-hand sides per resident pipeline
constexpr int kMissN = 20000;   // equations of a never-seen matrix
constexpr int kMissBand = 8;

// Floors sit well below the measured counts and above the 3-5 iterations
// of an eigenvector right-hand side where the system allows it; the
// diagonally dominant random matrices converge in about ten.
const Limits kPlateLimits{1e-3, 30};
const Limits kRandLimits{1e-3, 4};

/// FNV-1a over the solution's bytes: the served bits are compared with
/// the reference through this 64-bit digest, so replies need not be kept.
std::uint64_t digest(const Vec& v) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

struct Resident {
  std::string spec;
  problems::Problem problem;
  Limits limits;
  std::vector<Vec> rhs;
  std::vector<std::uint64_t> ref_digest;
  std::vector<int> ref_iterations;
  std::vector<double> ref_residual;
};

/// The never-seen matrices: one seeded random band matrix, and per miss a
/// copy whose diagonal is raised by seeded amounts in [0, 1).  Each copy
/// stays strictly diagonally dominant (so SPD), has values no earlier
/// request had (a new fingerprint, so a cache miss), and costs a copy
/// rather than a generation on the client's thread.
class MissFamily {
 public:
  explicit MissFamily(std::uint64_t seed)
      : base_(problems::ProblemRegistry::instance()
                  .create("randspd:n=" + std::to_string(kMissN) +
                          ":band=" + std::to_string(kMissBand) +
                          ":seed=" + std::to_string(1 + seed % 100000))
                  .matrix) {
    const auto& rp = base_.row_ptr();
    const auto& ci = base_.col_idx();
    for (index_t i = 0; i < base_.rows(); ++i) {
      for (index_t p = rp[i]; p < rp[i + 1]; ++p) {
        if (ci[p] == i) diag_.push_back(p);
      }
    }
  }

  [[nodiscard]] la::CsrMatrix matrix(std::uint64_t seed) const {
    la::CsrMatrix m = base_;
    util::Rng rng(derive_seed(seed, 2));
    for (const index_t p : diag_) m.values()[p] += rng.uniform();
    return m;
  }

  [[nodiscard]] Vec rhs(std::uint64_t seed) const {
    return random_rhs(static_cast<std::size_t>(base_.rows()),
                      derive_seed(seed, 3));
  }

 private:
  la::CsrMatrix base_;
  std::vector<index_t> diag_;
};

/// Never-seen matrix seeds: distinct per (workload seed, client, request).
std::uint64_t miss_seed(std::uint64_t seed, int client, int k) {
  return derive_seed(seed, (static_cast<std::uint64_t>(client) << 32) +
                               static_cast<std::uint64_t>(k));
}

/// Bytes of an inline-CSR request frame with one right-hand side, by the
/// wire layout of serve/protocol.cpp.
double inline_request_bytes(const la::CsrMatrix& m) {
  const double n = m.rows();
  const double nnz = m.nnz();
  return 16 + 1 + 3 * 8 + 8 * (n + 1) + 8 + 8 * nnz + 8 + 8 * nnz +
         4 + std::string(kBaseConfig).size() + 4 + 8 + 8 * n + 1;
}

/// Reference for one right-hand side: a direct in-process solve through
/// the same facade call the server makes.
struct Direct {
  std::uint64_t digest = 0;
  int iterations = -1;  // -1: the direct solve itself failed
  double residual = 0.0;
};

Direct direct_solve(const solver::Prepared& p, const la::CsrMatrix& k,
                    const Vec& b) {
  Direct d;
  const std::vector<Vec> bs{b};
  const solver::BatchReport batch =
      p.solveMany(util::Span<const Vec>(bs.data(), bs.size()));
  if (batch.ok(0) && batch.reports[0].converged()) {
    const Vec& u = batch.reports[0].solution;
    d.iterations = batch.reports[0].iterations();
    d.digest = digest(u);
    d.residual = rel_residual(k, b, u);
  }
  return d;
}

/// The resident pipelines are fixed systems; the seed picks their loads.
std::vector<Resident> make_residents() {
  std::vector<Resident> out;
  for (const char* spec :
       {"femplate:a=48", "cyberplate:a=48", "randspd:n=6000:band=8:seed=7"}) {
    Resident r;
    r.spec = spec;
    r.problem = problems::ProblemRegistry::instance().create(spec);
    r.limits = r.problem.has_classes() ? kPlateLimits : kRandLimits;
    out.push_back(std::move(r));
  }
  return out;
}

/// Seeded right-hand sides and their direct references, one thread per
/// pipeline.
void make_references(std::vector<Resident>& residents, std::uint64_t seed) {
  const solver::Solver solver =
      solver::Solver::from_string(kBaseConfig);
  std::vector<std::thread> pool;
  for (std::size_t p = 0; p < residents.size(); ++p) {
    pool.emplace_back([&, p] {
      Resident& r = residents[p];
      const la::CsrMatrix& k = r.problem.matrix;
      const solver::Prepared prepared = r.problem.has_classes()
                                            ? solver.prepare(k, r.problem.classes)
                                            : solver.prepare(k);
      for (int i = 0; i < kPoolRhs; ++i) {
        r.rhs.push_back(random_rhs(static_cast<std::size_t>(k.rows()),
                                   derive_seed(seed, 1000 * (p + 1) + i)));
        const Direct d = direct_solve(prepared, k, r.rhs.back());
        r.ref_digest.push_back(d.digest);
        r.ref_iterations.push_back(d.iterations);
        r.ref_residual.push_back(d.residual);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// One request as the client saw it.
struct Reply {
  bool miss = false;
  int pipeline = 0;
  int rhs_index = 0;
  std::uint64_t seed = 0;  // miss matrix seed
  double latency_s = 0.0;
  int attempts = 0;
  double request_bytes = 0.0;
  std::string error;  // transport failure or non-ok retcode
  bool cache_hit = false;
  double setup_s = 0.0;
  double solve_s = 0.0;
  bool converged = false;
  int iterations = 0;
  std::uint64_t digest = 0;
};

/// An in-process server running on its own thread.
class ServerHost {
 public:
  explicit ServerHost(const std::string& path) {
    serve::ServerOptions options;
    options.unix_path = path;
    options.cache_bytes = std::size_t{128} << 20;
    server_ = std::make_unique<serve::Server>(options);
    server_->bind();
    thread_ = std::thread([this] { server_->run(); });
    endpoint_ = "unix:" + path;
  }
  ~ServerHost() {
    server_->request_shutdown();
    thread_.join();
  }
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

 private:
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  std::string endpoint_;
};

/// Start a server and make each resident pipeline resident; returns the
/// wall seconds of both.
std::unique_ptr<ServerHost> start_and_prime(const std::string& path,
                                            const std::vector<Resident>& residents,
                                            double* seconds) {
  const double t0 = now_s();
  auto host = std::make_unique<ServerHost>(path);
  serve::Client client = serve::Client::connect(host->endpoint());
  for (const Resident& r : residents) {
    const serve::SolveResponse reply = client.solve_catalog(r.spec, kBaseConfig);
    if (reply.retcode != serve::Retcode::kOk) {
      throw std::runtime_error("priming " + r.spec + " failed: " + reply.message);
    }
  }
  *seconds = now_s() - t0;
  return host;
}

void run_client(const std::string& endpoint, const std::vector<Resident>& residents,
                const MissFamily& misses, std::uint64_t seed, int c, double end,
                std::vector<Reply>* out) {
  util::Rng rng(derive_seed(seed, 500 + c));
  std::unique_ptr<serve::Client> client;
  for (int k = 0; now_s() < end; ++k) {
    Reply reply;
    serve::SolveRequest request;
    request.config = kBaseConfig;
    reply.miss = (k + c) % kMissEvery == 0;
    if (reply.miss) {
      reply.seed = miss_seed(seed, c, k);
      request.source = serve::MatrixSource::kInlineCsr;
      request.matrix = misses.matrix(reply.seed);
      request.rhs.push_back(misses.rhs(reply.seed));
      reply.request_bytes = inline_request_bytes(request.matrix);
    } else {
      reply.pipeline = static_cast<int>(rng.uniform_index(residents.size()));
      reply.rhs_index = static_cast<int>(rng.uniform_index(kPoolRhs));
      const Resident& r = residents[static_cast<std::size_t>(reply.pipeline)];
      request.source = serve::MatrixSource::kCatalog;
      request.problem = r.spec;
      request.rhs.push_back(r.rhs[static_cast<std::size_t>(reply.rhs_index)]);
    }
    emit_begin("request");
    const double t0 = now_s();
    try {
      if (!client) {
        client = std::make_unique<serve::Client>(serve::Client::connect(endpoint));
      }
      const serve::SolveResponse response =
          client->solve_with_retry(request, 20, 2, &reply.attempts);
      reply.latency_s = now_s() - t0;
      if (response.retcode != serve::Retcode::kOk) {
        reply.error = std::string(serve::to_string(response.retcode)) + ": " +
                      response.message;
      } else if (response.results.size() != 1 || !response.results[0].ok) {
        reply.error = response.results.empty() ? "no result"
                                               : response.results[0].error;
      } else {
        reply.cache_hit = response.cache_hit;
        reply.setup_s = response.setup_seconds;
        reply.solve_s = response.solve_seconds;
        reply.converged = response.results[0].converged;
        reply.iterations = response.results[0].iterations;
        reply.digest = digest(response.results[0].solution);
      }
    } catch (const std::exception& e) {
      reply.latency_s = now_s() - t0;
      reply.error = std::string("transport: ") + e.what();
      client.reset();  // reconnect for the next request
    }
    out->push_back(std::move(reply));
  }
}

/// Verify every reply against its direct reference (misses are solved
/// directly here, after the phase, four at a time) and emit one op record
/// per request.
void verify_and_emit(const std::vector<Resident>& residents,
                     const MissFamily& misses,
                     const std::vector<std::vector<Reply>>& replies) {
  std::vector<const Reply*> all;
  for (const auto& per_client : replies) {
    for (const Reply& r : per_client) all.push_back(&r);
  }
  std::vector<std::string> why(all.size());
  std::vector<double> residual(all.size(), 0.0);
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    const solver::Solver solver = solver::Solver::from_string(kBaseConfig);
    for (std::size_t i = cursor++; i < all.size(); i = cursor++) {
      const Reply& r = *all[i];
      if (!r.error.empty()) {
        why[i] = r.error;
        continue;
      }
      std::uint64_t ref_digest = 0;
      int ref_iterations = -1;
      Limits limits = kRandLimits;
      if (r.miss) {
        const la::CsrMatrix k = misses.matrix(r.seed);
        const solver::Prepared prepared = solver.prepare(k);
        const Direct d = direct_solve(prepared, k, misses.rhs(r.seed));
        ref_digest = d.digest;
        ref_iterations = d.iterations;
        residual[i] = d.residual;
      } else {
        const Resident& res = residents[static_cast<std::size_t>(r.pipeline)];
        const auto j = static_cast<std::size_t>(r.rhs_index);
        ref_digest = res.ref_digest[j];
        ref_iterations = res.ref_iterations[j];
        residual[i] = res.ref_residual[j];
        limits = res.limits;
      }
      // Equal digests mean equal bits, so the reference's residual is the
      // reply's.
      if (!r.converged) {
        why[i] = "not converged";
      } else if (r.iterations < limits.min_iterations) {
        why[i] = "iterations below the floor";
      } else if (r.iterations != ref_iterations) {
        why[i] = "iterations differ from the direct solve";
      } else if (r.digest != ref_digest) {
        why[i] = "solution bits differ from the direct solve";
      } else if (!(residual[i] <= limits.max_rel_residual)) {
        why[i] = "relative residual above the bound";
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < kClients; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  for (std::size_t i = 0; i < all.size(); ++i) {
    const Reply& r = *all[i];
    const bool ok = why[i].empty();
    Line("op")
        .str("kind", r.miss ? "miss" : "hit")
        .integer("pipeline", r.miss ? -1 : r.pipeline)
        .integer("rhs", 1)
        .integer("failed", ok ? 0 : 1)
        .integer("iterations", ok ? r.iterations : 0)
        .num("max_rel_residual", ok ? residual[i] : 0.0)
        .num("latency_s", r.latency_s)
        .num("setup_s", r.setup_s)
        .num("solve_s", r.solve_s)
        .flag("cache_hit", r.cache_hit)
        .integer("retries", r.attempts > 0 ? r.attempts - 1 : 0)
        .num("request_bytes", r.request_bytes)
        .str("why", why[i])
        .emit();
  }
}

/// The traced run's replay of the server's layers in-process: the miss
/// path's setup stages on never-seen matrices, the hit path's per-call
/// preconditioner build, and traced solves of every resident pipeline.
void replay_layers(const Args& args, const std::vector<Resident>& residents,
                   const MissFamily& misses,
                   SpanLog& log) {
  const solver::Solver solver = solver::Solver::from_string(kBaseConfig);
  if (!args.is_done("setup")) {
    const la::CsrMatrix miss = misses.matrix(miss_seed(args.seed, kClients, 0));
    const SetupStages st = time_setup_stages(solver, miss, nullptr, 5, log);
    emit_metric("color.greedy_s", st.classes_s);
    emit_metric("color.permute_s", st.permute_s);
    emit_metric("color.classes", st.num_classes);
    emit_metric("core.params_s", st.params_s);
    emit_metric("la.format_probe_s", st.format_probe_s);
    emit_metric("la.format_build_s", st.format_build_s);
    emit_metric("solver.prepare_other_s",
                st.prepare_s - st.inside_prepare(true));
    // The hit path rebuilds its lane's preconditioner on every call:
    // the mean over the resident pipelines a hit picks uniformly.
    double hit_build = 0.0;
    for (const Resident& r : residents) {
      const SetupStages rs = time_setup_stages(
          solver, r.problem.matrix,
          r.problem.has_classes()
              ? std::function<color::ColorClasses()>(
                    [&r] { return r.problem.classes; })
              : nullptr,
          3, log);
      hit_build += rs.precond_build_s / residents.size();
    }
    emit_metric("core.precond_build_s", hit_build);
    flush_trace(args, {&log});
    emit_stage_done("setup");
  }
  if (!args.is_done("micro")) {
    par::ThreadPool pool(kClients);
    emit_metric("par.dispatch_us", dispatch_us(pool, kClients));
    const Resident& plate = residents[0];
    const color::ColoredSystem cs =
        color::make_colored_system(plate.problem.matrix, plate.problem.classes);
    const solver::Prepared prepared =
        solver.prepare(plate.problem.matrix, plate.problem.classes);
    emit_metric("par.sweep_speedup",
                sweep_speedup(cs, prepared.alphas(), pool,
                              prepared.permute(plate.rhs[0]), 15));
    emit_metric("bench.kernel_threads", 1);
    emit_stage_done("micro");
  }

  // Traced solves: one "traced" record per pass over the resident
  // pipelines (a hit-mix unit), untraced first.  Like the solveMany call
  // a hit makes, each traced solve first builds its lane's preconditioner
  // on the pipeline's coloured system.
  std::vector<solver::Prepared> prepared;
  std::vector<OwnedOperator> ops;
  std::vector<color::ColoredSystem> systems;
  for (const Resident& r : residents) {
    const la::CsrMatrix& k = r.problem.matrix;
    const color::ColorClasses classes = r.problem.has_classes()
                                            ? r.problem.classes
                                            : color::greedy_classes_from_matrix(k);
    prepared.push_back(solver.prepare(k, classes));
    ops.push_back(traced_operator(prepared.back()));
    systems.push_back(color::make_colored_system(k, classes));
  }
  const double end = now_s() + std::min(5.0, args.seconds / 4);
  int passes = 0;
  do {
    emit_begin("traced");
    int failed = 0, untraced_failed = 0, lanes = 1;
    bool same = true;
    double untraced_s = 0, traced_s = 0, sweep = 0, spmv = 0, pcg_self = 0,
           wall = 0, sweep_bytes = 0, spmv_bytes = 0, ws = 0;
    long long sweep_calls = 0, spmv_calls = 0, iterations = 0;
    for (std::size_t p = 0; p < residents.size(); ++p) {
      const Resident& r = residents[p];
      const std::size_t j = static_cast<std::size_t>(passes) % r.rhs.size();
      const Vec& b = r.rhs[j];
      const std::vector<Vec> bs{b};
      double t0 = now_s();
      const solver::BatchReport batch =
          prepared[p].solveMany(util::Span<const Vec>(bs.data(), 1));
      untraced_s += now_s() - t0;
      lanes = batch.concurrency;
      t0 = now_s();
      log.open("core.precond_build");
      const solver::detail::PrecondChoice lane = solver::detail::make_preconditioner(
          solver.config(), &systems[p], systems[p].matrix, prepared[p].alphas(),
          nullptr, nullptr);
      log.close();
      const TracedSolve t =
          traced_solve(prepared[p], *lane.precond, ops[p], nullptr, b, log);
      traced_s += now_s() - t0;
      const bool ok = t.converged && t.iterations == r.ref_iterations[j] &&
                      digest(t.solution) == r.ref_digest[j] &&
                      t.iterations >= r.limits.min_iterations;
      failed += !ok;
      untraced_failed += !(batch.ok(0) &&
                           digest(batch.reports[0].solution) == r.ref_digest[j]);
      same = same && batch.ok(0) &&
             t.iterations == batch.reports[0].iterations() &&
             same_bits(t.solution, batch.reports[0].solution);
      sweep += t.sweep_s;
      spmv += t.spmv_s;
      pcg_self += t.pcg_self_s;
      wall += t.wall_s;
      sweep_calls += t.sweep_calls;
      spmv_calls += t.spmv_calls;
      iterations += t.iterations;
      sweep_bytes += t.sweep_calls * sweep_bytes_per_apply(
                                         prepared[p].matrix(),
                                         solver.config().steps);
      spmv_bytes += t.spmv_calls * ops[p].bytes_per_product;
      ws = std::max(ws, working_set_bytes(prepared[p].matrix(), ops[p]) /
                            (1 << 20));
    }
    Line("traced")
        .integer("failed", failed)
        .integer("untraced_failed", untraced_failed)
        .flag("same_as_untraced", same)
        .num("untraced_s", untraced_s)
        .num("traced_s", traced_s)
        .num("solve_wall_s", wall)
        .num("sweep_s", sweep)
        .num("spmv_s", spmv)
        .num("pcg_self_s", pcg_self)
        .integer("sweep_calls", sweep_calls)
        .integer("spmv_calls", spmv_calls)
        .num("sweep_bytes", sweep_bytes)
        .num("spmv_bytes", spmv_bytes)
        .integer("iterations", iterations)
        .integer("lanes", lanes)
        .integer("rhs", static_cast<long long>(residents.size()))
        .num("working_set_mib", ws)
        .num("serial_solve_s", untraced_s / residents.size())
        .emit();
    ++passes;
  } while (passes < 2 || now_s() < end);
}

void measured_phase(const Args& args, const std::vector<Resident>& residents,
                    const MissFamily& misses,
                    const std::string& path) {
  // Set-up: server start plus priming, five times; the last server
  // serves the measured phase.
  std::unique_ptr<ServerHost> host;
  for (int rep = 0; rep < 5; ++rep) {
    host.reset();
    double seconds = 0.0;
    host = start_and_prime(path, residents, &seconds);
    Line("setup").num("setup_s", seconds).emit();
  }

  Line("measure_start").emit();
  const double end = now_s() + args.seconds;
  std::vector<std::vector<Reply>> replies(kClients);
  std::vector<std::thread> clients;
  const double t0 = now_s();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(run_client, host->endpoint(), std::cref(residents),
                         std::cref(misses),
                         args.seed, c, end, &replies[static_cast<std::size_t>(c)]);
  }
  for (std::thread& t : clients) t.join();
  const double phase_s = now_s() - t0;
  host.reset();
  Line("phase").num("phase_s", phase_s).emit();
  verify_and_emit(residents, misses, replies);
  emit_stage_done("measure");
}

}  // namespace

int run_served_mixed(const Args& args) {
  std::vector<Resident> residents = make_residents();
  const MissFamily misses(args.seed);
  make_references(residents, args.seed);
  const std::string path =
      args.state_dir + "/srv-" + std::to_string(getpid()) + ".sock";

  SpanLog log(0);
  if (args.trace && !args.is_done("triad")) {
    emit_triad(kClients);
    emit_stage_done("triad");
  }

  if (!args.is_done("measure")) {
    measured_phase(args, residents, misses, path);
  }
  if (args.trace) {
    replay_layers(args, residents, misses, log);
    flush_trace(args, {&log});
    emit_stage_done("traced");
  }
  return 0;
}

}  // namespace perfbench
