// bench_served — concurrent-client load against the mstep_served daemon.
//
// By default the bench hosts an in-process serve::Server on an ephemeral
// Unix socket (no port juggling, no external setup); --connect points it
// at a running daemon instead.  Three workloads:
//
//   hot    every client hammers ONE catalog spec under one config.  The
//          pipeline is primed before timing starts, so the measured phase
//          is pure cache-hit traffic — the daemon's steady-state fast
//          path.
//   mixed  clients rotate (staggered) through several spec x config
//          pairs, all primed, so the measured phase bounces between
//          resident prepared pipelines — the cache's working-set path.
//   cold   every request uploads a never-seen matrix inline: one seeded
//          randspd band matrix whose diagonal is raised by fresh seeded
//          amounts per request, so each is SPD and misses the cache.
//          This is the daemon's miss path — frame decode, fingerprint,
//          colouring, preparation, then the solve.
//
// Clients count their own cache verdicts and busy retries from the
// replies, so the per-workload hit rate needs no metrics parsing; one
// served result per workload is compared BITWISE against a direct
// in-process Solver run of the same matrix and config.  Each row also
// carries the p50 latency of the requests that missed the cache and the
// frame size of the workload's reference request.  Rows go to
// --out=BENCH_served.json for the CI perf gate, which checks the
// scale-free columns (cache_hit_rate:higher, converged=true,
// bitwise_match_direct=true); throughput and latency columns are
// reported for humans and the perf-over-time collation, not gated.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "problems/problem.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "solver/config.hpp"
#include "solver/solver.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mstep;

struct Target {
  std::string spec;
  std::string config;
};

struct Run {
  std::string workload;
  int clients = 0;
  int requests_per_client = 0;
  int requests_total = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double miss_p50_ms = 0.0;  // 0 when no request missed
  double request_mib = 0.0;  // frame of the workload's reference request
  double cache_hit_rate = 0.0;
  long long busy_retries = 0;
  bool converged = true;
  bool bitwise_match_direct = true;
};

/// What one client thread saw: per-request end-to-end latency plus the
/// reply-derived tallies the workload row aggregates.
struct ClientTally {
  std::vector<double> latencies;
  std::vector<double> miss_latencies;
  long long hits = 0;
  long long solves = 0;
  long long busy_retries = 0;
  bool converged = true;
  std::string error;
};

/// The request client `client` sends as its `k`-th.
using RequestMaker = std::function<serve::SolveRequest(int client, int k)>;

void run_client(const std::string& endpoint, const RequestMaker& make_request,
                int client_id, int requests, ClientTally* tally) {
  try {
    serve::Client client = serve::Client::connect(endpoint);
    tally->latencies.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      const serve::SolveRequest request = make_request(client_id, i);
      util::Timer timer;
      int attempts = 1;
      const serve::SolveResponse reply =
          client.solve_with_retry(request, 20, 5, &attempts);
      const double latency = timer.seconds();
      tally->latencies.push_back(latency);
      tally->busy_retries += attempts - 1;
      if (reply.retcode != serve::Retcode::kOk) {
        tally->converged = false;
        tally->error =
            std::string(serve::to_string(reply.retcode)) + ": " + reply.message;
        return;
      }
      ++tally->solves;
      if (reply.cache_hit) {
        ++tally->hits;
      } else {
        tally->miss_latencies.push_back(latency);
      }
      if (!reply.all_converged()) tally->converged = false;
    }
  } catch (const std::exception& e) {
    tally->converged = false;
    tally->error = e.what();
  }
}

double percentile_ms(std::vector<double> sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_seconds.size() - 1) + 0.5);
  return sorted_seconds[std::min(idx, sorted_seconds.size() - 1)] * 1e3;
}

serve::SolveRequest catalog_request(const Target& t) {
  serve::SolveRequest request;
  request.source = serve::MatrixSource::kCatalog;
  request.problem = t.spec;
  request.config = t.config;
  return request;
}

/// The never-seen matrices of the cold workload: one seeded randspd band
/// matrix, and per seed a copy whose diagonal is raised by seeded amounts
/// in [0, 1).  Each copy stays strictly diagonally dominant (so SPD) and
/// has values no other seed gives it (a new fingerprint, so a miss).
class ColdFamily {
 public:
  explicit ColdFamily(int n)
      : base_(problems::ProblemRegistry::instance()
                  .create("randspd:n=" + std::to_string(n) + ":band=8:seed=1")
                  .matrix) {
    const auto& rp = base_.row_ptr();
    const auto& ci = base_.col_idx();
    for (index_t i = 0; i < base_.rows(); ++i) {
      for (index_t p = rp[i]; p < rp[i + 1]; ++p) {
        if (ci[p] == i) diag_.push_back(p);
      }
    }
  }

  [[nodiscard]] serve::SolveRequest request(std::uint64_t seed,
                                            const std::string& config) const {
    serve::SolveRequest request;
    request.source = serve::MatrixSource::kInlineCsr;
    request.matrix = base_;
    util::Rng rng(seed);
    for (const index_t p : diag_) request.matrix.values()[p] += rng.uniform();
    request.config = config;
    return request;
  }

 private:
  la::CsrMatrix base_;
  std::vector<index_t> diag_;
};

/// The bitwise contract: a served solve of `request` must equal a direct
/// in-process Solver run — same iterations, same final delta, same
/// solution bits.  The server's default-RHS rule (the problem's own RHS,
/// else b = K*1) is replicated here.
bool served_matches_direct(const std::string& endpoint,
                           const serve::SolveRequest& request) {
  serve::Client client = serve::Client::connect(endpoint);
  const serve::SolveResponse reply = client.solve(request);
  if (reply.retcode != serve::Retcode::kOk || reply.results.size() != 1) {
    return false;
  }
  problems::Problem p;
  if (request.source == serve::MatrixSource::kCatalog) {
    p = problems::ProblemRegistry::instance().create(request.problem);
  } else {
    p.matrix = request.matrix;
  }
  solver::Solver solver = solver::Solver::from_config(
      solver::SolverConfig::from_string(request.config));
  const solver::Prepared prepared = p.has_classes()
                                        ? solver.prepare(p.matrix, p.classes)
                                        : solver.prepare(p.matrix);
  Vec b = p.rhs;
  if (b.empty()) {
    const Vec ones(static_cast<std::size_t>(p.matrix.rows()), 1.0);
    b.resize(ones.size());
    p.matrix.multiply(ones, b);
  }
  const std::vector<Vec> bs{std::move(b)};
  const solver::BatchReport direct =
      prepared.solveMany(util::Span<const Vec>(bs.data(), bs.size()));
  if (direct.reports.size() != 1) return false;
  const solver::SolveReport& d = direct.reports[0];
  const serve::RhsResult& s = reply.results[0];
  return s.ok && s.iterations == d.iterations() &&
         s.final_delta_inf == d.result.final_delta_inf &&
         s.solution == d.solution;
}

/// Times `clients` x `requests` requests from `make_request`, after
/// priming the `primed` catalog pipelines.  `reference` is checked
/// bitwise against a direct solve once the timed phase is over.
Run run_workload(const std::string& name, const std::string& endpoint,
                 const std::vector<Target>& primed,
                 const RequestMaker& make_request,
                 const serve::SolveRequest& reference, int clients,
                 int requests) {
  // Prime every pipeline once so the timed phase measures steady-state
  // serving, not first-touch preparation (reported by the daemon as
  // setup_seconds; bench_catalog times preparation itself).
  {
    serve::Client primer = serve::Client::connect(endpoint);
    for (const Target& t : primed) {
      const serve::SolveResponse reply = primer.solve_catalog(t.spec, t.config);
      if (reply.retcode != serve::Retcode::kOk) {
        throw std::runtime_error("priming " + t.spec + " failed: " +
                                 serve::to_string(reply.retcode) + ": " +
                                 reply.message);
      }
    }
  }

  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(tallies.size());
  util::Timer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(run_client, endpoint, std::cref(make_request), c,
                         requests, &tallies[static_cast<std::size_t>(c)]);
  }
  for (auto& t : threads) t.join();

  Run run;
  run.workload = name;
  run.clients = clients;
  run.requests_per_client = requests;
  run.requests_total = clients * requests;
  run.wall_seconds = wall.seconds();

  std::vector<double> latencies;
  std::vector<double> miss_latencies;
  long long hits = 0;
  long long solves = 0;
  for (const ClientTally& tally : tallies) {
    if (!tally.error.empty()) {
      std::cerr << "bench_served: client failed: " << tally.error << '\n';
    }
    latencies.insert(latencies.end(), tally.latencies.begin(),
                     tally.latencies.end());
    miss_latencies.insert(miss_latencies.end(), tally.miss_latencies.begin(),
                          tally.miss_latencies.end());
    hits += tally.hits;
    solves += tally.solves;
    run.busy_retries += tally.busy_retries;
    run.converged = run.converged && tally.converged;
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(miss_latencies.begin(), miss_latencies.end());
  double sum = 0.0;
  for (double s : latencies) sum += s;
  run.throughput_rps =
      run.wall_seconds > 0.0 ? run.requests_total / run.wall_seconds : 0.0;
  run.mean_ms = latencies.empty() ? 0.0 : sum / latencies.size() * 1e3;
  run.p50_ms = percentile_ms(latencies, 0.50);
  run.p99_ms = percentile_ms(latencies, 0.99);
  run.miss_p50_ms = percentile_ms(miss_latencies, 0.50);
  run.request_mib =
      static_cast<double>(serve::kHeaderBytes + reference.encode().size()) /
      (1024.0 * 1024.0);
  run.cache_hit_rate = solves > 0 ? static_cast<double>(hits) / solves : 0.0;
  run.bitwise_match_direct = served_matches_direct(endpoint, reference);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  try {
    util::Cli cli(argc, argv,
                  {"quick", "clients", "requests", "connect", "cache-mb",
                   "out"});
    const bool quick = cli.has("quick");
    const int clients = cli.get_int("clients", quick ? 4 : 8);
    const int requests = cli.get_int("requests", quick ? 16 : 64);
    const std::string out_path = cli.get("out", "BENCH_served.json");
    std::string endpoint = cli.get("connect", "");

    // Host the daemon in-process unless pointed at a running one.
    serve::Server* server = nullptr;
    std::unique_ptr<serve::Server> owned;
    std::thread server_thread;
    if (endpoint.empty()) {
      unix_path = "/tmp/mstep_bench_" + std::to_string(getpid()) + ".sock";
      serve::ServerOptions options;
      options.unix_path = unix_path;
      options.cache_bytes =
          static_cast<std::size_t>(cli.get_int("cache-mb", 256)) << 20;
      owned = std::make_unique<serve::Server>(options);
      owned->bind();
      server = owned.get();
      server_thread = std::thread([server] { server->run(); });
      endpoint = "unix:" + unix_path;
    }

    const std::string base_config = "splitting=ssor;m=2";
    const std::vector<Target> hot = {
        {quick ? "poisson2d:n=24" : "poisson2d:n=48", base_config}};
    const std::vector<Target> mixed = {
        {quick ? "poisson2d:n=24" : "poisson2d:n=48", base_config},
        {quick ? "poisson2d:n=24" : "poisson2d:n=48", "splitting=ssor;m=1"},
        {quick ? "poisson3d:n=8" : "poisson3d:n=14", base_config},
        {quick ? "femplate:a=12" : "femplate:a=24", base_config},
    };

    std::cout << "== mstep_served load harness ==\n"
              << "endpoint " << endpoint << ", " << clients << " client(s) x "
              << requests << " request(s)\n\n";

    const auto rotate = [](const std::vector<Target>& mix) -> RequestMaker {
      return [mix](int client, int k) {
        return catalog_request(
            mix[static_cast<std::size_t>(client + k) % mix.size()]);
      };
    };
    // Seed 0 is the reference; the timed requests use 1, 2, ...
    const ColdFamily cold(quick ? 4000 : 20000);
    const RequestMaker cold_request = [&cold, &base_config, requests](
                                          int client, int k) {
      return cold.request(
          1 + static_cast<std::uint64_t>(client) * requests + k, base_config);
    };

    std::vector<Run> runs;
    runs.push_back(run_workload("hot", endpoint, hot, rotate(hot),
                                catalog_request(hot.front()), clients,
                                requests));
    runs.push_back(run_workload("mixed", endpoint, mixed, rotate(mixed),
                                catalog_request(mixed.front()), clients,
                                requests));
    runs.push_back(run_workload("cold", endpoint, {}, cold_request,
                                cold.request(0, base_config), clients,
                                requests));

    if (server != nullptr) {
      server->request_shutdown();
      server_thread.join();
    }

    util::Table t({"workload", "req", "rps", "mean ms", "p50 ms", "p99 ms",
                   "miss p50 ms", "req MiB", "hit rate", "busy", "ok"});
    for (const Run& r : runs) {
      t.add_row({r.workload, util::Table::integer(r.requests_total),
                 util::Table::num(r.throughput_rps, 1),
                 util::Table::num(r.mean_ms, 3), util::Table::num(r.p50_ms, 3),
                 util::Table::num(r.p99_ms, 3),
                 util::Table::num(r.miss_p50_ms, 3),
                 util::Table::num(r.request_mib, 3),
                 util::Table::num(r.cache_hit_rate, 3),
                 util::Table::integer(r.busy_retries),
                 r.converged && r.bitwise_match_direct ? "yes" : "NO"});
    }
    t.print(std::cout, "served throughput (client-observed end-to-end)");

    util::Json rows = util::Json::array();
    for (const Run& r : runs) {
      rows.push(util::Json::object()
                    .set("tool", "bench_served")
                    .set("workload", r.workload)
                    .set("clients", static_cast<long long>(r.clients))
                    .set("requests_per_client",
                         static_cast<long long>(r.requests_per_client))
                    .set("requests_total",
                         static_cast<long long>(r.requests_total))
                    .set("wall_seconds", r.wall_seconds)
                    .set("throughput_rps", r.throughput_rps)
                    .set("mean_ms", r.mean_ms)
                    .set("p50_ms", r.p50_ms)
                    .set("p99_ms", r.p99_ms)
                    .set("miss_p50_ms", r.miss_p50_ms)
                    .set("request_mib", r.request_mib)
                    .set("cache_hit_rate", r.cache_hit_rate)
                    .set("busy_retries", r.busy_retries)
                    .set("converged", r.converged)
                    .set("bitwise_match_direct", r.bitwise_match_direct));
    }
    std::ofstream json(out_path);
    rows.dump(json);
    std::cout << "wrote " << out_path << '\n';

    bool ok = true;
    for (const Run& r : runs) ok = ok && r.converged && r.bitwise_match_direct;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_served: " << e.what() << '\n';
    if (!unix_path.empty()) ::unlink(unix_path.c_str());
    return 1;
  }
}
