// End-to-end daemon tests: a real serve::Server on real sockets (Unix
// and TCP), driven through serve::Client — cold-miss/warm-hit caching,
// bitwise identity with a direct library solve, the inline-CSR and
// fingerprint request flows, the error retcode surface, the metrics
// document, the shared sweep plan of a warm hit, deterministic busy
// shedding, and graceful shutdown by both the protocol request and
// SIGTERM (drain, final metrics snapshot, clean exit).  Process-local
// serve contracts live in tests/test_serve_cache.cpp.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/multicolor_mstep.hpp"
#include "problems/problem.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "solver/solver.hpp"

namespace mstep::serve {
namespace {

std::string sock_path(const std::string& name) {
  return "/tmp/mstep_served_test_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

/// A live daemon for one test: bind, run() on a background thread, drain
/// on destruction (idempotent with an explicit shutdown inside the test).
struct ServedServer {
  explicit ServedServer(ServerOptions options) : server(std::move(options)) {
    server.bind();
    thread = std::thread([this] { server.run(); });
  }
  ~ServedServer() {
    server.request_shutdown();
    if (thread.joinable()) thread.join();
  }
  Server server;
  std::thread thread;
};

ServerOptions unix_options(const std::string& sock) {
  ServerOptions options;
  options.unix_path = sock;
  return options;
}

/// Pull `"name": <number>` out of the metrics JSON — enough structure
/// validation lives in tools/check_report.py --schema metrics; the test
/// only needs a few fields.
long long metrics_field(const std::string& body, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const auto pos = body.find(needle);
  if (pos == std::string::npos) return -1;
  return std::stoll(body.substr(pos + needle.size()));
}

TEST(Served, ColdMissThenWarmHitOverUnixSocket) {
  const std::string sock = sock_path("coldwarm");
  ServedServer daemon(unix_options(sock));
  Client client = Client::connect("unix:" + sock);

  const SolveResponse cold =
      client.solve_catalog("poisson2d:n=12", "splitting=ssor;m=2");
  ASSERT_EQ(cold.retcode, Retcode::kOk) << cold.message;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_NE(cold.fingerprint, 0u);
  EXPECT_TRUE(cold.format_selected == "csr" || cold.format_selected == "dia");
  EXPECT_TRUE(cold.all_converged());

  const SolveResponse warm =
      client.solve_catalog("poisson2d:n=12", "splitting=ssor;m=2");
  ASSERT_EQ(warm.retcode, Retcode::kOk) << warm.message;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(warm.setup_seconds, 0.0);  // the hit pays no preparation
  ASSERT_EQ(warm.results.size(), cold.results.size());
  EXPECT_EQ(warm.results, cold.results);  // bitwise: same pipeline, same bits
}

TEST(Served, WarmHitReusesTheCachedSweepPlan) {
  // A DIA pipeline: the miss builds the sweep plan once, a hit only
  // solves on it — and the served bits stay the direct library's.
  const std::string spec = "femplate:a=8";
  const std::string config_text = "splitting=ssor;m=2;format=dia";
  const std::string sock = sock_path("sweepplan");
  ServedServer daemon(unix_options(sock));
  Client client = Client::connect("unix:" + sock);

  const SolveResponse cold = client.solve_catalog(spec, config_text);
  ASSERT_EQ(cold.retcode, Retcode::kOk) << cold.message;
  EXPECT_FALSE(cold.cache_hit);
  const long long builds = core::SweepPlan::builds();
  const SolveResponse warm = client.solve_catalog(spec, config_text);
  ASSERT_EQ(warm.retcode, Retcode::kOk) << warm.message;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(core::SweepPlan::builds(), builds);
  EXPECT_EQ(warm.results, cold.results);

  problems::Problem p = problems::ProblemRegistry::instance().create(spec);
  const solver::Prepared prepared =
      solver::Solver::from_string(config_text).prepare(p.matrix, p.classes);
  EXPECT_STREQ(prepared.sweep_format(), "dia");
  const std::vector<Vec> bs{p.rhs};
  const solver::BatchReport want =
      prepared.solveMany(util::Span<const Vec>(bs.data(), bs.size()));
  ASSERT_EQ(warm.results.size(), 1u);
  EXPECT_EQ(warm.results[0].solution, want.reports[0].solution);
}

TEST(Served, TcpEphemeralPortServes) {
  ServerOptions options;
  options.port = 0;  // ephemeral, read back from bound_port()
  ServedServer daemon(options);
  ASSERT_GT(daemon.server.bound_port(), 0);

  Client client = Client::connect_tcp("127.0.0.1", daemon.server.bound_port());
  const SolveResponse cold =
      client.solve_catalog("poisson2d:n=10", "splitting=jacobi;m=1");
  ASSERT_EQ(cold.retcode, Retcode::kOk) << cold.message;
  EXPECT_TRUE(cold.all_converged());
  const SolveResponse warm =
      client.solve_catalog("poisson2d:n=10", "splitting=jacobi;m=1");
  EXPECT_TRUE(warm.cache_hit);
}

TEST(Served, ServedEqualsDirectLibrarySolveBitwise) {
  const std::string spec = "femplate:a=8";  // ships closed-form classes
  const std::string config_text = "splitting=ssor;m=2";
  const std::string sock = sock_path("bitwise");
  ServedServer daemon(unix_options(sock));
  Client client = Client::connect("unix:" + sock);

  const SolveResponse served = client.solve_catalog(spec, config_text);
  ASSERT_EQ(served.retcode, Retcode::kOk) << served.message;
  ASSERT_EQ(served.results.size(), 1u);

  problems::Problem p = problems::ProblemRegistry::instance().create(spec);
  ASSERT_TRUE(p.has_classes());
  solver::Solver direct = solver::Solver::from_config(
      solver::SolverConfig::from_string(config_text));
  const solver::Prepared prepared = direct.prepare(p.matrix, p.classes);
  const std::vector<Vec> bs{p.rhs};
  const solver::BatchReport want =
      prepared.solveMany(util::Span<const Vec>(bs.data(), bs.size()));
  ASSERT_EQ(want.reports.size(), 1u);

  const RhsResult& got = served.results[0];
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.iterations, want.reports[0].iterations());
  EXPECT_EQ(got.final_delta_inf, want.reports[0].result.final_delta_inf);
  EXPECT_EQ(got.solution, want.reports[0].solution);
}

TEST(Served, InlineCsrThenFingerprintReuse) {
  const std::string sock = sock_path("inline");
  ServedServer daemon(unix_options(sock));
  Client client = Client::connect("unix:" + sock);
  problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=8");

  SolveRequest inline_request;
  inline_request.source = MatrixSource::kInlineCsr;
  inline_request.matrix = p.matrix;
  inline_request.config = "splitting=ssor;m=2";
  inline_request.rhs = {p.rhs, Vec(p.rhs.size(), 1.0)};
  const SolveResponse first = client.solve(inline_request);
  ASSERT_EQ(first.retcode, Retcode::kOk) << first.message;
  EXPECT_FALSE(first.cache_hit);
  ASSERT_EQ(first.results.size(), 2u);
  EXPECT_TRUE(first.all_converged());

  // Repeat traffic: name the matrix by the advertised fingerprint instead
  // of resending ~nnz doubles.  Same pipeline, so the shared RHS solves
  // to the same bits.
  SolveRequest by_fp;
  by_fp.source = MatrixSource::kFingerprint;
  by_fp.fingerprint = first.fingerprint;
  by_fp.config = "splitting=ssor;m=2";
  by_fp.rhs = {p.rhs};
  const SolveResponse second = client.solve(by_fp);
  ASSERT_EQ(second.retcode, Retcode::kOk) << second.message;
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.results.size(), 1u);
  EXPECT_EQ(second.results[0], first.results[0]);

  // A fingerprint the daemon has never seen is an explicit error, not a
  // guess.
  by_fp.fingerprint = ~first.fingerprint;
  const SolveResponse unknown = client.solve(by_fp);
  EXPECT_EQ(unknown.retcode, Retcode::kUnknownMatrix);
  EXPECT_FALSE(retryable(unknown.retcode));
}

TEST(Served, ErrorRetcodeSurface) {
  const std::string sock = sock_path("retcodes");
  ServedServer daemon(unix_options(sock));
  Client client = Client::connect("unix:" + sock);

  EXPECT_EQ(client.solve_catalog("poisson2d:n=8", "splitting=nonsense")
                .retcode,
            Retcode::kBadConfig);
  EXPECT_EQ(client.solve_catalog("no_such_problem:n=8", "").retcode,
            Retcode::kBadProblem);

  SolveRequest bad_rhs;
  bad_rhs.source = MatrixSource::kCatalog;
  bad_rhs.problem = "poisson2d:n=8";
  bad_rhs.rhs = {Vec(3, 1.0)};  // n is 64, not 3
  EXPECT_EQ(client.solve(bad_rhs).retcode, Retcode::kBadRequest);

  SolveRequest not_square;
  not_square.source = MatrixSource::kInlineCsr;
  not_square.matrix = la::CsrMatrix(2, 3, {0, 1, 2}, {0, 2}, {1.0, 1.0});
  EXPECT_EQ(client.solve(not_square).retcode, Retcode::kBadRequest);
}

TEST(Served, MetricsDocumentCountsTraffic) {
  const std::string sock = sock_path("metrics");
  ServedServer daemon(unix_options(sock));
  Client client = Client::connect("unix:" + sock);
  (void)client.solve_catalog("poisson2d:n=8", "splitting=ssor;m=2");
  (void)client.solve_catalog("poisson2d:n=8", "splitting=ssor;m=2");

  const StatusResponse status = client.metrics();
  ASSERT_EQ(status.retcode, Retcode::kOk);
  const std::string& body = status.body;
  EXPECT_NE(body.find("\"tool\": \"mstep_served\""), std::string::npos);
  EXPECT_EQ(metrics_field(body, "solve"), 2);
  EXPECT_EQ(metrics_field(body, "hits"), 1);
  EXPECT_EQ(metrics_field(body, "misses"), 1);
  EXPECT_EQ(metrics_field(body, "entries"), 1);
  EXPECT_EQ(metrics_field(body, "queue_depth"), 0);
  EXPECT_EQ(metrics_field(body, "errors"), 0);
  // Two timed solves and (so far) three timed requests.
  EXPECT_EQ(metrics_field(body, "count"), 2);

  // The in-process view agrees with the wire view.
  std::ostringstream direct;
  daemon.server.metrics_json().dump(direct);
  EXPECT_EQ(metrics_field(direct.str(), "solve"), 2);
}

TEST(Served, TracedRequestRoundTripsACorrelatedTrace) {
  const std::string sock = sock_path("trace");
  ServedServer daemon(unix_options(sock));
  Client client = Client::connect("unix:" + sock);

  SolveRequest request;
  request.source = MatrixSource::kCatalog;
  request.problem = "poisson2d:n=12";
  request.config = "splitting=ssor;m=2";
  request.want_trace = true;

  const SolveResponse traced = client.solve(request);
  ASSERT_EQ(traced.retcode, Retcode::kOk) << traced.message;
  EXPECT_GT(traced.request_id, 0u);
  ASSERT_FALSE(traced.trace.empty());
  // The server-side phases and the solver's own spans are all present...
  for (const char* span : {"\"request\"", "\"setup\"", "\"prepare\"",
                           "\"solve\"", "\"iteration\"", "\"sweep\""}) {
    EXPECT_NE(traced.trace.find(span), std::string::npos) << span;
  }
  // ...and every span carries THIS request's id: the correlation tag
  // appears, and no other id does (count the generic key vs the exact
  // pair — per-request extraction must not leak neighbours' spans).
  const std::string key = "\"correlation\": ";
  const std::string tag = key + std::to_string(traced.request_id);
  std::size_t keys = 0, tags = 0;
  for (std::size_t pos = traced.trace.find(key); pos != std::string::npos;
       pos = traced.trace.find(key, pos + 1)) {
    ++keys;
  }
  for (std::size_t pos = traced.trace.find(tag); pos != std::string::npos;
       pos = traced.trace.find(tag, pos + 1)) {
    ++tags;
  }
  EXPECT_GT(keys, 0u);
  EXPECT_EQ(keys, tags);

  // An untraced repeat: fresh id, no trace payload, and — the bitwise
  // guarantee over the wire — identical solution bits.
  request.want_trace = false;
  const SolveResponse untraced = client.solve(request);
  ASSERT_EQ(untraced.retcode, Retcode::kOk) << untraced.message;
  EXPECT_TRUE(untraced.trace.empty());
  EXPECT_GT(untraced.request_id, traced.request_id);
  EXPECT_EQ(untraced.results, traced.results);

  // The metrics document carries the per-phase setup histogram: exactly
  // one cold preparation was timed.
  const StatusResponse status = client.metrics();
  ASSERT_EQ(status.retcode, Retcode::kOk);
  const auto pos = status.body.find("\"latency_setup_seconds\"");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(metrics_field(status.body.substr(pos), "count"), 1);
}

TEST(Served, BusySheddingIsDeterministicAtInflightOne) {
  const std::string sock = sock_path("busy");
  ServerOptions options = unix_options(sock);
  options.max_inflight = 1;
  ServedServer daemon(options);

  // Occupy the single slot with a deliberately heavy request: a cold
  // 16k-unknown problem and several right-hand sides.
  const std::string spec = "poisson2d:n=128";
  const std::size_t n = 128 * 128;
  SolveRequest heavy;
  heavy.source = MatrixSource::kCatalog;
  heavy.problem = spec;
  heavy.config = "splitting=ssor;m=1";
  heavy.rhs = std::vector<Vec>(8, Vec(n, 1.0));
  SolveResponse heavy_reply;
  std::thread occupant([&] {
    Client slow = Client::connect("unix:" + sock);
    heavy_reply = slow.solve(heavy);
  });

  // The gate admits the heavy solve before it starts preparing, so a
  // depth of 1 means the slot is held for the whole prepare+solve.
  for (int i = 0; i < 10000 && daemon.server.queue_depth() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(daemon.server.queue_depth(), 1);

  Client shed = Client::connect("unix:" + sock);
  const SolveResponse busy =
      shed.solve_catalog("poisson2d:n=8", "splitting=ssor;m=2");
  EXPECT_EQ(busy.retcode, Retcode::kBusy);
  EXPECT_TRUE(retryable(busy.retcode));

  occupant.join();
  ASSERT_EQ(heavy_reply.retcode, Retcode::kOk) << heavy_reply.message;
  EXPECT_TRUE(heavy_reply.all_converged());
  // With the slot free again the shed request goes straight through.
  const SolveResponse retry =
      shed.solve_catalog("poisson2d:n=8", "splitting=ssor;m=2");
  EXPECT_EQ(retry.retcode, Retcode::kOk);
}

TEST(Served, ProtocolShutdownDrainsAndClosesListeners) {
  const std::string sock = sock_path("shutdown");
  ServedServer daemon(unix_options(sock));
  {
    Client client = Client::connect("unix:" + sock);
    (void)client.solve_catalog("poisson2d:n=8", "");
    const StatusResponse reply = client.shutdown();
    EXPECT_EQ(reply.retcode, Retcode::kOk);
  }
  daemon.thread.join();  // run() must return on its own
  // The socket file is gone: a fresh connect has nothing to reach.
  EXPECT_THROW((void)Client::connect("unix:" + sock), SocketError);
}

TEST(Served, SigtermDrainsAndWritesFinalMetricsSnapshot) {
  const std::string sock = sock_path("sigterm");
  const std::string metrics_path =
      "/tmp/mstep_served_test_" + std::to_string(::getpid()) + "_final.json";
  std::remove(metrics_path.c_str());

  ServerOptions options = unix_options(sock);
  options.metrics_out = metrics_path;
  ServedServer daemon(options);
  daemon.server.install_signal_handlers();
  {
    Client client = Client::connect("unix:" + sock);
    const SolveResponse reply = client.solve_catalog("poisson2d:n=8", "");
    ASSERT_EQ(reply.retcode, Retcode::kOk);
  }

  ASSERT_EQ(std::raise(SIGTERM), 0);
  daemon.thread.join();  // the handler's self-pipe wakes the accept loop

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "final metrics snapshot missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"tool\": \"mstep_served\""),
            std::string::npos);
  EXPECT_EQ(metrics_field(buffer.str(), "solve"), 1);
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace mstep::serve
