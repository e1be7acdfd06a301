// The execution-policy layer: deterministic blocked reductions, threaded
// SpMV/vector kernels, thread-pool stress (oversubscription, zero-work
// ranges, exception propagation), and the facade-level guarantee that a
// threads=N solve is BITWISE identical to the serial solve for every
// splitting and step count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "color/coloring.hpp"
#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "la/dia_matrix.hpp"
#include "la/linear_operator.hpp"
#include "la/sell_matrix.hpp"
#include "par/execution.hpp"
#include "par/thread_pool.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::par {
namespace {

// ---- deterministic kernels --------------------------------------------------

TEST(ExecutionDot, BitwiseMatchesSerialAcrossBlockBoundaries) {
  util::Rng rng(11);
  for (const int threads : {2, 4, 8}) {
    const Execution exec(threads);
    for (const index_t n : {1, 100, 1023, 1024, 1025, 4099, 20000}) {
      const Vec x = rng.uniform_vector(n);
      const Vec y = rng.uniform_vector(n);
      ASSERT_EQ(exec.dot(x, y), la::dot(x, y)) << "threads=" << threads
                                               << " n=" << n;
      ASSERT_EQ(exec.nrm2(x), la::nrm2(x)) << "threads=" << threads
                                           << " n=" << n;
    }
  }
}

TEST(ExecutionVectorOps, BitwiseMatchSerial) {
  util::Rng rng(5);
  const index_t n = 20000;
  const Vec x = rng.uniform_vector(n);
  const Execution exec(4);

  Vec y1 = rng.uniform_vector(n);
  Vec y2 = y1;
  la::axpy(0.37, x, y1);
  exec.axpy(0.37, x, y2);
  ASSERT_EQ(y1, y2);

  la::xpay(x, -1.25, y1);
  exec.xpay(x, -1.25, y2);
  ASSERT_EQ(y1, y2);

  // Fused CG update: u += a*p with the delta-inf stopping quantity.
  Vec u1 = y1;
  Vec u2 = y1;
  double mx1 = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double step = 0.81 * x[i];
    u1[i] += step;
    mx1 = std::max(mx1, std::abs(step));
  }
  const double mx2 = exec.step_update_max(0.81, x, u2);
  ASSERT_EQ(u1, u2);
  ASSERT_EQ(mx1, mx2);
}

/// The threads=4 SpMV of `a` — directly and through its operator view's
/// execution-policy forms — is bitwise the serial product, for y = A x and
/// y -= A x.
template <class M>
void expect_spmv_matches_serial(const M& a, const Execution& exec,
                                const char* format) {
  SCOPED_TRACE(format);
  util::Rng rng(17);
  const Vec x = rng.uniform_vector(a.cols());
  const Vec y0 = rng.uniform_vector(a.rows());
  const la::MatrixOperator<M> op(a);

  Vec want;
  a.multiply(x, want);
  Vec got;
  exec.spmv(a, x, got);
  ASSERT_EQ(want, got);
  got.clear();
  op.multiply(x, got, exec);
  ASSERT_EQ(want, got);

  want = y0;
  a.multiply_sub(x, want);
  got = y0;
  exec.spmv_sub(a, x, got);
  ASSERT_EQ(want, got);
  got = y0;
  op.multiply_sub(x, got, exec);
  ASSERT_EQ(want, got);
}

TEST(ExecutionSpmv, EveryFormatAndOperatorBitwiseMatchSerial) {
  // Plate large enough that the parallel kernels actually engage.
  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(40);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  const la::CsrMatrix& a = sys.stiffness;
  ASSERT_GE(a.rows(), 3000);
  ASSERT_GE(a.rows(), kSerialCutoff);
  const Execution exec(4);
  expect_spmv_matches_serial(a, exec, "csr");
  expect_spmv_matches_serial(la::DiaMatrix::from_csr(a), exec, "dia");
  expect_spmv_matches_serial(la::SellMatrix::from_csr(a), exec, "sell");
}

// ---- thread-pool stress -----------------------------------------------------

TEST(ThreadPoolStress, OversubscribedPoolStaysCorrect) {
  // Far more workers than cores: scheduling is adversarial, coverage and
  // reuse must hold anyway.
  ThreadPool pool(16);
  for (int round = 0; round < 200; ++round) {
    std::atomic<long long> sum{0};
    pool.for_each(0, 4097, [&](index_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 4097LL * 4096 / 2) << "round " << round;
  }
}

TEST(ThreadPoolStress, ZeroWorkRangesAreNoOpsBetweenRealJobs) {
  // Empty colour classes produce empty sweep ranges mid-solve; they must
  // neither hang nor disturb the next job.
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    int calls = 0;
    pool.for_range(round, round, [&](index_t, index_t) { ++calls; });
    pool.for_range(10, 3, [&](index_t, index_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> count{0};
    pool.for_each(0, 513, [&](index_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 513);
  }
}

TEST(ThreadPoolStress, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(8);
  EXPECT_THROW(
      pool.for_range(0, 100000,
                     [&](index_t b, index_t e) {
                       if (b <= 54321 && 54321 < e) {
                         throw std::runtime_error("boom");
                       }
                     }),
      std::runtime_error);

  // Every chunk throwing still surfaces exactly one exception.
  EXPECT_THROW(pool.for_range(0, 100000,
                              [](index_t, index_t) {
                                throw std::runtime_error("everywhere");
                              }),
               std::runtime_error);

  // The pool remains fully usable afterwards.
  std::atomic<int> count{0};
  pool.for_each(0, 10000, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10000);
}

// Thousands of back-to-back tiny jobs, each with its own stack-allocated
// body and hit counts.  A worker that registers for a job after the caller
// has returned from it would run that job's dead body on the next job's
// range; every job must instead see each of its indices exactly once.
void run_handoff_stress(ThreadPool& pool, int jobs) {
  for (int job = 0; job < jobs; ++job) {
    const index_t len = 2 + job % 7;
    std::vector<int> hits(static_cast<std::size_t>(len), 0);
    pool.for_range(0, len, [&hits](index_t b, index_t e) {
      for (index_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (index_t i = 0; i < len; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << "job " << job << " index " << i;
    }
  }
}

TEST(ThreadPoolStress, BackToBackTinyJobsNeverReuseAStaleBody) {
  ThreadPool four(4);
  run_handoff_stress(four, 5000);
  ThreadPool oversubscribed(12);
  run_handoff_stress(oversubscribed, 3000);
}

// Two outside threads dispatching on one pool — two daemon requests on
// one cached pipeline.  Each caller's jobs must run whole and exactly
// once; a pool that let the second post overwrite a job in flight loses
// indices here or hangs (ctest's TIMEOUT turns a hang into a failure).
TEST(ThreadPoolStress, TwoOutsideCallersShareOnePool) {
  ThreadPool pool(4);
  std::thread other([&pool] { run_handoff_stress(pool, 2000); });
  run_handoff_stress(pool, 2000);
  other.join();
}

TEST(ThreadPoolStress, ExceptionPropagatesFromSerialFallback) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.for_range(0, 10,
                              [](index_t, index_t) {
                                throw std::invalid_argument("serial boom");
                              }),
               std::invalid_argument);
}

TEST(Execution, RejectsNegativeThreadCount) {
  EXPECT_THROW(Execution(-1), std::invalid_argument);
  EXPECT_FALSE(Execution(0).parallel());
  EXPECT_FALSE(Execution(1).parallel());
  EXPECT_TRUE(Execution(2).parallel());
}

// ---- facade-level bitwise determinism ---------------------------------------

struct Plate {
  fem::PlateMesh mesh;
  la::CsrMatrix k;
  Vec f;
  color::ColorClasses classes;
};

Plate make_plate(int nodes) {
  fem::PlateMesh mesh = fem::PlateMesh::unit_square(nodes);
  auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                        fem::EdgeLoad{1.0, 0.0});
  auto classes = color::six_color_classes(mesh);
  return {std::move(mesh), std::move(sys.stiffness), std::move(sys.load),
          std::move(classes)};
}

void expect_bitwise_equal(const solver::SolveReport& serial,
                          const solver::SolveReport& threaded,
                          const std::string& what) {
  ASSERT_TRUE(serial.converged()) << what;
  ASSERT_TRUE(threaded.converged()) << what;
  ASSERT_EQ(serial.iterations(), threaded.iterations()) << what;
  ASSERT_EQ(serial.result.inner_products, threaded.result.inner_products)
      << what;
  ASSERT_EQ(serial.result.final_delta_inf, threaded.result.final_delta_inf)
      << what;
  ASSERT_EQ(serial.solution.size(), threaded.solution.size()) << what;
  for (std::size_t i = 0; i < serial.solution.size(); ++i) {
    ASSERT_EQ(serial.solution[i], threaded.solution[i])
        << what << " i=" << i;
  }
}

// The ISSUE-level guarantee: for each registered splitting and
// m in {1, 2, 4}, the threaded solve is bitwise the serial solve.
TEST(SolverThreads, EverySplittingAndStepCountMatchesSerialBitwise) {
  const Plate p = make_plate(36);  // 2520 equations: above the cutoffs
  for (const auto& splitting :
       solver::SplittingRegistry::instance().names()) {
    for (const int m : {1, 2, 4}) {
      solver::SolverConfig cfg;
      cfg.splitting = splitting;
      cfg.steps = m;
      cfg.tolerance = 1e-8;
      const auto serial =
          solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
      for (const int threads : {2, 4}) {
        cfg.execution.threads = threads;
        const auto threaded =
            solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
        expect_bitwise_equal(serial, threaded,
                             splitting + " m=" + std::to_string(m) +
                                 " threads=" + std::to_string(threads));
      }
      cfg.execution.threads = 0;
    }
  }
}

TEST(SolverThreads, GenericSsorOmegaPathMatchesSerialBitwise) {
  // omega != 1 leaves the Algorithm-2 fast path: the generic m-step engine
  // under a threaded outer loop must still be bitwise serial.
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.splitting_options["omega"] = 1.3;
  cfg.steps = 2;
  cfg.tolerance = 1e-8;
  const auto serial =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  cfg.execution.threads = 4;
  const auto threaded =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  expect_bitwise_equal(serial, threaded, "ssor omega=1.3 threads=4");
}

TEST(SolverThreads, DiaFormatMatchesSerialBitwise) {
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.format = solver::MatrixFormat::kDia;
  cfg.steps = 2;
  cfg.tolerance = 1e-8;
  const auto serial =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  cfg.execution.threads = 4;
  const auto threaded =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  expect_bitwise_equal(serial, threaded, "dia threads=4");
}

// The Jacobi m = 1 solve makes many small pool dispatches per iteration;
// a pool that hands a stale body to a late worker changes its iteration
// count.  Repeated on a 4-thread pool, it must match serial every time.
TEST(SolverThreads, JacobiStepOneMatchesSerialOnFourThreads) {
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.splitting = "jacobi";
  cfg.steps = 1;
  cfg.tolerance = 1e-8;
  const auto serial =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  cfg.execution.threads = 4;
  const solver::Solver threaded = solver::Solver::from_config(cfg);
  for (int rep = 0; rep < 5; ++rep) {
    expect_bitwise_equal(serial, threaded.solve(p.k, p.f, p.classes),
                         "jacobi m=1 threads=4 rep=" + std::to_string(rep));
  }
}

TEST(SolverThreads, PlainCgMatchesSerialBitwise) {
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.steps = 0;
  cfg.ordering = solver::Ordering::kNatural;
  cfg.tolerance = 1e-8;
  const auto serial = solver::Solver::from_config(cfg).solve(p.k, p.f);
  cfg.execution.threads = 4;
  const auto threaded = solver::Solver::from_config(cfg).solve(p.k, p.f);
  expect_bitwise_equal(serial, threaded, "m=0 threads=4");
}

TEST(SolverThreads, PreparedReusesOnePoolAcrossRightHandSides) {
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  cfg.execution.threads = 2;
  const auto solver = solver::Solver::from_config(cfg);
  ASSERT_NE(solver.execution(), nullptr);
  EXPECT_EQ(solver.execution()->threads(), 2);

  const auto prepared = solver.prepare(p.k, p.classes);
  const auto r1 = prepared.solve(p.f);
  Vec f2 = p.f;
  for (auto& v : f2) v *= 3.0;
  const auto r2 = prepared.solve(f2);
  ASSERT_TRUE(r1.converged());
  ASSERT_TRUE(r2.converged());
  for (index_t i = 0; i < p.k.rows(); ++i) {
    ASSERT_NEAR(r2.solution[i], 3.0 * r1.solution[i], 1e-6);
  }
}

TEST(SolverThreads, InstrumentationStreamMatchesSerial) {
  // The threaded fast path narrates the same kernel stream as the serial
  // sweep, so modelled CYBER seconds are thread-count independent.
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;

  core::CountingLog serial_log;
  (void)solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes,
                                               &serial_log);
  cfg.execution.threads = 4;
  core::CountingLog threaded_log;
  (void)solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes,
                                               &threaded_log);

  EXPECT_EQ(serial_log.vec_ops, threaded_log.vec_ops);
  EXPECT_EQ(serial_log.dots, threaded_log.dots);
  EXPECT_EQ(serial_log.spmvs, threaded_log.spmvs);
  EXPECT_EQ(serial_log.diag_ops, threaded_log.diag_ops);
  EXPECT_EQ(serial_log.precond_steps, threaded_log.precond_steps);
  EXPECT_EQ(serial_log.flops, threaded_log.flops);
}

// Two threads batch-solving on ONE Prepared whose solver owns a 2-thread
// pool: both dispatch their lanes on that pool at once.  Every report
// must keep its serial bits, and neither caller may hang.
TEST(SolverThreads, TwoCallersSolveManyOnOnePrepared) {
  const Plate p = make_plate(12);
  util::Rng rng(17);
  std::vector<Vec> bs = {p.f, rng.uniform_vector(p.f.size())};

  solver::SolverConfig serial_cfg;
  serial_cfg.tolerance = 1e-8;
  const auto serial =
      solver::Solver::from_config(serial_cfg).prepare(p.k, p.classes);
  std::vector<solver::SolveReport> want;
  for (const Vec& b : bs) want.push_back(serial.solve(b));

  solver::SolverConfig cfg = serial_cfg;
  cfg.execution.threads = 2;
  cfg.batch = 2;
  const auto solver = solver::Solver::from_config(cfg);
  const auto prepared = solver.prepare(p.k, p.classes);

  std::vector<solver::BatchReport> got(2 * 20);
  auto caller = [&](std::size_t first) {
    for (std::size_t i = first; i < got.size(); i += 2) {
      got[i] = prepared.solveMany(util::Span<const Vec>(bs));
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].concurrency, 2) << "call " << i;
    for (std::size_t j = 0; j < bs.size(); ++j) {
      ASSERT_TRUE(got[i].ok(j));
      expect_bitwise_equal(want[j], got[i].reports[j],
                           "call " + std::to_string(i) + " rhs " +
                               std::to_string(j));
    }
  }
}

// The lane rule: a lone lane — Prepared::solve or a one-RHS solveMany —
// runs on the calling thread with the kernel threads; the lanes of a
// multi-lane batch run serial kernels.  Reports say which ran.
TEST(SolverThreads, LoneLaneThreadsItsKernelsAndBatchLanesDoNot) {
  const Plate p = make_plate(36);  // 2520 equations: above kSerialCutoff
  ASSERT_GE(p.k.rows(), kSerialCutoff);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto serial =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  EXPECT_EQ(serial.threads, 1);

  cfg.execution.threads = 4;
  const auto prepared =
      solver::Solver::from_config(cfg).prepare(p.k, p.classes);
  const std::vector<Vec> one = {p.f};
  const solver::BatchReport many =
      prepared.solveMany(util::Span<const Vec>(one));
  ASSERT_EQ(many.concurrency, 1);
  ASSERT_TRUE(many.ok(0));
  const std::vector<std::pair<std::string, solver::SolveReport>> lone = {
      {"solveMany", many.reports[0]}, {"solve", prepared.solve(p.f)}};
  for (const auto& [what, report] : lone) {
    expect_bitwise_equal(serial, report, what + " threads=4");
    EXPECT_EQ(report.threads, 4) << what;
    EXPECT_EQ(report.preconditioner_name.rfind("parallel-", 0), 0u)
        << what << ": " << report.preconditioner_name;
  }

  cfg.batch = 4;
  util::Rng rng(23);
  std::vector<Vec> bs = {p.f};
  for (int j = 1; j < 4; ++j) bs.push_back(rng.uniform_vector(p.f.size()));
  const solver::BatchReport batch = solver::Solver::from_config(cfg)
                                        .prepare(p.k, p.classes)
                                        .solveMany(util::Span<const Vec>(bs));
  ASSERT_EQ(batch.concurrency, 4);
  for (std::size_t j = 0; j < bs.size(); ++j) {
    ASSERT_TRUE(batch.ok(j));
    EXPECT_EQ(batch.reports[j].threads, 1) << "rhs " << j;
  }
  expect_bitwise_equal(serial, batch.reports[0], "threads=4;batch=4 rhs 0");
}

// Two threads alternate Prepared::solve and a one-RHS solveMany on ONE
// threads=2 Prepared: both run threaded kernels and reductions on the
// same pool at once.  Every result must keep its serial bits.
TEST(SolverThreads, ConcurrentLoneLanesOnOnePreparedMatchSerial) {
  const Plate p = make_plate(33);  // 2112 equations: just above kSerialCutoff
  ASSERT_GE(p.k.rows(), kSerialCutoff);
  util::Rng rng(29);
  const std::vector<Vec> bs = {p.f, rng.uniform_vector(p.f.size())};

  solver::SolverConfig cfg;
  cfg.tolerance = 1e-6;
  const auto serial = solver::Solver::from_config(cfg).prepare(p.k, p.classes);
  std::vector<solver::SolveReport> want;
  for (const Vec& b : bs) want.push_back(serial.solve(b));

  cfg.execution.threads = 2;
  const auto prepared =
      solver::Solver::from_config(cfg).prepare(p.k, p.classes);
  constexpr int kRounds = 20;
  // got[c][2r] is caller c's solve, got[c][2r + 1] its solveMany.
  std::vector<std::vector<solver::SolveReport>> got(
      2, std::vector<solver::SolveReport>(2 * kRounds));
  auto caller = [&](std::size_t c) {
    const Vec& b = bs[c];
    for (int r = 0; r < kRounds; ++r) {
      got[c][2 * r] = prepared.solve(b);
      const solver::BatchReport br =
          prepared.solveMany(util::Span<const Vec>(&b, 1));
      br.rethrow_first_error();
      got[c][2 * r + 1] = br.reports[0];
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();
  for (std::size_t c = 0; c < got.size(); ++c) {
    for (std::size_t k = 0; k < got[c].size(); ++k) {
      EXPECT_EQ(got[c][k].threads, 2);
      expect_bitwise_equal(want[c], got[c][k],
                           "caller " + std::to_string(c) + " call " +
                               std::to_string(k));
    }
  }
}

// ---- config round-trip ------------------------------------------------------

TEST(ExecutionConfig, ThreadsRoundTripsThroughStringAndCli) {
  solver::SolverConfig cfg;
  cfg.execution.threads = 4;
  EXPECT_NE(cfg.to_string().find(";threads=4"), std::string::npos);
  EXPECT_EQ(cfg, solver::SolverConfig::from_string(cfg.to_string()));

  const char* argv[] = {"prog", "--threads=8", "--m=2"};
  const util::Cli cli(3, argv, solver::SolverConfig::cli_flags());
  const auto from_cli = solver::SolverConfig::from_cli(cli);
  EXPECT_EQ(from_cli.execution.threads, 8);
  EXPECT_TRUE(from_cli.execution.parallel());
}

TEST(ExecutionConfig, SerialDefaultKeepsConfigStringUnchanged) {
  // threads=0 must serialize exactly as the unthreaded library did.
  const solver::SolverConfig cfg;
  EXPECT_EQ(cfg.to_string().find("threads"), std::string::npos);
  EXPECT_FALSE(cfg.execution.parallel());
  EXPECT_EQ(solver::Solver::from_config(cfg).execution(), nullptr);
}

// Threads are the one parallelism option: the retired `shards` field is
// an unknown field in the string form and an unknown flag on the CLI.
TEST(ExecutionConfig, ShardsIsRejectedAsUnknown) {
  try {
    (void)solver::SolverConfig::from_string("m=2;shards=4");
    FAIL() << "shards=4 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown field 'shards'"),
              std::string::npos)
        << e.what();
  }
  const char* argv[] = {"prog", "--shards=4"};
  try {
    const util::Cli cli(2, argv, solver::SolverConfig::cli_flags());
    FAIL() << "--shards=4 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag: --shards"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExecutionConfig, RejectsNegativeThreads) {
  EXPECT_THROW(solver::SolverConfig::from_string("threads=-2"),
               std::invalid_argument);
}

}  // namespace
}  // namespace mstep::par
