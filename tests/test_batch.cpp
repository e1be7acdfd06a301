// The batched multi-RHS engine: per-RHS bitwise identity with the serial
// solve for every registered splitting and batch width, the error channel
// (one bad right-hand side never poisons the batch), the batch/threads
// config round-trip, and the zero-thread-pool audit.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "color/coloring.hpp"
#include "fem/plane_stress.hpp"
#include "par/execution.hpp"
#include "par/thread_pool.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::solver {
namespace {

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

std::vector<Vec> make_rhs_set(const Plate& p, int count) {
  std::vector<Vec> bs;
  bs.reserve(static_cast<std::size_t>(count));
  bs.push_back(p.f);
  util::Rng rng(7);
  for (int j = 1; j < count; ++j) {
    bs.push_back(rng.uniform_vector(p.f.size()));
  }
  return bs;
}

void expect_bitwise_equal(const SolveReport& serial, const SolveReport& batched,
                          const std::string& what) {
  ASSERT_TRUE(serial.converged()) << what;
  ASSERT_TRUE(batched.converged()) << what;
  ASSERT_EQ(serial.iterations(), batched.iterations()) << what;
  ASSERT_EQ(serial.result.final_delta_inf, batched.result.final_delta_inf)
      << what;
  ASSERT_EQ(serial.result.inner_products, batched.result.inner_products)
      << what;
  ASSERT_EQ(serial.solution.size(), batched.solution.size()) << what;
  for (std::size_t i = 0; i < serial.solution.size(); ++i) {
    ASSERT_EQ(serial.solution[i], batched.solution[i]) << what << " i=" << i;
  }
}

// ---- the ISSUE-level guarantee ----------------------------------------------

// For every registered splitting and batch of {1, 3, 16} right-hand sides,
// each batched result is bitwise identical to the corresponding serial
// Prepared::solve.
TEST(SolveMany, EverySplittingAndBatchWidthMatchesSerialBitwise) {
  const Plate p = make_plate(36);  // 2520 equations: above the cutoffs
  const std::vector<Vec> all_bs = make_rhs_set(p, 16);

  for (const auto& splitting : SplittingRegistry::instance().names()) {
    SolverConfig cfg;
    cfg.splitting = splitting;
    cfg.steps = 2;
    cfg.tolerance = 1e-8;

    // Serial references, one per right-hand side.
    const auto serial = Solver::from_config(cfg).prepare(p.k, p.classes);
    std::vector<SolveReport> expected;
    for (const Vec& f : all_bs) expected.push_back(serial.solve(f));

    cfg.batch = 4;  // four concurrent lanes on the shared pool
    const auto solver = Solver::from_config(cfg);
    const auto prepared = solver.prepare(p.k, p.classes);
    for (const int width : {1, 3, 16}) {
      const std::vector<Vec> bs(all_bs.begin(), all_bs.begin() + width);
      const BatchReport br = prepared.solveMany(bs);
      ASSERT_EQ(br.size(), static_cast<std::size_t>(width));
      ASSERT_EQ(br.num_failed(), 0u);
      ASSERT_TRUE(br.all_converged());
      EXPECT_GE(br.concurrency, 1);
      EXPECT_LE(br.concurrency, 4);
      for (int i = 0; i < width; ++i) {
        expect_bitwise_equal(expected[static_cast<std::size_t>(i)],
                             br.reports[static_cast<std::size_t>(i)],
                             splitting + " width=" + std::to_string(width) +
                                 " rhs=" + std::to_string(i));
      }
    }
  }
}

TEST(SolveMany, GenericSsorOmegaAndNaturalOrderingMatchSerial) {
  const Plate p = make_plate(36);
  const std::vector<Vec> bs = make_rhs_set(p, 5);

  // omega != 1 leaves the Algorithm-2 fast path; natural ordering skips
  // the colour permutation entirely.  Both must batch bitwise.
  for (const bool natural : {false, true}) {
    SolverConfig cfg;
    cfg.splitting_options["omega"] = 1.3;
    cfg.steps = 2;
    cfg.tolerance = 1e-8;
    if (natural) cfg.ordering = Ordering::kNatural;

    const auto serial = natural
                            ? Solver::from_config(cfg).prepare(p.k)
                            : Solver::from_config(cfg).prepare(p.k, p.classes);
    cfg.batch = 3;
    const auto batched_solver = Solver::from_config(cfg);
    const auto prepared = natural
                              ? batched_solver.prepare(p.k)
                              : batched_solver.prepare(p.k, p.classes);
    const BatchReport br = prepared.solveMany(bs);
    ASSERT_TRUE(br.all_converged());
    for (std::size_t i = 0; i < bs.size(); ++i) {
      expect_bitwise_equal(serial.solve(bs[i]), br.reports[i],
                           std::string(natural ? "natural" : "multicolor") +
                               " omega=1.3 rhs=" + std::to_string(i));
    }
  }
}

TEST(SolveMany, DiaFormatBatchesBitwise) {
  const Plate p = make_plate(36);
  const std::vector<Vec> bs = make_rhs_set(p, 3);
  SolverConfig cfg;
  cfg.format = MatrixFormat::kDia;
  cfg.steps = 2;
  cfg.tolerance = 1e-8;
  const auto serial = Solver::from_config(cfg).prepare(p.k, p.classes);
  cfg.batch = 3;
  const BatchReport br =
      Solver::from_config(cfg).prepare(p.k, p.classes).solveMany(bs);
  ASSERT_TRUE(br.all_converged());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    expect_bitwise_equal(serial.solve(bs[i]), br.reports[i],
                         "dia rhs=" + std::to_string(i));
  }
}

TEST(SolveMany, PlainCgBatchesBitwise) {
  const Plate p = make_plate(36);
  const std::vector<Vec> bs = make_rhs_set(p, 3);
  SolverConfig cfg;
  cfg.steps = 0;  // identity preconditioner
  cfg.ordering = Ordering::kNatural;
  cfg.tolerance = 1e-8;
  const auto serial = Solver::from_config(cfg).prepare(p.k);
  cfg.batch = 3;
  const BatchReport br =
      Solver::from_config(cfg).prepare(p.k).solveMany(bs);
  ASSERT_TRUE(br.all_converged());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    expect_bitwise_equal(serial.solve(bs[i]), br.reports[i],
                         "m=0 rhs=" + std::to_string(i));
  }
}

// ---- error channel ----------------------------------------------------------

TEST(SolveMany, ExceptionInOneRhsLeavesOtherReportsIntact) {
  const Plate p = make_plate(36);
  std::vector<Vec> bs = make_rhs_set(p, 3);
  bs[1].resize(bs[1].size() - 7);  // dimension mismatch: this RHS throws

  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  cfg.batch = 2;
  const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
  const BatchReport br = prepared.solveMany(bs);

  ASSERT_EQ(br.num_failed(), 1u);
  EXPECT_FALSE(br.ok(1));
  EXPECT_FALSE(br.all_converged());
  EXPECT_THROW(br.rethrow_first_error(), std::invalid_argument);

  // The healthy right-hand sides completed, bitwise as ever.
  SolverConfig serial_cfg;
  serial_cfg.tolerance = cfg.tolerance;
  const auto serial = Solver::from_config(serial_cfg).prepare(p.k, p.classes);
  ASSERT_TRUE(br.ok(0));
  ASSERT_TRUE(br.ok(2));
  expect_bitwise_equal(serial.solve(bs[0]), br.reports[0], "surviving rhs 0");
  expect_bitwise_equal(serial.solve(bs[2]), br.reports[2], "surviving rhs 2");
}

// Prepared::solve is a one-lane solveMany that rethrows the lane's error:
// a mis-sized right-hand side or initial guess throws on a coloured
// pipeline, and a warm start from the solution stops at once.
TEST(SolveMany, SolveRethrowsBadSizesAndTakesAWarmStart) {
  const Plate p = make_plate(12);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
  const Vec short_vec(p.f.size() - 3, 1.0);
  EXPECT_THROW((void)prepared.solve(short_vec), std::invalid_argument);
  EXPECT_THROW((void)prepared.solve(p.f, short_vec), std::invalid_argument);

  const SolveReport cold = prepared.solve(p.f);
  ASSERT_TRUE(cold.converged());
  const SolveReport warm = prepared.solve(p.f, cold.solution);
  ASSERT_TRUE(warm.converged());
  EXPECT_LT(warm.iterations(), cold.iterations());
}

TEST(SolveMany, EmptyBatchAndBadConcurrency) {
  const Plate p = make_plate(12);
  SolverConfig cfg;
  const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
  const BatchReport br = prepared.solveMany(std::vector<Vec>{});
  EXPECT_EQ(br.size(), 0u);
  EXPECT_TRUE(br.all_converged());
  EXPECT_EQ(br.num_failed(), 0u);

  // The lane count is the config's `batch`, checked when the solver is
  // built.
  cfg.batch = -1;
  EXPECT_THROW((void)Solver::from_config(cfg), std::invalid_argument);
}

TEST(SolveMany, ExplicitConcurrencyIsHonored) {
  const Plate p = make_plate(36);
  const std::vector<Vec> bs = make_rhs_set(p, 8);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  for (const int batch : {2, 6}) {
    cfg.batch = batch;
    const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
    // The config's `batch` sets the lanes...
    EXPECT_EQ(prepared.solveMany(bs).concurrency, batch);
    // ...but never more than there are right-hand sides.
    EXPECT_EQ(prepared.solveMany(util::Span<const Vec>(bs.data(), 1))
                  .concurrency,
              1);
  }
  // A pool wider than the lanes asked for keeps the asked-for count.
  cfg.batch = 2;
  cfg.execution.threads = 4;
  EXPECT_EQ(Solver::from_config(cfg).prepare(p.k, p.classes).solveMany(bs)
                .concurrency,
            2);
}

// ---- config plumbing --------------------------------------------------------

TEST(BatchConfig, RoundTripsThroughStringAndCli) {
  SolverConfig cfg;
  cfg.batch = 8;
  EXPECT_NE(cfg.to_string().find(";batch=8"), std::string::npos);
  EXPECT_EQ(cfg, SolverConfig::from_string(cfg.to_string()));

  const char* argv[] = {"prog", "--batch=5", "--threads=2"};
  const util::Cli cli(3, argv, SolverConfig::cli_flags());
  const auto from_cli = SolverConfig::from_cli(cli);
  EXPECT_EQ(from_cli.batch, 5);
  EXPECT_EQ(from_cli.execution.threads, 2);

  // batch=0 (the default) keeps config strings unchanged.
  EXPECT_EQ(SolverConfig{}.to_string().find("batch"), std::string::npos);
  EXPECT_THROW(SolverConfig::from_string("batch=-1"), std::invalid_argument);
}

TEST(BatchConfig, BatchOnlyConfigKeepsKernelPathSerial) {
  // threads=0;batch=4: a pool exists for the lanes, but each individual
  // solve must run the serial kernel path — bitwise AND structurally (the
  // single-solve result equals the fully serial solver's).
  const Plate p = make_plate(36);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto serial = Solver::from_config(cfg);
  EXPECT_EQ(serial.execution(), nullptr);

  cfg.batch = 4;
  const auto batched = Solver::from_config(cfg);
  ASSERT_NE(batched.execution(), nullptr);
  EXPECT_EQ(batched.execution()->threads(), 4);

  const auto a = serial.solve(p.k, p.f, p.classes);
  const auto b = batched.solve(p.k, p.f, p.classes);
  expect_bitwise_equal(a, b, "threads=0;batch=4 single solve");
  EXPECT_EQ(a.preconditioner_name, b.preconditioner_name);
}

// ---- the zero-thread-pool audit ---------------------------------------------

TEST(ZeroThreadAudit, ThreadPoolRefusesNonPositiveCounts) {
  EXPECT_THROW(par::ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(par::ThreadPool(-3), std::invalid_argument);
}

TEST(ZeroThreadAudit, ResolveCollapsesZeroAndOneToSerial) {
  EXPECT_EQ(ExecutionConfig{0}.resolve(), 0);
  EXPECT_EQ(ExecutionConfig{1}.resolve(), 0);
  EXPECT_EQ(ExecutionConfig{2}.resolve(), 2);
  EXPECT_EQ(ExecutionConfig{8}.resolve(), 8);
}

TEST(ZeroThreadAudit, RoundTrippedSerialConfigsBuildNoPool) {
  // threads=0 and threads=1 both mean serial after any round-trip: the
  // solver constructs no execution engine, so no path can reach a
  // 0-thread pool.
  for (const std::string text : {"m=2", "m=2;threads=1"}) {
    const auto solver = Solver::from_string(text);
    EXPECT_EQ(solver.execution(), nullptr) << text;
  }
  const auto cfg = SolverConfig::from_string("m=2;threads=1");
  EXPECT_EQ(cfg.execution.resolve(), 0);
}

}  // namespace
}  // namespace mstep::solver
