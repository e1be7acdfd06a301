// The threaded sweep's headline guarantee: a threads=N solve is BITWISE
// identical to the serial solve for every registered splitting x operator
// format x thread count — including thread counts that do not divide the
// class sizes and thread counts wider than a class's window count (empty
// strips).  Also pins the strip rule the sweep splits a class with.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "color/greedy.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "la/class_segments.hpp"
#include "par/thread_pool.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::solver {
namespace {

void expect_bitwise_equal(const SolveReport& serial, const SolveReport& got,
                          const std::string& what) {
  ASSERT_TRUE(serial.converged()) << what;
  ASSERT_TRUE(got.converged()) << what;
  ASSERT_EQ(serial.iterations(), got.iterations()) << what;
  ASSERT_EQ(serial.result.final_delta_inf, got.result.final_delta_inf)
      << what;
  ASSERT_EQ(serial.result.inner_products, got.result.inner_products) << what;
  ASSERT_EQ(serial.solution, got.solution) << what;
}

color::ColoredSystem colored(const problems::Problem& p) {
  return color::make_colored_system(
      p.matrix, p.has_classes() ? p.classes
                                : color::greedy_classes_from_matrix(p.matrix));
}

// ---- the facade-level guarantee ---------------------------------------------

// Every registered splitting x {csr, dia, sell} x threads {1, 2, 4, 7}
// produces the serial bits.  The grid is above par::kSerialCutoff so the
// threaded sweep engages, and 7 threads do not divide its classes; the
// right-hand side is random, so PCG really iterates.
TEST(ThreadedSolve, EverySplittingFormatThreadsMatchesSerialBitwise) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=48");
  ASSERT_TRUE(p.has_classes());
  ASSERT_GE(p.matrix.rows(), 2048);
  util::Rng rng(3);
  const Vec b = rng.uniform_vector(p.matrix.rows());

  for (const auto& splitting : SplittingRegistry::instance().names()) {
    for (const MatrixFormat format :
         {MatrixFormat::kCsr, MatrixFormat::kDia, MatrixFormat::kSell}) {
      SolverConfig base;
      base.splitting = splitting;
      base.steps = 2;
      base.format = format;
      base.tolerance = 1e-8;

      const auto serial_report =
          Solver::from_config(base).prepare(p.matrix, p.classes).solve(b);

      for (const int threads : {1, 2, 4, 7}) {
        SolverConfig cfg = base;
        cfg.execution.threads = threads;
        const std::string what = splitting + "/" + to_string(format) +
                                 "/threads=" + std::to_string(threads);
        const auto report =
            Solver::from_config(cfg).prepare(p.matrix, p.classes).solve(b);
        expect_bitwise_equal(serial_report, report, what);
        ASSERT_EQ(report.format_selected, serial_report.format_selected)
            << what;
        ASSERT_EQ(report.sweep_format, serial_report.sweep_format) << what;
        if (splitting == "ssor" && threads >= 2) {
          EXPECT_EQ(report.preconditioner_name.rfind("parallel-", 0), 0u)
              << what;
        }
      }
    }
  }
}

// ---- the sweep itself, below the facade's serial cutoff --------------------

// The m-step sweep on a pool gives the serial apply's bits in both segment
// layouts, on systems small enough that 7 threads outnumber a class's
// windows (2 SELL windows per class at n = 12; 5 and 4 DIA windows at
// n = 3), so empty strips are exercised, plus the multi-colour FEM plate.
TEST(ThreadedSweep, EveryLayoutAndThreadCountMatchesSerialApplyBitwise) {
  for (const char* spec :
       {"poisson2d:n=12", "poisson2d:n=3", "femplate:a=8"}) {
    const problems::Problem p =
        problems::ProblemRegistry::instance().create(spec);
    const color::ColoredSystem cs = colored(p);
    const auto alphas = core::least_squares_alphas(3, core::ssor_interval());
    util::Rng rng(5);
    const Vec r = rng.uniform_vector(cs.size());

    for (const auto layout :
         {la::SegmentLayout::kSell, la::SegmentLayout::kDia}) {
      const auto plan = core::SweepPlan::build(cs, layout);
      Vec want;
      core::MulticolorMStepSsor(plan, alphas).apply(r, want);
      for (const int threads : {1, 2, 4, 7}) {
        par::ThreadPool pool(threads);
        const core::MulticolorMStepSsor threaded(plan, alphas, nullptr,
                                                 &pool);
        Vec got;
        threaded.apply(r, got);
        threaded.apply(r, got);  // scratch reuse across applies
        ASSERT_EQ(want, got) << spec << " " << la::to_string(layout)
                             << " threads=" << threads;
      }
    }
  }
}

// ---- the strip rule ---------------------------------------------------------

// strip(k, t) hands window w to strip w * t / W (the equal-strip rule),
// so the strips of a class concatenate to its parts and rows in order,
// differ in size by at most one window, and strip k's neg_sums write
// exactly its own row range — which is what lets one dispatch per class
// sum and then update the same rows.
TEST(SweepStrips, EqualWindowStripsPartitionEveryClass) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("femplate:a=16");
  const color::ColoredSystem cs = colored(p);
  const color::RowSplits splits = color::compute_row_splits(cs);
  util::Rng rng(9);
  const Vec x = rng.uniform_vector(cs.size());

  for (const auto layout :
       {la::SegmentLayout::kSell, la::SegmentLayout::kDia}) {
    for (int c = 0; c < cs.num_classes(); ++c) {
      const index_t rb = cs.class_start[c];
      const index_t re = cs.class_start[c + 1];
      const la::ClassSegments segs = la::ClassSegments::build(
          layout, cs.matrix, cs.matrix.row_ptr().data(), splits.lo_end.data(),
          rb, re);
      ASSERT_EQ(segs.row_begin(), rb);
      ASSERT_EQ(segs.row_end(), re);
      // Window size as the layout defines it: one row, or one sigma window.
      const index_t window = layout == la::SegmentLayout::kDia
                                 ? 1
                                 : la::SellMatrix::kDefaultSigma;
      const index_t windows = (re - rb + window - 1) / window;

      for (const index_t t : {1, 2, 3, 4, 7, 64}) {
        const std::string what = std::string(la::to_string(layout)) +
                                 " class " + std::to_string(c) +
                                 " strips=" + std::to_string(t);
        index_t part = 0;
        index_t row = rb;
        for (index_t k = 0; k < t; ++k) {
          const la::ClassSegments::Strip s = segs.strip(k, t);
          ASSERT_EQ(s.part_begin, part) << what;
          ASSERT_EQ(s.row_begin, row) << what;
          ASSERT_LE(s.part_begin, s.part_end) << what;
          ASSERT_LE(s.row_begin, s.row_end) << what;
          // Every window w of this strip satisfies w * t / W == k.
          for (index_t w = (s.row_begin - rb) / window;
               s.row_begin < s.row_end && w * window < s.row_end - rb; ++w) {
            ASSERT_EQ(w * t / windows, k) << what << " window " << w;
          }
          const index_t strip_windows =
              (s.row_end - s.row_begin + window - 1) / window;
          ASSERT_LE(strip_windows, (windows + t - 1) / t) << what;
          ASSERT_GE(strip_windows, windows / t) << what;

          Vec out(cs.size(), std::numeric_limits<double>::quiet_NaN());
          segs.neg_sums(x.data(), out.data(), s.part_begin, s.part_end);
          for (index_t i = 0; i < cs.size(); ++i) {
            const bool mine = i >= s.row_begin && i < s.row_end;
            ASSERT_EQ(!std::isnan(out[i]), mine) << what << " row " << i;
          }
          part = s.part_end;
          row = s.row_end;
        }
        ASSERT_EQ(part, segs.num_parts()) << what;
        ASSERT_EQ(row, re) << what;
      }
    }
  }
}

// ---- batched interplay ------------------------------------------------------

// A solver built with threads=4 also serves batches: lanes take the pool
// and run the serial kernels, and every right-hand side keeps its serial
// bits whether the lane count is left to the engine or requested.
TEST(ThreadedSolve, BatchedSolvesStayBitwise) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=48");

  std::vector<Vec> bs;
  util::Rng rng(7);
  for (int j = 0; j < 4; ++j) bs.push_back(rng.uniform_vector(p.rhs.size()));

  SolverConfig plain;
  plain.steps = 2;
  plain.tolerance = 1e-8;
  const auto serial = Solver::from_config(plain).prepare(p.matrix, p.classes);
  std::vector<SolveReport> expected;
  for (const Vec& f : bs) expected.push_back(serial.solve(f));

  SolverConfig cfg = plain;
  cfg.execution.threads = 4;
  const auto prepared = Solver::from_config(cfg).prepare(p.matrix, p.classes);

  for (const int concurrency : {0, 1, 4}) {
    BatchConfig batch;
    batch.concurrency = concurrency;
    const auto got = prepared.solveMany(util::Span<const Vec>(bs), batch);
    for (std::size_t i = 0; i < bs.size(); ++i) {
      ASSERT_TRUE(got.ok(i));
      expect_bitwise_equal(expected[i], got.reports[i],
                           "concurrency=" + std::to_string(concurrency) +
                               " rhs " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace mstep::solver
