// The DIA layout of the multicolor sweep's coupling segments (the paper's
// CYBER layout, Section 3.1): bitwise determinism across every execution
// path, agreement with the SELL layout, a brute-force check of the DIA
// segment build and its runs, the fused sweep pass against the two-pass
// sweep it replaced, the shared sweep plan (no per-call rebuilds), the
// reported sweep format, and pinned solution bits of both layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "color/greedy.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "la/class_segments.hpp"
#include "la/dia_matrix.hpp"
#include "la/simd.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep {
namespace {

using solver::MatrixFormat;
using solver::Solver;
using solver::SolverConfig;
using solver::SolveReport;

constexpr const char* kConfig =
    "splitting=ssor;m=4;params=lsq;ordering=multicolor";

// Above par::kSerialCutoff (2048 rows), so the threaded sweep engages.
const char* const kSystems[] = {"femplate:a=36", "cyberplate:a=36",
                                "poisson2d:n=48", "randspd:n=2500:band=8"};

struct System {
  problems::Problem problem;
  color::ColorClasses classes;  // closed-form, else greedy (as prepare)
};

System load(const std::string& spec) {
  System s;
  s.problem = problems::ProblemRegistry::instance().create(spec);
  s.classes = s.problem.has_classes()
                  ? s.problem.classes
                  : color::greedy_classes_from_matrix(s.problem.matrix);
  return s;
}

SolverConfig config(MatrixFormat format) {
  SolverConfig cfg = SolverConfig::from_string(kConfig);
  cfg.format = format;
  return cfg;
}

SolveReport solve(const SolverConfig& cfg, const System& s, const Vec& b) {
  return Solver::from_config(cfg)
      .prepare(s.problem.matrix, s.classes)
      .solve(b);
}

void expect_same_bits(const SolveReport& want, const SolveReport& got,
                      const std::string& what) {
  ASSERT_TRUE(want.converged()) << what;
  ASSERT_TRUE(got.converged()) << what;
  ASSERT_EQ(want.iterations(), got.iterations()) << what;
  ASSERT_EQ(want.result.final_delta_inf, got.result.final_delta_inf) << what;
  ASSERT_EQ(want.solution, got.solution) << what;
  ASSERT_EQ(got.sweep_format, "dia") << what;
}

// ---- bitwise determinism ---------------------------------------------------

TEST(DiaSweep, EveryExecutionPathGivesTheSerialBits) {
  for (const char* spec : kSystems) {
    const System s = load(spec);
    const index_t n = s.problem.matrix.rows();
    ASSERT_GE(n, 2048) << spec;
    util::Rng rng(11);
    std::vector<Vec> bs;
    for (int i = 0; i < 5; ++i) bs.push_back(rng.uniform_vector(n));

    const SolverConfig base = config(MatrixFormat::kDia);
    const solver::Prepared serial =
        Solver::from_config(base).prepare(s.problem.matrix, s.classes);
    std::vector<SolveReport> want;
    for (const Vec& b : bs) want.push_back(serial.solve(b));
    ASSERT_EQ(want[0].sweep_format, "dia") << spec;

    for (const int threads : {1, 2, 4, 7}) {
      SolverConfig cfg = base;
      cfg.execution.threads = threads;
      const SolveReport got = solve(cfg, s, bs[0]);
      expect_same_bits(want[0], got,
                       std::string(spec) + " threads=" +
                           std::to_string(threads));
      if (threads >= 2) {
        EXPECT_EQ(got.preconditioner_name.rfind("parallel-", 0), 0u)
            << spec << " threads=" << threads;
      }
    }
    {
      SolverConfig cfg = base;
      cfg.batch = 4;
      const solver::BatchReport batch =
          Solver::from_config(cfg)
              .prepare(s.problem.matrix, s.classes)
              .solveMany(util::Span<const Vec>(bs.data(), bs.size()));
      ASSERT_EQ(batch.num_failed(), 0u) << spec;
      for (std::size_t i = 0; i < bs.size(); ++i) {
        expect_same_bits(want[i], batch.reports[i],
                         std::string(spec) + " lane rhs " +
                             std::to_string(i));
      }
    }
    for (const auto mode : {la::simd::SimdMode::kForceScalar,
                            la::simd::SimdMode::kForceVector}) {
      const la::simd::SimdModeGuard guard(mode);
      expect_same_bits(want[0], serial.solve(bs[0]),
                       std::string(spec) + " simd=" +
                           la::simd::simd_isa());
    }
  }
}

// ---- DIA vs SELL ------------------------------------------------------------

double max_abs(const Vec& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

TEST(DiaSweep, AgreesWithSellPerApplyAndInIterations) {
  const std::vector<double> alphas =
      core::least_squares_alphas(4, core::ssor_interval());
  for (const char* spec : kSystems) {
    const System s = load(spec);
    const color::ColoredSystem cs =
        color::make_colored_system(s.problem.matrix, s.classes);
    const core::MulticolorMStepSsor sell(
        core::SweepPlan::build(cs, la::SegmentLayout::kSell), alphas);
    const core::MulticolorMStepSsor dia(
        core::SweepPlan::build(cs, la::SegmentLayout::kDia), alphas);

    util::Rng rng(5);
    for (int rep = 0; rep < 3; ++rep) {
      const Vec r = rng.uniform_vector(cs.size());
      Vec zs, zd;
      sell.apply(r, zs);
      dia.apply(r, zd);
      Vec diff(zs.size());
      for (std::size_t i = 0; i < zs.size(); ++i) diff[i] = zs[i] - zd[i];
      EXPECT_LE(max_abs(diff), 1e-13 * max_abs(zs)) << spec;
    }

    const Vec b = cs.permute(rng.uniform_vector(cs.size()));
    const core::PcgResult with_sell =
        core::pcg_solve(cs.matrix, b, sell, core::PcgOptions{});
    const core::PcgResult with_dia =
        core::pcg_solve(cs.matrix, b, dia, core::PcgOptions{});
    ASSERT_TRUE(with_sell.converged) << spec;
    ASSERT_TRUE(with_dia.converged) << spec;
    EXPECT_EQ(with_sell.iterations, with_dia.iterations) << spec;

    // And through the facade: the DIA pipeline against the CSR one.
    const Vec f = rng.uniform_vector(cs.size());
    EXPECT_EQ(solve(config(MatrixFormat::kDia), s, f).iterations(),
              solve(config(MatrixFormat::kCsr), s, f).iterations())
        << spec;
  }
}

// ---- DiaSegments::build, brute force ----------------------------------------

/// Checks every class's lower and upper DIA segments of `cs` against the
/// CSR matrix; counts the explicit zeros the segments had to skip.
void check_segments(const color::ColoredSystem& cs, long long* skipped) {
  const auto plan = core::SweepPlan::build(cs, la::SegmentLayout::kDia);
  const color::RowSplits& splits = plan->splits();
  const la::CsrMatrix& a = cs.matrix;
  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  const index_t n = cs.size();
  long long& explicit_zeros = *skipped;
  explicit_zeros = 0;

  for (int c = 0; c < cs.num_classes(); ++c) {
    const index_t rb = cs.class_start[c];
    const index_t re = cs.class_start[c + 1];
    for (const bool lower : {true, false}) {
      const la::ClassSegments& segs = lower ? plan->lower(c) : plan->upper(c);
      ASSERT_EQ(segs.layout(), la::SegmentLayout::kDia);
      const la::DiaSegments& d = segs.dia();
      ASSERT_EQ(d.row_begin(), rb);
      ASSERT_EQ(d.rows(), re - rb);
      EXPECT_EQ(d.num_diagonals(),
                lower ? plan->census().lower[c] : plan->census().upper[c]);

      // Every stored value equals its CSR entry (holes: absent or an
      // explicit zero), and no range reads outside [0, n) or inside the
      // class itself.
      for (index_t k = 0; k < d.num_diagonals(); ++k) {
        if (k > 0) {
          ASSERT_LT(d.offset(k - 1), d.offset(k));
        }
        ASSERT_LE(0, d.lo(k));
        ASSERT_LT(d.lo(k), d.hi(k));
        ASSERT_LE(d.hi(k), d.rows());
        // Live range: explicit zeros neither open a diagonal nor widen it.
        ASSERT_NE(d.values(k)[0], 0.0);
        ASSERT_NE(d.values(k)[d.hi(k) - d.lo(k) - 1], 0.0);
        for (index_t i = d.lo(k); i < d.hi(k); ++i) {
          const index_t g = rb + i;
          const index_t j = g + d.offset(k);
          ASSERT_GE(j, 0);
          ASSERT_LT(j, n);
          ASSERT_TRUE(lower ? j < rb : j >= re)
              << "class " << c << " row " << g << " reads column " << j;
          ASSERT_EQ(d.values(k)[i - d.lo(k)], a.at(g, j));
        }
      }

      // Every CSR nonzero of the segment is stored exactly once.
      for (index_t g = rb; g < re; ++g) {
        const index_t begin = lower ? rp[g] : splits.up_begin[g];
        const index_t end = lower ? splits.lo_end[g] : rp[g + 1];
        for (index_t t = begin; t < end; ++t) {
          if (val[t] == 0.0) {
            ++explicit_zeros;
            continue;
          }
          int stored = 0;
          for (index_t k = 0; k < d.num_diagonals(); ++k) {
            const index_t i = g - rb;
            if (d.offset(k) != col[t] - g || i < d.lo(k) || i >= d.hi(k)) {
              continue;
            }
            ++stored;
            EXPECT_EQ(d.values(k)[i - d.lo(k)], val[t]);
          }
          ASSERT_EQ(stored, 1) << "row " << g << " column " << col[t];
        }
      }
    }
  }
  // A class block's diagonals are a subset of the matrix's.
  EXPECT_LE(plan->stored_values(),
            la::DiaMatrix::from_csr(cs.matrix).stored_values());
}

TEST(DiaSegmentsBuild, MatchesTheCsrMatrixEntryForEntry) {
  for (const char* spec : kSystems) {
    SCOPED_TRACE(spec);
    const System s = load(spec);
    long long skipped = 0;
    check_segments(color::make_colored_system(s.problem.matrix, s.classes),
                  &skipped);
  }
}

TEST(DiaSegmentsBuild, SkipsExplicitZeros) {
  // Red/black Poisson plus explicit zeros on couplings (i, i + 3) between
  // the two classes: a new offset that only ever holds zeros.
  const System s = load("poisson2d:n=10");
  const la::CsrMatrix& k = s.problem.matrix;
  const index_t n = k.rows();
  std::vector<int> cls(static_cast<std::size_t>(n));
  for (int c = 0; c < s.classes.num_classes(); ++c) {
    for (const index_t i : s.classes.classes[c]) cls[i] = c;
  }
  la::CooBuilder coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t t = k.row_ptr()[i]; t < k.row_ptr()[i + 1]; ++t) {
      coo.add(i, k.col_idx()[t], k.values()[t]);
    }
    const index_t j = i + 3;
    if (j < n && cls[i] != cls[j] && k.at(i, j) == 0.0) {
      coo.add(i, j, 0.0);
      coo.add(j, i, 0.0);
    }
  }
  const la::CsrMatrix with_zeros = coo.build();
  ASSERT_GT(with_zeros.nnz(), k.nnz());

  const color::ColoredSystem plain = color::make_colored_system(k, s.classes);
  const color::ColoredSystem zeros =
      color::make_colored_system(with_zeros, s.classes);
  long long skipped = -1;
  check_segments(plain, &skipped);
  EXPECT_EQ(skipped, 0);
  check_segments(zeros, &skipped);
  EXPECT_GT(skipped, 0);

  // The zeros are invisible: the same diagonals, ranges and values.
  const auto a = core::SweepPlan::build(plain, la::SegmentLayout::kDia);
  const auto b = core::SweepPlan::build(zeros, la::SegmentLayout::kDia);
  for (int c = 0; c < plain.num_classes(); ++c) {
    for (const bool lower : {true, false}) {
      const la::DiaSegments& da = (lower ? a->lower(c) : a->upper(c)).dia();
      const la::DiaSegments& db = (lower ? b->lower(c) : b->upper(c)).dia();
      ASSERT_EQ(da.num_diagonals(), db.num_diagonals());
      for (index_t d = 0; d < da.num_diagonals(); ++d) {
        ASSERT_EQ(da.offset(d), db.offset(d));
        ASSERT_EQ(da.lo(d), db.lo(d));
        ASSERT_EQ(da.hi(d), db.hi(d));
        ASSERT_TRUE(std::equal(da.values(d),
                               da.values(d) + (da.hi(d) - da.lo(d)),
                               db.values(d)));
      }
    }
  }
}

TEST(DiaSegmentsBuild, AnyPartSplitGivesTheSameSums) {
  const System s = load("femplate:a=12");
  const color::ColoredSystem cs =
      color::make_colored_system(s.problem.matrix, s.classes);
  const auto plan = core::SweepPlan::build(cs, la::SegmentLayout::kDia);
  const Vec x = util::Rng(3).uniform_vector(cs.size());
  for (int c = 0; c < cs.num_classes(); ++c) {
    const la::ClassSegments& segs = plan->lower(c);
    Vec whole(cs.size(), 7.0), pieces(cs.size(), 7.0);
    segs.neg_sums(x.data(), whole.data(), 0, segs.num_parts());
    for (index_t b = 0; b < segs.num_parts(); b += 5) {
      segs.neg_sums(x.data(), pieces.data(), b,
                    std::min(segs.num_parts(), b + 5));
    }
    ASSERT_EQ(whole, pieces) << "class " << c;
    // Rows outside the class are untouched.
    for (index_t i = 0; i < cs.size(); ++i) {
      if (i < cs.class_start[c] || i >= cs.class_start[c + 1]) {
        ASSERT_EQ(whole[i], 7.0);
      }
    }
  }
}

// ---- runs and the fused pass -----------------------------------------------

/// The runs of `d` partition its rows; within a run every diagonal is live
/// on all rows or on none, the run lists exactly the live ones, and
/// adjacent runs differ (the runs are maximal).
void check_runs(const la::DiaSegments& d) {
  const auto live = [&](index_t k, index_t i) {
    return d.lo(k) <= i && i < d.hi(k);
  };
  ASSERT_GE(d.num_runs(), d.rows() > 0 ? 1 : 0);
  index_t row = 0;
  for (index_t r = 0; r < d.num_runs(); ++r) {
    ASSERT_EQ(d.run_begin(r), row);
    ASSERT_LT(d.run_begin(r), d.run_end(r));
    index_t count = 0;
    for (index_t k = 0; k < d.num_diagonals(); ++k) {
      const bool first = live(k, d.run_begin(r));
      for (index_t i = d.run_begin(r); i < d.run_end(r); ++i) {
        ASSERT_EQ(live(k, i), first) << "run " << r << " diagonal " << k;
      }
      count += first ? 1 : 0;
    }
    ASSERT_EQ(d.run_diagonals(r), count) << "run " << r;
    if (r > 0) {
      bool differs = false;
      for (index_t k = 0; k < d.num_diagonals(); ++k) {
        differs |= live(k, d.run_begin(r)) != live(k, d.run_begin(r) - 1);
      }
      ASSERT_TRUE(differs) << "runs " << r - 1 << " and " << r;
    }
    row = d.run_end(r);
  }
  ASSERT_EQ(row, d.rows());
}

/// The sweep as it ran before the fused pass: the class's negated sums
/// into a scratch vector — zeroed, then one subtract triad per diagonal
/// over its live rows — and then a separate scalar row update.
void reference_pass(const la::DiaSegments& d, const la::simd::RowUpdate& u,
                    const Vec& x) {
  using Mode = la::simd::RowUpdate::Mode;
  const index_t rb = d.row_begin();
  Vec sums(x.size(), 0.0);
  for (index_t k = 0; k < d.num_diagonals(); ++k) {
    la::simd::dia_triad(d.values(k), x.data() + rb + d.lo(k),
                        sums.data() + rb + d.lo(k), 0, d.hi(k) - d.lo(k),
                        d.offset(k), /*subtract=*/true);
  }
  for (index_t g = rb; g < rb + d.rows(); ++g) {
    const double s = sums[g];
    switch (u.mode) {
      case Mode::kSolve:
      case Mode::kSolveLast:
        u.z[g] = (s + u.y[g] + u.alpha * u.r[g]) / u.diag[g];
        u.y[g] = u.mode == Mode::kSolve ? s : 0.0;
        break;
      case Mode::kSave:
        u.y[g] = s;
        break;
      case Mode::kFinal:
        u.z[g] = (u.y[g] + u.alpha * u.r[g]) / u.diag[g];
        break;
    }
  }
}

TEST(DiaRuns, FusedPassMatchesTheTwoPassSweepAcrossRunBoundaries) {
  // One class of 32 rows, [16, 48), of an 80-row matrix, with staggered
  // live ranges: runs of 1 to 12 rows, rows with no live diagonal at both
  // ends, holes inside the ranges (absent entries and an explicit zero)
  // and an explicit zero past a range's end, which must not widen it.
  // Rows [48, 54) hold no entries: a class with 0 diagonals.  The kernel
  // reads x from a vector of its own here, so columns may fall anywhere.
  const index_t n = 80;
  const index_t rb = 16;
  const index_t re = 48;
  util::Rng rng(21);
  la::CooBuilder coo(n, n);
  const auto put = [&](index_t i, index_t offset, double v) {
    coo.add(rb + i, rb + i + offset, v);
  };
  for (index_t i = 1; i < 30; ++i) {
    if (i != 7 && i != 8) put(i, -16, rng.uniform(0.5, 1.5));
  }
  for (index_t i = 2; i < 4; ++i) put(i, -9, rng.uniform(0.5, 1.5));
  for (index_t i = 3; i < 17; ++i) put(i, -5, i == 10 ? 0.0 : rng.uniform());
  put(18, -5, 0.0);
  for (index_t i = 5; i < 29; ++i) put(i, 23, rng.uniform());
  put(9, 30, rng.uniform());
  for (index_t i = 6; i < 9; ++i) put(i, 35, rng.uniform());
  const la::CsrMatrix a = coo.build();
  const index_t* begin = a.row_ptr().data();
  const index_t* end = a.row_ptr().data() + 1;

  const la::ClassSegments segs =
      la::ClassSegments::build(la::SegmentLayout::kDia, a, begin, end, rb, re);
  const la::ClassSegments empty =
      la::ClassSegments::build(la::SegmentLayout::kDia, a, begin, end, re, 54);
  const la::DiaSegments& d = segs.dia();
  ASSERT_EQ(d.num_diagonals(), 6);
  ASSERT_EQ(empty.dia().num_diagonals(), 0);
  ASSERT_EQ(empty.dia().num_runs(), 1);
  check_runs(d);
  check_runs(empty.dia());
  // Cuts at 0 1 2 3 4 5 6 9 10 17 29 30 32.
  ASSERT_EQ(d.num_runs(), 12);
  EXPECT_EQ(d.run_diagonals(0), 0);   // row 0
  EXPECT_EQ(d.run_diagonals(11), 0);  // rows 30, 31
  EXPECT_EQ(d.run_end(1) - d.run_begin(1), 1);
  EXPECT_EQ(d.run_end(9) - d.run_begin(9), 12);

  using Mode = la::simd::RowUpdate::Mode;
  const Vec x = rng.uniform_vector(n);
  const Vec r = rng.uniform_vector(n);
  const Vec diag = rng.uniform_vector(n, 1.0, 2.0);
  const Vec y0 = rng.uniform_vector(n);
  const Vec z0 = rng.uniform_vector(n);
  for (const auto simd : {la::simd::SimdMode::kForceScalar,
                          la::simd::SimdMode::kForceVector}) {
    const la::simd::SimdModeGuard guard(simd);
    for (const Mode mode : {Mode::kSolve, Mode::kSolveLast, Mode::kSave,
                            Mode::kFinal}) {
      for (const la::ClassSegments* cls : {&segs, &empty}) {
        Vec want_y = y0, want_z = z0;
        la::simd::RowUpdate want{mode, 0.75, r.data(), diag.data(),
                                 want_y.data(), want_z.data()};
        reference_pass(cls->dia(), want, x);
        for (const index_t t : {1, 2, 3, 4, 7}) {
          const std::string what =
              std::string(la::simd::simd_isa()) + " mode " +
              std::to_string(static_cast<int>(mode)) + " rows " +
              std::to_string(cls->row_begin()) + " strips " +
              std::to_string(t);
          Vec y = y0, z = z0;
          const la::simd::RowUpdate u{mode, 0.75, r.data(), diag.data(),
                                      y.data(), z.data()};
          for (index_t k = 0; k < t; ++k) {
            const la::ClassSegments::Strip st = cls->strip(k, t);
            cls->sweep(x.data(), u, st.part_begin, st.part_end);
          }
          ASSERT_EQ(0, std::memcmp(y.data(), want_y.data(), n * sizeof(double)))
              << what;
          ASSERT_EQ(0, std::memcmp(z.data(), want_z.data(), n * sizeof(double)))
              << what;
        }
      }
    }
  }
}

TEST(DiaRuns, CatalogSegmentsAreCutIntoMaximalRuns) {
  for (const char* spec : kSystems) {
    SCOPED_TRACE(spec);
    const System s = load(spec);
    const color::ColoredSystem cs =
        color::make_colored_system(s.problem.matrix, s.classes);
    const auto plan = core::SweepPlan::build(cs, la::SegmentLayout::kDia);
    for (int c = 0; c < cs.num_classes(); ++c) {
      check_runs(plan->lower(c).dia());
      check_runs(plan->upper(c).dia());
    }
  }
}

// ---- one plan per pipeline --------------------------------------------------

TEST(SweepPlan, SolveAndSolveManyBuildNoSegments) {
  const System s = load("femplate:a=24");
  SolverConfig cfg = SolverConfig::from_string(kConfig);
  cfg.format = MatrixFormat::kAuto;
  cfg.batch = 4;
  const solver::Prepared prepared =
      Solver::from_config(cfg).prepare(s.problem.matrix, s.classes);
  ASSERT_NE(prepared.sweep_plan(), nullptr);
  EXPECT_EQ(prepared.sweep_plan()->layout(), la::SegmentLayout::kDia);

  util::Rng rng(9);
  std::vector<Vec> bs;
  for (int i = 0; i < 9; ++i) {
    bs.push_back(rng.uniform_vector(s.problem.matrix.rows()));
  }
  const long long before = core::SweepPlan::builds();
  const solver::BatchReport batch =
      prepared.solveMany(util::Span<const Vec>(bs.data(), bs.size()));
  const SolveReport single = prepared.solve(bs[0]);
  EXPECT_EQ(core::SweepPlan::builds(), before);
  EXPECT_GE(batch.concurrency, 1);
  ASSERT_TRUE(batch.all_converged());
  EXPECT_EQ(batch.reports[0].solution, single.solution);
}

TEST(SweepPlan, MakePreconditionerPicksThePreparedLayout) {
  // Without a plan, the factory resolves the layout from config.format
  // and the matrix exactly as prepare() does, so its sweep is bitwise
  // the pipeline's.
  for (const MatrixFormat format :
       {MatrixFormat::kAuto, MatrixFormat::kCsr, MatrixFormat::kDia,
        MatrixFormat::kSell}) {
    const System s = load("femplate:a=12");
    SolverConfig cfg = config(format);
    const solver::Prepared prepared =
        Solver::from_config(cfg).prepare(s.problem.matrix, s.classes);
    const color::ColoredSystem cs =
        color::make_colored_system(s.problem.matrix, s.classes);
    const solver::detail::PrecondChoice choice =
        solver::detail::make_preconditioner(cfg, &cs, cs.matrix,
                                            prepared.alphas(), nullptr,
                                            nullptr);
    const auto* sweep =
        dynamic_cast<const core::MulticolorMStepSsor*>(choice.precond.get());
    ASSERT_NE(sweep, nullptr);
    EXPECT_EQ(sweep->plan()->layout(), prepared.sweep_plan()->layout())
        << solver::to_string(format);
    const Vec r = util::Rng(4).uniform_vector(cs.size());
    Vec want, got;
    prepared.preconditioner().apply(r, want);
    sweep->apply(r, got);
    EXPECT_EQ(want, got) << solver::to_string(format);
  }
}

// ---- reports ----------------------------------------------------------------

TEST(SweepFormat, ReportsSayWhichSweepRan) {
  const System s = load("femplate:a=12");
  const Vec& f = s.problem.rhs;
  const auto sweep_of = [&](const std::string& text) {
    return solve(SolverConfig::from_string(text), s, f).sweep_format;
  };
  EXPECT_EQ(sweep_of(std::string(kConfig) + ";format=auto"), "dia");
  EXPECT_EQ(sweep_of(std::string(kConfig) + ";format=dia"), "dia");
  EXPECT_EQ(sweep_of(std::string(kConfig) + ";format=csr"), "sell");
  EXPECT_EQ(sweep_of(std::string(kConfig) + ";format=sell"), "sell");
  EXPECT_EQ(sweep_of("splitting=jacobi;m=2;format=dia"), "none");
  EXPECT_EQ(sweep_of("splitting=ssor;m=0;format=dia"), "none");
  EXPECT_EQ(sweep_of("splitting=ssor;m=2;ordering=natural;format=dia"),
            "none");

  SolverConfig cfg = config(MatrixFormat::kDia);
  cfg.batch = 2;
  const std::vector<Vec> bs{f, f};
  const solver::BatchReport batch =
      Solver::from_config(cfg)
          .prepare(s.problem.matrix, s.classes)
          .solveMany(util::Span<const Vec>(bs.data(), bs.size()));
  for (const SolveReport& r : batch.reports) EXPECT_EQ(r.sweep_format, "dia");
}

// ---- pinned bits -------------------------------------------------------------

std::uint64_t fnv1a(const Vec& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(SellSweep, CsrAndSellSolutionsKeepTheirPinnedBits) {
  // Digests of solutions computed by the SELL-segment sweep before the
  // DIA layout existed: under format=csr|sell not one bit may move.
  struct Pinned {
    const char* spec;
    MatrixFormat format;
    int iterations;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {"femplate:a=16", MatrixFormat::kCsr, 20, 0xe814f5eba10b60d0ULL},
      {"femplate:a=16", MatrixFormat::kSell, 20, 0xe814f5eba10b60d0ULL},
      {"cyberplate:a=16", MatrixFormat::kCsr, 20, 0xe814f5eba10b60d0ULL},
      {"cyberplate:a=16", MatrixFormat::kSell, 20, 0xe814f5eba10b60d0ULL},
      {"poisson2d:n=24", MatrixFormat::kCsr, 8, 0xe93af93b4e616554ULL},
      {"poisson2d:n=24", MatrixFormat::kSell, 8, 0xe93af93b4e616554ULL},
      {"randspd:n=800:band=8", MatrixFormat::kCsr, 6, 0xdb230092ca78cca6ULL},
      {"randspd:n=800:band=8", MatrixFormat::kSell, 6, 0xdb230092ca78cca6ULL},
  };
  for (const Pinned& want : pinned) {
    const problems::Problem p =
        problems::ProblemRegistry::instance().create(want.spec);
    const Solver solver =
        Solver::from_config(config(want.format));
    const solver::Prepared prepared = p.has_classes()
                                          ? solver.prepare(p.matrix, p.classes)
                                          : solver.prepare(p.matrix);
    const Vec b = util::Rng(7).uniform_vector(p.matrix.rows());
    const SolveReport r = prepared.solve(b);
    EXPECT_EQ(r.sweep_format, "sell") << want.spec;
    EXPECT_EQ(r.iterations(), want.iterations) << want.spec;
    EXPECT_EQ(fnv1a(r.solution), want.digest)
        << want.spec << " " << solver::to_string(want.format);
  }
}

TEST(DiaSweep, DiaSolutionsKeepTheirPinnedBits) {
  // Digests of solutions computed by the DIA sweep when each class phase
  // still summed its diagonals into a scratch vector and then ran a
  // separate row update: the fused register-blocked pass must keep every
  // bit, on every execution path.
  struct Pinned {
    const char* spec;
    int iterations;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {"femplate:a=36", 48, 0x109b18241d1f6181ULL},
      {"cyberplate:a=36", 48, 0x109b18241d1f6181ULL},
      {"poisson2d:n=48", 15, 0x01d58080517db891ULL},
      {"randspd:n=2500:band=8", 7, 0x86ba930fc2ce51b4ULL},
  };
  for (const Pinned& want : pinned) {
    const System s = load(want.spec);
    const index_t n = s.problem.matrix.rows();
    ASSERT_GE(n, 2048) << want.spec;
    util::Rng rng(7);
    std::vector<Vec> bs;
    for (int i = 0; i < 4; ++i) bs.push_back(rng.uniform_vector(n));
    const auto check = [&](const SolveReport& r, const std::string& what) {
      EXPECT_EQ(r.sweep_format, "dia") << what;
      EXPECT_EQ(r.iterations(), want.iterations) << what;
      EXPECT_EQ(fnv1a(r.solution), want.digest) << what;
    };
    for (const auto mode : {la::simd::SimdMode::kForceScalar,
                            la::simd::SimdMode::kForceVector}) {
      const la::simd::SimdModeGuard guard(mode);
      const std::string path = std::string(want.spec) + " simd=" +
                               la::simd::simd_isa();
      for (const int threads : {1, 4}) {
        SolverConfig cfg = config(MatrixFormat::kDia);
        cfg.execution.threads = threads;
        const SolveReport r = solve(cfg, s, bs[0]);
        if (threads == 4) {
          EXPECT_EQ(r.preconditioner_name.rfind("parallel-", 0), 0u) << path;
        }
        check(r, path + " threads=" + std::to_string(threads));
      }
      SolverConfig cfg = config(MatrixFormat::kDia);
      cfg.batch = 4;
      const solver::BatchReport batch =
          Solver::from_config(cfg)
              .prepare(s.problem.matrix, s.classes)
              .solveMany(util::Span<const Vec>(bs.data(), bs.size()));
      ASSERT_EQ(batch.num_failed(), 0u) << path;
      check(batch.reports[0], path + " batch=4");
    }
  }
}

}  // namespace
}  // namespace mstep
