// The SIMD dispatch contract: the portable twins and the AVX2 kernels
// execute the same fixed-lane operation schedule, so forcing either path
// produces BITWISE identical results — per kernel, and end to end for
// every splitting x format x threading combination.  This is the in-tree
// half of the CI simd-dispatch job, which additionally reruns whole test
// binaries under MSTEP_SIMD=off.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "la/class_segments.hpp"
#include "la/csr_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep {
namespace {

using la::simd::SimdMode;
using la::simd::SimdModeGuard;

bool bitwise_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdDispatch, ModeApiReportsTheForcedPath) {
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    EXPECT_FALSE(la::simd::simd_active());
    EXPECT_STREQ(la::simd::simd_isa(), "scalar");
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    // Forcing the vector path still requires hardware support; either
    // way the answer must be consistent with simd_available().
    EXPECT_EQ(la::simd::simd_active(), la::simd::simd_available());
  }
  if (la::simd::simd_available()) {
    EXPECT_TRUE(la::simd::simd_compiled());
  }
}

TEST(SimdDispatch, ReductionKernelsAreBitwiseAcrossPaths) {
  util::Rng rng(3);
  // Odd length exercises the lane tails; include magnitude spread so a
  // different summation order would actually change the bits.
  const std::size_t n = 10007;
  Vec x = rng.uniform_vector(n, -1.0, 1.0);
  Vec y = rng.uniform_vector(n, -1e6, 1e6);
  for (std::size_t i = 0; i < n; i += 97) x[i] *= 1e-9;

  double dot_scalar;
  double dot_vector;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    dot_scalar = la::dot(x, y);
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    dot_vector = la::dot(x, y);
  }
  EXPECT_TRUE(bitwise_equal(dot_scalar, dot_vector));
}

TEST(SimdDispatch, ElementwiseKernelsAreBitwiseAcrossPaths) {
  util::Rng rng(5);
  const std::size_t n = 4099;
  const Vec x = rng.uniform_vector(n);
  const Vec y0 = rng.uniform_vector(n);

  Vec y_scalar = y0;
  Vec y_vector = y0;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    la::simd::axpy(1.7, x.data(), y_scalar.data(), n);
    la::simd::xpay(x.data(), -0.3, y_scalar.data(), n);
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    la::simd::axpy(1.7, x.data(), y_vector.data(), n);
    la::simd::xpay(x.data(), -0.3, y_vector.data(), n);
  }
  EXPECT_TRUE(bitwise_equal(y_scalar, y_vector));
}

TEST(SimdDispatch, SparseKernelsAreBitwiseAcrossPathsAndFormats) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  const la::SellMatrix sell = la::SellMatrix::from_csr(p.matrix);
  util::Rng rng(9);
  const Vec x = rng.uniform_vector(p.matrix.cols());

  Vec csr_scalar;
  Vec csr_vector;
  Vec sell_scalar;
  Vec sell_vector;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    p.matrix.multiply(x, csr_scalar);
    sell.multiply(x, sell_scalar);
  }
  {
    const SimdModeGuard guard(SimdMode::kForceVector);
    p.matrix.multiply(x, csr_vector);
    sell.multiply(x, sell_vector);
  }
  EXPECT_TRUE(bitwise_equal(csr_scalar, csr_vector));
  EXPECT_TRUE(bitwise_equal(sell_scalar, sell_vector));
  EXPECT_TRUE(bitwise_equal(csr_scalar, sell_scalar));

  // The fused sweep pass, in every mode and both segment layouts: one
  // pass over each class's lower and upper segments.
  using Mode = la::simd::RowUpdate::Mode;
  const color::ColoredSystem cs =
      color::make_colored_system(p.matrix, p.classes);
  const Vec r = rng.uniform_vector(cs.size());
  const Vec diag = rng.uniform_vector(cs.size(), 1.0, 2.0);
  const Vec y0 = rng.uniform_vector(cs.size());
  for (const auto layout :
       {la::SegmentLayout::kSell, la::SegmentLayout::kDia}) {
    const auto plan = core::SweepPlan::build(cs, layout);
    for (const Mode mode :
         {Mode::kSolve, Mode::kSolveLast, Mode::kSave, Mode::kFinal}) {
      Vec y[2] = {y0, y0};
      Vec z[2] = {x, x};
      for (const int path : {0, 1}) {
        const SimdModeGuard guard(path == 0 ? SimdMode::kForceScalar
                                            : SimdMode::kForceVector);
        const la::simd::RowUpdate u{mode, 0.75, r.data(), diag.data(),
                                    y[path].data(), z[path].data()};
        for (int c = 0; c < cs.num_classes(); ++c) {
          for (const la::ClassSegments* segs :
               {&plan->lower(c), &plan->upper(c)}) {
            segs->sweep(z[path].data(), u, 0, segs->num_parts());
          }
        }
      }
      const std::string label = std::string(la::to_string(layout)) +
                                " mode " +
                                std::to_string(static_cast<int>(mode));
      EXPECT_TRUE(bitwise_equal(y[0], y[1])) << label;
      EXPECT_TRUE(bitwise_equal(z[0], z[1])) << label;
    }
  }
}

// Every splitting x every format, serial and threaded: the full PCG
// pipeline must converge to the bit-identical solution in the same
// number of iterations whichever kernel path runs.
TEST(SimdDispatch, SolvesAreBitwiseForEverySplittingAndFormat) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  const char* const splittings[] = {"ssor", "jacobi", "richardson"};
  const solver::MatrixFormat formats[] = {
      solver::MatrixFormat::kCsr, solver::MatrixFormat::kDia,
      solver::MatrixFormat::kSell, solver::MatrixFormat::kAuto};
  for (const char* splitting : splittings) {
    for (const auto format : formats) {
      for (const int threads : {0, 2}) {
        solver::SolverConfig cfg;
        cfg.splitting = splitting;
        if (std::string(splitting) == "richardson") cfg.params = "ones";
        cfg.steps = 2;
        cfg.format = format;
        cfg.tolerance = 1e-8;
        cfg.execution.threads = threads;

        solver::SolveReport scalar_run;
        solver::SolveReport vector_run;
        {
          const SimdModeGuard guard(SimdMode::kForceScalar);
          scalar_run =
              solver::Solver::from_config(cfg).solve(p.matrix, p.rhs,
                                                     p.classes);
        }
        {
          const SimdModeGuard guard(SimdMode::kForceVector);
          vector_run =
              solver::Solver::from_config(cfg).solve(p.matrix, p.rhs,
                                                     p.classes);
        }
        const std::string label = std::string(splitting) + "/" +
                                  solver::to_string(format) + "/threads=" +
                                  std::to_string(threads);
        ASSERT_TRUE(scalar_run.converged()) << label;
        ASSERT_TRUE(vector_run.converged()) << label;
        EXPECT_EQ(scalar_run.iterations(), vector_run.iterations()) << label;
        EXPECT_TRUE(bitwise_equal(scalar_run.solution, vector_run.solution))
            << label;
        EXPECT_EQ(scalar_run.format_selected, vector_run.format_selected)
            << label;
      }
    }
  }
}

}  // namespace
}  // namespace mstep
