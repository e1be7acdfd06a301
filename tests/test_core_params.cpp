// Tests for the parameter fitting (Section 2.2 / Table 1) and the
// eigenvalue-map analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/params.hpp"
#include "la/polynomial.hpp"
#include "la/quadrature.hpp"

namespace mstep::core {
namespace {

// ---- Table 1 of the paper -------------------------------------------------
// Least-squares alphas for the SSOR splitting (spectrum interval [0, 1]),
// normalized to alpha_0 = 1.  The legible rows of the scanned table are
// m=2: (1.00, 5.00) and m=4: (1.00, 7.00, -24.50, 31.50).

TEST(Table1, MEquals2MatchesPaper) {
  const auto a = least_squares_alphas(2, ssor_interval());
  ASSERT_EQ(a.size(), 2u);
  EXPECT_NEAR(a[0], 1.0, 1e-9);
  EXPECT_NEAR(a[1], 5.0, 1e-9);
}

TEST(Table1, MEquals4MatchesPaper) {
  const auto a = least_squares_alphas(4, ssor_interval());
  ASSERT_EQ(a.size(), 4u);
  EXPECT_NEAR(a[0], 1.0, 1e-8);
  EXPECT_NEAR(a[1], 7.0, 1e-7);
  EXPECT_NEAR(a[2], -24.5, 1e-7);
  EXPECT_NEAR(a[3], 31.5, 1e-7);
}

TEST(Table1, UnnormalizedM2HasExactRationalSolution) {
  // Solving the 2x2 normal equations on [0,1] analytically gives
  // (2/3, 10/3); normalization to alpha_0 = 1 yields (1, 5).
  const auto a = least_squares_alphas(2, ssor_interval(),
                                      /*normalize_alpha0=*/false);
  EXPECT_NEAR(a[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(a[1], 10.0 / 3.0, 1e-12);
}

TEST(Params, MEquals1IsScalingOnly) {
  // For m=1 the preconditioned spectrum is alpha_0 * lambda regardless of
  // alpha_0 — the paper notes kappa is unchanged, "hence we are only
  // interested in m > 1".
  const auto a1 = least_squares_alphas(1, ssor_interval());
  ASSERT_EQ(a1.size(), 1u);
  EXPECT_NEAR(a1[0], 1.0, 1e-12);
  const auto raw = least_squares_alphas(1, ssor_interval(), false);
  // Unnormalized LS solution: minimize int (1 - a l)^2 -> a = 3/2 on [0,1].
  EXPECT_NEAR(raw[0], 1.5, 1e-12);
}

TEST(Params, LeastSquaresResidualDecreasesWithM) {
  // The LS objective over a nested family must be monotone non-increasing.
  double prev = 1e300;
  for (int m = 1; m <= 8; ++m) {
    const auto a = least_squares_alphas(m, ssor_interval(), false);
    const la::Polynomial s = eigenvalue_map(a);
    const double obj = la::integrate(
        [&](double lam) { return (1.0 - s(lam)) * (1.0 - s(lam)); }, 0.0, 1.0,
        64);
    EXPECT_LE(obj, prev + 1e-12) << "m=" << m;
    prev = obj;
  }
}

TEST(Params, LeastSquaresIsExactlyReproducedByQuadratureOfAnyOrder) {
  // The Gram integrals are polynomials; any sufficiently large rule gives
  // the same answer.  Guards against quadrature under-sampling.
  const auto a1 = least_squares_alphas(5, ssor_interval(), false);
  // Re-derive with brute force numeric integration.
  const int m = 5;
  la::DenseMatrix gram(m, m);
  Vec rhs(m, 0.0);
  for (int i = 0; i < m; ++i) {
    auto fi = [&](double l) { return l * std::pow(1.0 - l, i); };
    rhs[i] = la::integrate(fi, 0.0, 1.0, 64);
    for (int j = 0; j < m; ++j) {
      auto fj = [&](double l) { return l * std::pow(1.0 - l, j); };
      gram(i, j) =
          la::integrate([&](double l) { return fi(l) * fj(l); }, 0.0, 1.0, 64);
    }
  }
  const Vec a2 = la::solve_cholesky(gram, rhs);
  for (int i = 0; i < m; ++i) EXPECT_NEAR(a1[i], a2[i], 1e-7);
}

TEST(Params, WeightedLeastSquaresShiftsEmphasis) {
  // Weight concentrated near lambda=1 should fit better there.
  const auto flat = least_squares_alphas(3, ssor_interval(), false);
  const auto heavy = least_squares_alphas(
      3, ssor_interval(), false, [](double l) { return l * l * l * l; });
  const la::Polynomial s_flat = eigenvalue_map(flat);
  const la::Polynomial s_heavy = eigenvalue_map(heavy);
  EXPECT_LT(std::abs(1.0 - s_heavy(0.95)), std::abs(1.0 - s_flat(0.95)));
}

// ---- min-max (Chebyshev) parameters ---------------------------------------

TEST(MinMax, EquioscillatesOnInterval) {
  const SpectrumInterval iv{0.05, 1.0};
  const auto a = minmax_alphas(4, iv, /*normalize_alpha0=*/false);
  const la::Polynomial s = eigenvalue_map(a);
  // 1 - s(lambda) = T_m(mu(lambda))/T_m(mu0): extremes +-1/T_m(mu0).
  const double dev = 1.0 / la::chebyshev_t_value(4, (1.05) / (0.95));
  double max_dev = 0.0;
  for (int i = 0; i <= 400; ++i) {
    const double lam = 0.05 + 0.95 * i / 400.0;
    max_dev = std::max(max_dev, std::abs(1.0 - s(lam)));
  }
  EXPECT_NEAR(max_dev, std::abs(dev), 1e-10);
}

TEST(MinMax, BeatsLeastSquaresInMaxDeviation) {
  const SpectrumInterval iv{0.05, 1.0};
  for (int m = 2; m <= 6; ++m) {
    const la::Polynomial s_mm = eigenvalue_map(minmax_alphas(m, iv, false));
    const la::Polynomial s_ls =
        eigenvalue_map(least_squares_alphas(m, iv, false));
    double dev_mm = 0.0, dev_ls = 0.0;
    for (int i = 0; i <= 1000; ++i) {
      const double lam = iv.lambda_min +
                         (iv.lambda_max - iv.lambda_min) * i / 1000.0;
      dev_mm = std::max(dev_mm, std::abs(1.0 - s_mm(lam)));
      dev_ls = std::max(dev_ls, std::abs(1.0 - s_ls(lam)));
    }
    EXPECT_LE(dev_mm, dev_ls + 1e-12) << "m=" << m;
  }
}

TEST(MinMax, ConditionNumberShrinksWithM) {
  const SpectrumInterval iv{0.02, 1.0};
  double prev = 1e300;
  for (int m = 2; m <= 8; ++m) {
    const double k = predicted_condition(minmax_alphas(m, iv, false), iv);
    EXPECT_LT(k, prev) << "m=" << m;
    prev = k;
  }
}

// On the SSOR interval the normal equations lose positive definiteness in
// doubles at m = 14: that is a config error naming m, the interval and the
// way out, not a bare Cholesky failure.  m = 13 still solves.
TEST(Params, LeastSquaresPastM13OnSsorIntervalSaysWhatToDo) {
  EXPECT_EQ(least_squares_alphas(13, ssor_interval()).size(), 13u);
  try {
    (void)least_squares_alphas(14, ssor_interval());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* part : {"m=14", "[0, 1]", "m <= 13", "params=minmax",
                             "interval="}) {
      EXPECT_NE(msg.find(part), std::string::npos) << part << ": " << msg;
    }
  }
}

// ---- SPD safety ------------------------------------------------------------

TEST(Spd, LeastSquaresAlphasGiveSpdOnSsorInterval) {
  for (int m = 2; m <= 8; ++m) {
    EXPECT_TRUE(alphas_give_spd(least_squares_alphas(m, ssor_interval()),
                                {1e-6, 1.0}))
        << "m=" << m;
  }
}

TEST(Spd, DetectsIndefiniteMap) {
  // s(lambda) = lambda (1 - 3(1-lambda)) is negative for lambda < 2/3.
  EXPECT_FALSE(alphas_give_spd({1.0, -3.0}, {0.05, 1.0}));
}

// ---- eigenvalue map --------------------------------------------------------

TEST(EigenvalueMap, UnparametrizedMapIs1MinusPowerOfG) {
  // alphas = (1,...,1): s(lambda) = 1 - (1-lambda)^m (geometric sum).
  for (int m = 1; m <= 6; ++m) {
    const std::vector<double> ones(static_cast<std::size_t>(m), 1.0);
    const la::Polynomial s = eigenvalue_map(ones);
    for (double lam : {0.1, 0.33, 0.8, 1.0}) {
      EXPECT_NEAR(s(lam), 1.0 - std::pow(1.0 - lam, m), 1e-12);
    }
  }
}

}  // namespace
}  // namespace mstep::core
