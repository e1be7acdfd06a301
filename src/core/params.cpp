#include "core/params.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "la/dense_matrix.hpp"
#include "la/eigen.hpp"
#include "la/quadrature.hpp"

namespace mstep::core {

SpectrumInterval ssor_interval() { return {0.0, 1.0}; }

SpectrumInterval jacobi_interval(const la::CsrMatrix& k, double safety) {
  const Vec d = k.diagonal();
  Vec dinv_sqrt(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) dinv_sqrt[i] = 1.0 / std::sqrt(d[i]);
  const la::LinOp op = [&](const Vec& x, Vec& y) {
    Vec t(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) t[i] = dinv_sqrt[i] * x[i];
    k.multiply(t, y);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] *= dinv_sqrt[i];
  };
  const la::SpectrumEstimate est = la::lanczos_extreme(op, k.rows());
  SpectrumInterval iv;
  iv.lambda_min = est.lambda_min * (1.0 - safety);
  iv.lambda_max = est.lambda_max * (1.0 + safety);
  return iv;
}

namespace {

void normalize(std::vector<double>& a) {
  if (a.empty() || a[0] == 0.0) return;
  const double s = 1.0 / a[0];
  for (auto& v : a) v *= s;
}

}  // namespace

std::vector<double> least_squares_alphas(
    int m, SpectrumInterval iv, bool normalize_alpha0,
    const std::function<double(double)>& weight) {
  if (m < 1) throw std::invalid_argument("least_squares_alphas: m >= 1");
  const auto w = weight ? weight : [](double) { return 1.0; };

  // Basis f_i(lambda) = lambda (1 - lambda)^i.  Normal equations
  // G a = b with G_ij = <f_i, f_j>_w, b_i = <f_i, 1>_w.  A Gauss rule of
  // (m + 2) points integrates the degree-2m integrands exactly.
  const int quad_points = m + 2;
  const la::QuadratureRule rule = la::gauss_legendre(quad_points);
  const double mid = 0.5 * (iv.lambda_min + iv.lambda_max);
  const double halfw = 0.5 * (iv.lambda_max - iv.lambda_min);

  la::DenseMatrix gram(m, m);
  Vec rhs(m, 0.0);
  for (int q = 0; q < quad_points; ++q) {
    const double lam = mid + halfw * rule.nodes[q];
    const double wq = rule.weights[q] * halfw * w(lam);
    // f_i values at lam.
    Vec f(m);
    double g = 1.0;
    for (int i = 0; i < m; ++i) {
      f[i] = lam * g;
      g *= (1.0 - lam);
    }
    for (int i = 0; i < m; ++i) {
      rhs[i] += wq * f[i];
      for (int j = 0; j < m; ++j) gram(i, j) += wq * f[i] * f[j];
    }
  }
  // The (1 - lambda)^i basis makes the Gram matrix ill-conditioned fast:
  // on [0, 1] it stops being positive definite in doubles at m = 14.
  std::vector<double> a;
  try {
    a = la::solve_cholesky(gram, rhs);
  } catch (const std::runtime_error&) {
    std::ostringstream msg;
    msg << "least_squares_alphas: the normal equations for m=" << m
        << " on [" << iv.lambda_min << ", " << iv.lambda_max
        << "] are not positive definite in double precision; use m <= 13"
        << " (the largest that solves on the SSOR interval [0, 1]), or"
        << " params=minmax with a measured interval=<l_min>,<l_max>";
    throw std::invalid_argument(msg.str());
  }
  if (normalize_alpha0) normalize(a);
  return a;
}

std::vector<double> minmax_alphas(int m, SpectrumInterval iv,
                                  bool normalize_alpha0) {
  if (m < 1) throw std::invalid_argument("minmax_alphas: m >= 1");
  if (iv.lambda_min < 0.0 || iv.lambda_min + iv.lambda_max <= 0.0) {
    throw std::invalid_argument("minmax_alphas: need 0 <= l_min, l_max > 0");
  }
  // l_min = 0 gives mu_0 = 1, so s = 1 - T_m(mu) vanishes inside for m >= 2.
  if (m >= 2 && iv.lambda_min <= 0.0) {
    throw std::invalid_argument(
        "minmax_alphas: m >= 2 needs l_min > 0, else M_m is singular; pass "
        "a measured interval=<l_min>,<l_max> or use params=lsq");
  }
  // mu(lambda) = (l_max + l_min - 2 lambda) / (l_max - l_min);
  // s(lambda) = 1 - T_m(mu(lambda)) / T_m(mu_0) with mu_0 = mu(0).
  const double a = iv.lambda_min;
  const double b = iv.lambda_max;
  const double mu0 = (b + a) / (b - a);
  const double tm0 = la::chebyshev_t_value(m, mu0);

  la::Polynomial tm_of_lambda =
      la::chebyshev_t(m).compose_linear((b + a) / (b - a), -2.0 / (b - a));
  la::Polynomial s =
      la::Polynomial({1.0}) - tm_of_lambda * (1.0 / tm0);
  // s(0) = 1 - T_m(mu_0)/T_m(mu_0) = 0, so s is divisible by lambda.
  la::Polynomial p = s.divide_by_x(1e-9);
  std::vector<double> alphas = la::to_one_minus_x_basis(p);
  alphas.resize(static_cast<std::size_t>(m), 0.0);
  if (normalize_alpha0) normalize(alphas);
  return alphas;
}

la::Polynomial eigenvalue_map(const std::vector<double>& alphas) {
  // s(lambda) = lambda * p(1 - lambda).
  const la::Polynomial p = la::from_one_minus_x_basis(alphas);
  return la::Polynomial({0.0, 1.0}) * p;
}

double predicted_condition(const std::vector<double>& alphas,
                           SpectrumInterval iv, int samples) {
  const la::Polynomial s = eigenvalue_map(alphas);
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double lam = iv.lambda_min +
                       (iv.lambda_max - iv.lambda_min) * i / (samples - 1.0);
    if (lam == 0.0) continue;  // lambda = 0 is not an eigenvalue of an SPD K
    const double v = s(lam);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (lo <= 0.0) return std::numeric_limits<double>::infinity();
  return hi / lo;
}

bool alphas_give_spd(const std::vector<double>& alphas, SpectrumInterval iv,
                     int samples) {
  return std::isfinite(predicted_condition(alphas, iv, samples));
}

}  // namespace mstep::core
