// Choosing the preconditioner parameters alpha_0 ... alpha_{m-1}
// (Section 2.2 of the paper; Johnson, Micchelli & Paul 1982).
//
// The eigenvalues of M_m^{-1} K are s(lambda) = lambda * p(1 - lambda)
// where lambda ranges over the spectrum of P^{-1}K and p is the degree
// m-1 polynomial with coefficients alpha_i in powers of (1 - lambda)
// (equivalently, in powers of G).  The alphas are chosen to make
// s(lambda) as close to 1 as possible on [lambda_1, lambda_n]:
//
//  * least squares:  minimize  integral of w(lambda) (1 - s(lambda))^2,
//  * min-max:        the shifted-and-scaled Chebyshev polynomial.
//
// kappa(M^{-1}K) is invariant under scaling all alphas, so results can be
// normalized to alpha_0 = 1 — the convention of the paper's Table 1, whose
// values for the SSOR splitting on [0, 1] these routines reproduce
// (m=2: 1, 5;  m=4: 1, 7, -24.5, 31.5).
#pragma once

#include <functional>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/polynomial.hpp"
#include "split/splitting.hpp"

namespace mstep::core {

/// Interval [lambda_min, lambda_max] containing the spectrum of P^{-1}K.
struct SpectrumInterval {
  double lambda_min = 0.0;
  double lambda_max = 1.0;
};

/// The SSOR splitting of an SPD matrix has sigma(P^{-1}K) in (0, 1] for
/// omega in (0, 2) (Q = the SSOR remainder is positive semi-definite), so
/// [0, 1] is always a valid — and in the paper's usage, the chosen —
/// interval.
[[nodiscard]] SpectrumInterval ssor_interval();

/// Spectrum interval for the Jacobi splitting of K, estimated with Lanczos
/// on the symmetrized operator D^{-1/2} K D^{-1/2}; the bounds are widened
/// by `safety` relatively on each side.
[[nodiscard]] SpectrumInterval jacobi_interval(const la::CsrMatrix& k,
                                               double safety = 0.02);

/// Least-squares parameters: minimize
///   integral_{iv} w(lambda) (1 - lambda p(1-lambda))^2 d lambda
/// over polynomials p of degree m-1; returns the coefficients of p in
/// powers of (1 - lambda).  `weight` defaults to 1.
[[nodiscard]] std::vector<double> least_squares_alphas(
    int m, SpectrumInterval iv, bool normalize_alpha0 = true,
    const std::function<double(double)>& weight = {});

/// Min-max (Chebyshev) parameters: s(lambda) = 1 - T_m(mu(lambda))/T_m(mu_0)
/// equioscillates on the interval; requires lambda_min >= 0 and, for a
/// well-defined T_m(mu_0), lambda_min + lambda_max > 0; for m >= 2,
/// lambda_min > 0 (else M_m is singular).
[[nodiscard]] std::vector<double> minmax_alphas(int m, SpectrumInterval iv,
                                                bool normalize_alpha0 = true);

/// The polynomial s(lambda) = lambda * p(1 - lambda) realised by a given
/// alpha vector — the eigenvalue map of the preconditioned operator.
[[nodiscard]] la::Polynomial eigenvalue_map(const std::vector<double>& alphas);

/// Condition number of M_m^{-1}K predicted from the eigenvalue map over the
/// interval: max s / min s (positive s required; returns +inf otherwise).
[[nodiscard]] double predicted_condition(const std::vector<double>& alphas,
                                         SpectrumInterval iv,
                                         int samples = 2001);

/// True iff the eigenvalue map is strictly positive on the interval — the
/// positive-definiteness requirement on M_m (Section 2.2: "the eigenvalues
/// ... are positive on the interval").
[[nodiscard]] bool alphas_give_spd(const std::vector<double>& alphas,
                                   SpectrumInterval iv, int samples = 2001);

}  // namespace mstep::core
