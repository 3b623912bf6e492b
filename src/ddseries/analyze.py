"""Numerical verifiers for the half-plane lemmas: vertical-line sups,
the four-corner three-lines inequality, mean-value coefficient extraction
and the coefficient-versus-norm bound.

All sup estimates are sampled lower bounds (grid plus local refinement);
every inequality check inflates its tolerance accordingly and reports on
which side the bias lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .bohr import NormEstimate
from .double import DoubleDirichletSeries
from .series import DirichletSeries, _parts


def _line_values(D: DirichletSeries, sigma: float, taus: np.ndarray) -> np.ndarray:
    """|D(sigma + i tau)| for an array of heights, vectorized."""
    ns = np.array(sorted(D.terms), dtype=float)
    if len(ns) == 0:
        return np.zeros_like(taus)
    cs = np.array([D.terms[int(n)] for n in ns])
    logn = np.log(ns)
    weights = cs * np.exp(-sigma * logn)
    return np.abs(np.exp(-1j * np.outer(taus, logn)) @ weights)


def _line_values2(D: DoubleDirichletSeries, sig: tuple[float, float],
                  tau1: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    keys = sorted(D.terms)
    if not keys:
        return np.zeros((len(tau1), len(tau2)))
    logm = np.log(np.array([k[0] for k in keys], dtype=float))
    logn = np.log(np.array([k[1] for k in keys], dtype=float))
    w = np.array([D.terms[k] for k in keys]) * np.exp(-sig[0] * logm - sig[1] * logn)
    ph1 = np.exp(-1j * np.outer(tau1, logm))
    ph2 = np.exp(-1j * np.outer(tau2, logn))
    return np.abs(np.einsum("ik,jk,k->ij", ph1, ph2, w))


def _refine_single(D, sigma, tau0, span):
    res = minimize_scalar(
        lambda tau: -float(_line_values(D, sigma, np.array([tau]))[0]),
        bounds=(tau0 - span, tau0 + span),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(-res.fun), float(res.x)


def _refine_double(D, sig, x0):
    def neg(x):
        return -float(_line_values2(D, sig, np.array([x[0]]), np.array([x[1]]))[0, 0])

    res = minimize(neg, np.asarray(x0, dtype=float), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return float(-res.fun), (float(res.x[0]), float(res.x[1]))


def _sup_single(D, sigma, height_range, samples):
    lo, hi = height_range
    taus = np.linspace(lo, hi, samples)
    vals = _line_values(D, sigma, taus)
    best = int(np.argmax(vals))
    span = (hi - lo) / max(samples - 1, 1)
    refined, arg = _refine_single(D, sigma, float(taus[best]), span)
    if refined >= vals[best]:
        return refined, arg
    return float(vals[best]), float(taus[best])


def _sup_double(D, sig, height_range, samples):
    lo, hi = height_range
    side = max(int(math.isqrt(samples)), 2)
    t1 = np.linspace(lo, hi, side)
    t2 = np.linspace(lo, hi, side)
    grid = _line_values2(D, sig, t1, t2)
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    refined, arg = _refine_double(D, sig, (t1[i], t2[j]))
    if refined >= grid[i, j]:
        return refined, arg
    return float(grid[i, j]), (float(t1[i]), float(t2[j]))


def _sup(D, sigma, height_range, samples):
    if isinstance(D, DirichletSeries):
        return _sup_single(D, sigma, height_range, samples)
    return _sup_double(D, sigma, height_range, samples)


def line_sup_estimate(D, sigma, height_range=(-50.0, 50.0), samples: int = 512) -> NormEstimate:
    """Sampled sup of |D| on the vertical line(s) Re = sigma (a pair of
    abscissas for a double series).

    Grid over the height range plus a local refinement pass from the best
    grid point; the result is a lower bound on the true line sup.
    """
    if not isinstance(D, (DirichletSeries, DoubleDirichletSeries)):
        raise TypeError("expected a DirichletSeries or DoubleDirichletSeries")
    if min(_parts(sigma)) <= 0:
        raise ValueError("sigma must be positive")
    value, _ = _sup(D, sigma, height_range, samples)
    return NormEstimate(value, 0.0, samples, 0, "line-sup-lower")


@dataclass
class SupMonotonicityReport:
    lower_sup: NormEstimate  # at the smaller abscissa(s)
    upper_sup: NormEstimate
    nonstrict_holds: bool
    strictness: str  # "strict", "inconclusive" or "equal"


_STRICT_MARGIN = 1e-4
_NONSTRICT_TOL = 1e-6


def sup_monotonicity_check(D, sigmas, etas, samples: int = 512) -> SupMonotonicityReport:
    """Check sup decay between nested half-planes.

    The non-strict inequality sup(sigma) >= sup(eta) - tol must always
    hold; strictness is certified only when the margin exceeds the
    combined refinement slack (both sups are lower bounds).
    """
    if not all(0 < s < e for s, e in zip(_parts(sigmas), _parts(etas))):
        raise ValueError("need 0 < sigma < eta, componentwise for a double series")
    hr = (-50.0, 50.0)
    low_v, _ = _sup(D, sigmas, hr, samples)
    high_v, high_arg = _sup(D, etas, hr, samples)
    # the eta argmax seeds a second refinement on the sigma line, so a peak
    # found at eta is never missed at sigma
    if isinstance(D, DirichletSeries):
        cross, _ = _refine_single(D, sigmas, high_arg, 2.0)
    else:
        cross, _ = _refine_double(D, tuple(sigmas), high_arg)
    low_v = max(low_v, cross)
    low = NormEstimate(low_v, 0.0, samples, 0, "line-sup-lower")
    high = NormEstimate(high_v, 0.0, samples, 0, "line-sup-lower")
    margin = low.value - high.value
    if margin > _STRICT_MARGIN:
        strictness = "strict"
    elif abs(margin) <= _STRICT_MARGIN:
        strictness = "equal" if abs(margin) <= _NONSTRICT_TOL else "inconclusive"
    else:
        strictness = "inconclusive"
    return SupMonotonicityReport(low, high, margin >= -_NONSTRICT_TOL, strictness)


@dataclass
class ThreeLinesReport:
    holds: bool
    slack: float
    middle_sup: float
    corner_sups: tuple[float, float, float, float]
    weights: tuple[float, float, float, float]


def three_lines_check(D: DoubleDirichletSeries, sigma1: float, sigma2: float,
                      gamma: float, theta1: float, theta2: float,
                      samples: int = 512) -> ThreeLinesReport:
    """The four-corner Hadamard inequality on sampled line sups.

    sup at (eta1, eta2) with eta_i = (1-theta_i) sigma_i + theta_i gamma is
    bounded by the product of the corner sups with the bilinear weights.
    """
    if not (0 < theta1 < 1 and 0 < theta2 < 1):
        raise ValueError("theta_i must lie in (0, 1)")
    eta1 = (1 - theta1) * sigma1 + theta1 * gamma
    eta2 = (1 - theta2) * sigma2 + theta2 * gamma
    if gamma <= max(eta1, eta2):
        raise ValueError("gamma must exceed both eta values")
    hr = (-50.0, 50.0)
    mid, mid_arg = _sup_double(D, (eta1, eta2), hr, samples)
    corners = []
    for sig in ((sigma1, sigma2), (sigma1, gamma), (gamma, sigma2), (gamma, gamma)):
        v, _ = _sup_double(D, sig, hr, samples)
        # seed with the middle-line argmax so corner peaks aligned with the
        # middle maximum are not missed
        cross, _ = _refine_double(D, sig, mid_arg)
        corners.append(max(v, cross))
    corners = tuple(corners)
    weights = (
        (1 - theta1) * (1 - theta2),
        (1 - theta1) * theta2,
        theta1 * (1 - theta2),
        theta1 * theta2,
    )
    product = 1.0
    for c, w in zip(corners, weights):
        product *= c**w
    slack = product - mid
    return ThreeLinesReport(slack >= -1e-6, slack, mid, corners, weights)


@dataclass
class ExtractedCoefficient:
    value: complex
    error_bound: float | None  # None when the support is unknown


def _mean_value(evaluator, freq: float, sigma: float, T: float, panels: int) -> complex:
    """Trapezoid approximation of (1/2T) int_{-T}^{T} E(sigma+1+i tau)
    freq^{sigma+1+i tau} d tau."""
    taus = np.linspace(-T, T, panels + 1)
    pts = (sigma + 1) + 1j * taus
    vals = np.asarray(evaluator(pts), dtype=complex)
    integrand = vals * np.exp(pts * math.log(freq))
    return complex(np.trapezoid(integrand, taus) / (2 * T))


def series_evaluator(D: DirichletSeries):
    """Vectorized black-box evaluator for a finite series."""
    ns = sorted(D.terms)
    cs = np.array([D.terms[n] for n in ns])
    logn = np.log(np.array(ns, dtype=float)) if ns else np.zeros(0)

    def ev(s):
        s = np.asarray(s, dtype=complex)
        if not ns:
            return np.zeros_like(s)
        return np.exp(-np.multiply.outer(s, logn)) @ cs

    return ev


def coefficient_extract(evaluator, j: int, sigma: float, T: float,
                        panels: int = 200_000, support=None) -> ExtractedCoefficient:
    """Recover the coefficient at index j by the mean value of
    D(sigma+1+i tau) j^{sigma+1+i tau} over [-T, T].

    When the support is known, the attached error bound is the O(1/T)
    competing-frequency estimate with geometric margin ln(j'/j).
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    if not (0 < T < math.inf and math.isfinite(sigma)):
        raise ValueError("T must be positive and finite, and sigma finite")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    value = _mean_value(evaluator, float(j), sigma, T, panels)
    bound = None
    if support is not None:
        bound = 0.0
        for n, a in support.items():
            if n == j:
                continue
            gap = abs(math.log(j / n))
            bound += abs(a) * (float(j) / n) ** (sigma + 1) / (T * gap)
    return ExtractedCoefficient(value, bound)


class SemigroupError(ValueError):
    """The shifted-frequency inputs are inconsistent with a common symbol."""


def semigroup_identify(A: DirichletSeries, B: DirichletSeries, c0: int,
                       sigma: float = 0.5, T: float = 1e4,
                       panels: int = 200_000, tol: float = 1e-3) -> DirichletSeries:
    """Identify the common series phi with 2^{c0 s} A(s) = phi(s) = 3^{c0 s} B(s).

    A and B are given over the frequency grids 2^{c0}/n and 3^{c0}/m (as
    plain coefficient series).  Coefficients at non-multiples of the
    respective power are checked to vanish (via the mean-value extraction
    on the evaluator of 2^{c0 s} A); a violation beyond tol raises.
    """
    if c0 < 1:
        raise ValueError("c0 must be a positive integer")
    phi_a = _identify_one(A, 2, c0, sigma, T, panels, tol)
    phi_b = _identify_one(B, 3, c0, sigma, T, panels, tol)
    keys = set(phi_a.terms) | set(phi_b.terms)
    mismatch = max(
        (abs(phi_a.terms.get(n, 0j) - phi_b.terms.get(n, 0j)) for n in keys), default=0.0
    )
    if mismatch > tol:
        raise SemigroupError(
            "recoveries from the base-2 and base-3 inputs disagree by %.3g" % mismatch
        )
    return phi_a


def _identify_one(A, base, c0, sigma, T, panels, tol):
    ev = series_evaluator(A)
    shift = base**c0

    def shifted(s):
        s = np.asarray(s, dtype=complex)
        return np.exp(s * math.log(shift)) * ev(s)

    for j in sorted(A.terms):
        if j % shift == 0:
            continue
        # the proof's integral: mean value of base^{c0 s} A(s) (j/base^{c0})^s
        coeff = _mean_value(shifted, j / shift, sigma, T, panels)
        if abs(coeff) > tol:
            raise SemigroupError(
                "coefficient %.3g at forbidden index %d (base %d)" % (abs(coeff), j, base)
            )
    terms = {j // shift: a for j, a in A.terms.items() if j % shift == 0}
    return DirichletSeries(terms, max(A.truncation // shift, 1))


@dataclass
class CoefficientBoundReport:
    holds: bool
    worst_excess: float
    sup_estimate: float
    caveat: str = "sup is a sampled lower bound; the inequality uses it as-is"


def coefficient_bound_check(D: DoubleDirichletSeries, epsilon: float,
                            samples: int = 512, tol: float = 1e-9) -> CoefficientBoundReport:
    """Check |a_{m,n}| <= m^eps n^eps * sup over C_eps^2 for every stored term."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sup = line_sup_estimate(D, (epsilon, epsilon), samples=samples).value
    worst = 0.0
    for (m, n), a in D.terms.items():
        excess = abs(a) - m**epsilon * n**epsilon * sup
        worst = max(worst, excess)
    return CoefficientBoundReport(worst <= tol, worst, sup)
