"""Numerical verifiers for the half-plane lemmas: vertical-line sups,
the four-corner three-lines inequality, mean-value coefficient extraction
and the coefficient-versus-norm bound.

All sup estimates are sampled lower bounds (a grid, then a gradient ascent
from the best starts);
every inequality check inflates its tolerance accordingly and reports on
which side the bias lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bohr import NormEstimate, _climb
from .double import DoubleDirichletSeries
from .series import DirichletSeries, _gap, _parts

# the ascent runs from this many of the best grid points, for one and for
# two variables
_GRID_STARTS = (1, 32)
# a grid is refined until no two neighbours are further apart than a quarter
# of the shortest period (pi / 2 over the largest frequency), up to this many
# times the points per axis that the sample count gives
_MAX_REFINE = 8


def _line_sum(D, sigma):
    """D on the line(s) Re = sigma as a trigonometric sum in the heights:
    D(sigma + i tau) = sum_k c_k e^{i <F_k, tau>} with F_k = -ln of the
    index (one column per variable) and c_k = a_k n_k^{-sigma}."""
    keys = sorted(D.terms)
    indices = np.array([_parts(k) for k in keys], dtype=float)
    F = -np.log(indices.reshape(len(keys), len(D.truncations)))
    c = np.array([D.terms[k] for k in keys], dtype=complex) * np.exp(F @ np.array(_parts(sigma)))
    return F, c


def _grid_sum(F, c, lo, step, count):
    """sum_k c_k e^{i F_k tau} at the heights tau = lo + m step, m < count,
    for a vector F of frequencies.  With m = b B + r and B = isqrt(count),
    every value is an entry of the product of the outer table
    c_k e^{i F_k (lo + b B step)} and the inner table e^{i F_k r step}:
    (count / B + B) K exponentials and one matrix product instead of
    count K exponentials, in O((count / B + B) K + count) memory."""
    B = max(math.isqrt(count), 1)
    blocks = -(-count // B)
    outer = np.exp(1j * np.multiply.outer(lo + np.arange(blocks) * B * step, F)) * c
    inner = np.exp(1j * np.multiply.outer(F, np.arange(B) * step))
    return (outer @ inner).ravel()[:count]


def _sup(D, sigma, height_range, samples, also=None):
    """Grid over the height range (through _grid_sum on one line; a
    side x side grid for a double series, whose phases separate by axis;
    refined as _MAX_REFINE says), then bohr._climb from the best grid points
    and from the extra starts `also` (rows of heights); never below the
    grid max.  Returns the sup estimate and its heights."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    F, c = _line_sum(D, sigma)
    lo, hi = height_range
    dims = F.shape[1]
    side = samples if dims == 1 else max(int(math.isqrt(samples)), 2)
    fine = math.ceil((hi - lo) * np.abs(F).max(initial=0.0) * 2 / math.pi) + 1
    side = max(side, min(fine, _MAX_REFINE * side))
    t = np.linspace(lo, hi, side)
    if dims == 1:
        vals = np.abs(_grid_sum(F[:, 0], c, lo, (hi - lo) / max(side - 1, 1), side))
    else:
        phases = np.exp(1j * t[:, None, None] * F)
        vals = np.abs((phases[:, :, 0] * c) @ phases[:, :, 1].T).ravel()
    grid = np.stack(np.meshgrid(*[t] * dims, indexing="ij"), axis=-1).reshape(-1, dims)
    return _climb(F, c, grid, vals, _GRID_STARTS[dims - 1], also)


def line_sup_estimate(D, sigma, height_range=(-50.0, 50.0), samples: int = 512) -> NormEstimate:
    """Sampled sup of |D| on the vertical line(s) Re = sigma (a pair of
    abscissas for a double series).

    Grid over the height range (refined to a quarter of the shortest period
    of the series where the sample count leaves it coarser), then a gradient
    ascent from the best grid points; the result is the larger of the grid
    max and the ascent, a lower bound on the true line sup.
    """
    if not isinstance(D, (DirichletSeries, DoubleDirichletSeries)):
        raise TypeError("expected a DirichletSeries or DoubleDirichletSeries")
    if len(_parts(sigma)) != len(D.truncations):
        raise ValueError("sigma needs one abscissa per variable")
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
    if not all(0 < s < e < math.inf for s, e in zip(_parts(sigmas), _parts(etas))):
        raise ValueError("need 0 < sigma < eta < inf, componentwise for a double series")
    hr = (-50.0, 50.0)
    high_v, high_arg = _sup(D, etas, hr, samples)
    # the eta argmax is one more start on the sigma line, so a peak found at
    # eta is never missed at sigma
    low_v, _ = _sup(D, sigmas, hr, samples, also=high_arg)
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
    mid, mid_arg = _sup(D, (eta1, eta2), hr, samples)
    # the middle-line argmax is one more start on every corner, so corner
    # peaks aligned with the middle maximum are not missed
    corners = tuple(_sup(D, sig, hr, samples, also=mid_arg)[0] for sig in
                    ((sigma1, sigma2), (sigma1, gamma), (gamma, sigma2), (gamma, gamma)))
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


def _folded(j: int, sigma: float, indices):
    """The frequencies ln(j/n) and the weights (j/n)^{sigma+1} of the terms
    a_n n^{-s} of D(s) j^s on the line Re s = sigma + 1, one per index n;
    the n = j term has frequency exactly 0."""
    ratio = j / indices
    with np.errstate(over="ignore"):
        weight = ratio ** (sigma + 1)
    if not np.isfinite(weight).all():
        raise ValueError("(j/n)^(sigma+1) overflows at sigma %r, j %d" % (sigma, j))
    return np.log(ratio), weight


def _mean_value(evaluator, j: int, sigma: float, T: float, panels: int) -> complex:
    """Trapezoid approximation of (1/2T) int_{-T}^{T} E(sigma+1+i tau)
    j^{sigma+1+i tau} d tau on panels + 1 uniform nodes.  For an evaluator
    of series_evaluator the integrand is the trigonometric sum
    sum_n a_n (j/n)^{sigma+1} e^{i tau ln(j/n)}, evaluated by _grid_sum;
    any other callable is sampled at the nodes and its values taken times
    j^{sigma+1} e^{i tau ln j}, the n = 1 case of the same fold."""
    if hasattr(evaluator, "indices"):
        omega, weight = _folded(j, sigma, evaluator.indices)
        vals = _grid_sum(omega, evaluator.coeffs * weight, -T, 2 * T / panels, panels + 1)
    else:
        omega, weight = _folded(j, sigma, np.ones(1))
        tau = np.linspace(-T, T, panels + 1)
        vals = np.asarray(evaluator((sigma + 1) + 1j * tau), dtype=complex) * (
            weight * np.exp(1j * omega * tau))
    return complex(np.trapezoid(vals) / panels)


def series_evaluator(D: DirichletSeries):
    """Vectorized evaluator of a finite series at an array of points.

    The callable carries the series' indices (as floats) and coefficients
    as `indices` and `coeffs`; from them coefficient_extract evaluates its
    whole integrand as one trigonometric sum, in (panels / B + B) x terms
    exponentials for B = sqrt(panels), instead of calling it."""
    ns = sorted(D.terms)
    indices = np.array(ns, dtype=float)
    cs = np.array([D.terms[n] for n in ns], dtype=complex)
    logn = np.log(indices)

    def ev(s):
        return np.exp(-np.multiply.outer(np.asarray(s, dtype=complex), logn)) @ cs

    ev.indices, ev.coeffs = indices, cs
    return ev


def coefficient_extract(evaluator, j: int, sigma: float, T: float,
                        panels: int = 200_000, support=None) -> ExtractedCoefficient:
    """Recover the coefficient at index j by the mean value of
    D(sigma+1+i tau) j^{sigma+1+i tau} over [-T, T], a trapezoid sum on
    panels + 1 uniform nodes.

    The evaluator of series_evaluator carries its terms, so the integrand
    is evaluated as one trigonometric sum, in O(sqrt(panels) x terms +
    panels) time and memory.  Any other callable E is a black box: it is
    called once on the array of all panels + 1 points and costs what it
    costs there (a table of points x terms exponentials, for one built
    like series_evaluator's callable).

    When the support is known, the attached error bound sums a bound on
    each competing term as the quadrature sees it: the trapezoid mean
    of e^{i omega tau} over [-T, T] with step h = 2T / panels is
    (h / 2T) sin(omega T) cot(omega h / 2), so each index n != j adds
    |a_n| (j/n)^{sigma+1} min(1, |cot(omega h / 2)| / panels) for
    omega = ln(j/n).  While |omega| h <= pi this is at most the O(1/T)
    estimate 1 / (T |omega|).  A sigma at which some (j/n)^{sigma+1}
    overflows raises ValueError.
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    if not (0 < T < math.inf and math.isfinite(sigma)):
        raise ValueError("T must be positive and finite, and sigma finite")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    value = _mean_value(evaluator, j, sigma, T, panels)
    bound = None
    if support is not None:
        others = [n for n in support if n != j]
        omega, weight = _folded(j, sigma, np.array(others, dtype=float))
        size = np.abs(np.array([support[n] for n in others], dtype=complex)) * weight
        with np.errstate(divide="ignore"):
            mean = np.minimum(1.0, np.abs(1 / np.tan(omega * T / panels)) / panels)
        bound = float(size @ mean)
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
    mismatch = _gap(phi_a.terms, phi_b.terms)
    if mismatch > tol:
        raise SemigroupError(
            "recoveries from the base-2 and base-3 inputs disagree by %.3g" % mismatch
        )
    return phi_a


def _identify_one(A, base, c0, sigma, T, panels, tol):
    ev = series_evaluator(A)
    shift = base**c0
    for j in sorted(A.terms):
        if j % shift == 0:
            continue
        # the proof's integral, the mean value of base^{c0 s} A(s) (j/base^{c0})^s,
        # is that of A(s) j^s
        coeff = _mean_value(ev, j, sigma, T, panels)
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
