"""Superposition operators: polynomials (and truncated entire functions)
applied to the values of a Dirichlet series, plus the Young-inequality
verification of the H^p -> H^q mapping bound."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bohr import NormEstimate, hp_norm_estimate
from .series import DirichletSeries, add, constant_series, evaluate, mul


@dataclass(frozen=True)
class ScalarPolynomial:
    """Polynomial in one complex variable, coefficients by degree."""

    coefficients: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, w: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * w + c
        return acc


def superpose(poly: ScalarPolynomial, D: DirichletSeries, truncation: int) -> DirichletSeries:
    """The series of poly(D(s)), built in Horner order by repeated products."""
    acc = constant_series(poly.coefficients[-1], truncation)
    for c in reversed(poly.coefficients[:-1]):
        acc = add(mul(acc, D, truncation), constant_series(c, truncation))
    return acc


def degree_bound(p: float, q: float) -> int:
    """Largest polynomial degree mapping H^p into H^q: floor(p / q)."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    return math.floor(p / q)


@dataclass
class YoungReport:
    holds: bool
    lhs: NormEstimate  # estimate of ||P^k||_q, its q-th moment alongside
    rhs: NormEstimate  # estimate of ||P||_p, its p-th moment alongside
    slack: float


def young_bound_verify(P: DirichletSeries, k: int, p: float, q: float,
                       samples: int, seed: int) -> YoungReport:
    """Check of ||P^k||_q <= ||P||_p^k for k*q <= p.

    ||P^k||_q = ||P||_{kq}^k, and the torus measure is a probability, so
    Hoelder gives ||P||_{kq} <= ||P||_p.  The lhs is therefore the k-th power
    of one hp_norm_estimate of P at kq (its moment E|P|^{kq} is that of
    P^k at q), and the rhs one of P at p: each side is exact where its
    exponent is even and within hp_norm_estimate's budget, and a Monte Carlo
    estimate otherwise.  The comparison allows 3 standard errors of each
    side (those of the k-th powers by the delta method) plus an absolute
    slack of 1e-3.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 1 <= q <= k * q <= p < math.inf:  # NaN fails too
        raise ValueError("young_bound_verify requires 1 <= q and k*q <= p < inf")
    base = hp_norm_estimate(P, k * q, samples, seed)
    lhs = replace(base, value=base.value ** k, stderr=k * base.value ** (k - 1) * base.stderr)
    rhs = hp_norm_estimate(P, p, samples, seed + 1)
    budget = 3.0 * (lhs.stderr + k * rhs.value ** (k - 1) * rhs.stderr) + 1e-3
    slack = rhs.value ** k + budget - lhs.value
    return YoungReport(slack >= 0.0, lhs, rhs, slack)


@dataclass
class EntireSuperposition:
    series: DirichletSeries
    tail_bound: float


def superpose_entire(taylor, D: DirichletSeries, truncation: int,
                     probe_points=None) -> EntireSuperposition:
    """Superpose a truncated Taylor expansion of an entire function.

    The attached tail bound extrapolates geometrically from the last
    supplied Taylor coefficient and the sampled max of |D| on the probe
    grid; it is a heuristic for the dropped degrees, infinite when the
    sampled max reaches 1.
    """
    taylor = tuple(complex(c) for c in taylor)
    result = superpose(ScalarPolynomial(taylor), D, truncation)
    if probe_points is None:
        probe_points = [complex(2, v) for v in (-10, -3, 0, 3, 10)]
    m = max((abs(evaluate(D, s)) for s in probe_points), default=0.0)
    last = abs(taylor[-1]) if taylor else 0.0
    deg = len(taylor) - 1
    if m < 1.0:
        tail = last * m ** (deg + 1) * m / (1.0 - m) if deg >= 0 else 0.0
    else:
        tail = math.inf if last > 0 else 0.0
    return EntireSuperposition(result, tail)
