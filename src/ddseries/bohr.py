"""Bohr transform between Dirichlet series and polynomials in prime
variables, torus evaluation and H^p / H^infty norm estimation.

A multi-index is a tuple of (prime position, exponent) pairs with positions
strictly increasing (1-based: position 1 is the prime 2).  The lift sends
the index n = prod p_j^{alpha_j} to the monomial z^alpha; it is an exact
bijection on supports and an algebra isomorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .double import _make
from .factor import _prime_at, _prime_position, factorize
from .series import PRUNE_BELOW, DirichletSeries, _key, _parts


def prime(position: int) -> int:
    """The prime at the given 1-based position (prime(1) == 2)."""
    if position < 1:
        raise ValueError("prime position must be >= 1")
    return _prime_at(position)


MultiIndex = tuple  # of (position, exponent) pairs, positions increasing


def index_to_multiindex(n: int) -> MultiIndex:
    """Prime-exponent multi-index of n >= 1 (empty for n == 1)."""
    return tuple((_prime_position(p), e) for p, e in factorize(n))


def multiindex_to_index(alpha: MultiIndex) -> int:
    n = 1
    for pos, e in alpha:
        n *= prime(pos) ** e
    return n


@dataclass(frozen=True)
class PrimePolynomial:
    """Finite polynomial sum c_alpha z^alpha in prime variables."""

    terms: dict[MultiIndex, complex]

    def max_position(self) -> int:
        return max((pos for alpha in self.terms for pos, _ in alpha), default=0)

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class DoublePrimePolynomial:
    """Finite polynomial sum c_{alpha,beta} z^alpha w^beta."""

    terms: dict[tuple[MultiIndex, MultiIndex], complex]

    def max_position(self) -> int:
        return max(
            (pos for ab in self.terms for alpha in ab for pos, _ in alpha), default=0
        )


@dataclass(frozen=True)
class TorusSample:
    """One point of the finite-dimensional torus, as phases in [0, 1)."""

    phases: tuple[float, ...]
    seed: int = 0


@dataclass(frozen=True)
class NormEstimate:
    """A sampled norm value with its statistical context.

    For H^p the value is the p-th root of the Monte Carlo moment estimate
    (the moment and its standard error are carried alongside); for H^infty
    the value is a certified lower bound and `upper` carries the
    coefficient-l1 upper bound.
    """

    value: float
    stderr: float
    samples: int
    seed: int
    kind: str
    moment: float | None = None
    moment_stderr: float | None = None
    upper: float | None = None


def lift(D):
    """Bohr lift: relabel each index by its prime-exponent multi-index.  A
    double series lifts index by index to a DoublePrimePolynomial."""
    terms = {_key(tuple(map(index_to_multiindex, _parts(k)))): c for k, c in D.terms.items()}
    if isinstance(D, DirichletSeries):
        return PrimePolynomial(terms)
    return DoublePrimePolynomial(terms)


def unlift(P, truncation=None):
    """Inverse Bohr lift; an index above the truncation raises ValueError.
    A DoublePrimePolynomial unlifts to a double series, its truncation a
    pair; by default each truncation is the largest index on its axis."""
    double = isinstance(P, DoublePrimePolynomial)
    terms = [(tuple(map(multiindex_to_index, key if double else (key,))), c)
             for key, c in P.terms.items()]
    if truncation is None:
        truncation = tuple(max((idx[j] for idx, _ in terms), default=1) for j in range(1 + double))
    return _make([(_key(idx), c) for idx, c in terms], _parts(truncation))


def lift_double(D):
    """lift of a double series."""
    return lift(D)


def unlift_double(P, truncations=None):
    """unlift of a double polynomial."""
    return unlift(P, truncations)


def eval_point(P: PrimePolynomial, z) -> complex:
    """Evaluate at a point of the polydisc, z indexed by prime position - 1."""
    total = 0j
    for alpha, c in P.terms.items():
        v = c
        for pos, e in alpha:
            v *= z[pos - 1] ** e
        total += v
    return total


def eval_torus(P: PrimePolynomial, sample: TorusSample) -> complex:
    """Evaluate at z_j = exp(2 pi i theta_j)."""
    if len(sample.phases) < P.max_position():
        raise ValueError(
            "sample has %d phases, polynomial uses %d primes"
            % (len(sample.phases), P.max_position())
        )
    z = [np.exp(2j * np.pi * th) for th in sample.phases]
    return eval_point(P, z)


def kronecker_sample(t: float, positions: int, seed: int = 0) -> TorusSample:
    """The Kronecker-flow point at time t: phases -t ln p_j / 2 pi mod 1,
    chosen so eval_torus(lift(D), .) equals evaluate(D, it)."""
    return TorusSample(
        tuple((-t * math.log(prime(j + 1)) / (2 * math.pi)) % 1.0 for j in range(positions)),
        seed,
    )


def _exponent_matrix(P: PrimePolynomial):
    nprimes = P.max_position()
    alphas = list(P.terms)
    coeffs = np.array([P.terms[a] for a in alphas], dtype=complex)
    E = np.zeros((len(alphas), nprimes))
    for i, alpha in enumerate(alphas):
        for pos, e in alpha:
            E[i, pos - 1] = e
    return E, coeffs, nprimes


def _torus_values(D: DirichletSeries, samples: int, seed: int) -> np.ndarray:
    P = lift(D)
    if P.is_zero():
        return np.zeros(samples, dtype=complex)
    E, coeffs, nprimes = _exponent_matrix(P)
    rng = np.random.default_rng(seed)
    phases = rng.random((samples, max(nprimes, 1)))
    return np.exp(2j * np.pi * (phases[:, : E.shape[1]] @ E.T)) @ coeffs


def hp_norm_estimate(D: DirichletSeries, p: float, samples: int, seed: int) -> NormEstimate:
    """Monte Carlo estimate of the H^p norm over uniform torus samples.

    Deterministic given the seed.  The reported value is the p-th root of
    the sample mean of |Bf|^p; stderr is the moment standard error
    propagated to the norm by the delta method.
    """
    if not 1 <= p < math.inf:  # NaN fails too
        raise ValueError("hp_norm_estimate requires a finite p >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    vals = np.abs(_torus_values(D, samples, seed)) ** p
    moment = float(np.mean(vals))
    moment_se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    value = moment ** (1.0 / p)
    stderr = moment_se * value / (p * moment) if moment > PRUNE_BELOW else moment_se
    return NormEstimate(value, stderr, samples, seed, "hp", moment, moment_se)


def hinf_norm_estimate(D: DirichletSeries, samples: int, seed: int) -> NormEstimate:
    """Lower bound on the H^infty norm: torus sampling plus local refinement.

    The true norm lies between `value` and the attached coefficient-l1
    bound `upper`.
    """
    from scipy.optimize import minimize

    P = lift(D)
    upper = D.l1_norm()
    if P.is_zero():
        return NormEstimate(0.0, 0.0, samples, seed, "hinf-lower", upper=0.0)
    E, coeffs, nprimes = _exponent_matrix(P)
    rng = np.random.default_rng(seed)
    if nprimes == 0:  # constant polynomial
        return NormEstimate(abs(coeffs[0]), 0.0, samples, seed, "hinf-lower", upper=upper)
    phases = rng.random((samples, nprimes))
    vals = np.abs(np.exp(2j * np.pi * (phases @ E.T)) @ coeffs)
    best = int(np.argmax(vals))

    def neg_abs(theta):
        return -abs(np.exp(2j * np.pi * (theta @ E.T)) @ coeffs)

    res = minimize(neg_abs, phases[best], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    value = max(float(vals[best]), float(-res.fun))
    return NormEstimate(value, 0.0, samples, seed, "hinf-lower", upper=upper)
