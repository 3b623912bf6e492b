"""Bohr transform between Dirichlet series and polynomials in prime
variables, torus evaluation and H^p / H^infty norm estimation.

A multi-index is a tuple of (prime position, exponent) pairs with positions
strictly increasing (1-based: position 1 is the prime 2).  The lift sends
the index n = prod p_j^{alpha_j} to the monomial z^alpha; it is an exact
bijection on supports and an algebra isomorphism.

The lift and its inverse are exact integer work, and so is an even H^p
moment; only the torus functions compute numerically, and each imports
numpy itself, so that the algebra never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .double import _make, mul2
from .factor import _prime_at, _prime_position, factorize
from .series import PRUNE_BELOW, DirichletSeries, _key, _parts, mul


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

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class DoublePrimePolynomial:
    """Finite polynomial sum c_{alpha,beta} z^alpha w^beta."""

    terms: dict[tuple[MultiIndex, MultiIndex], complex]

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class TorusSample:
    """One point of the finite-dimensional torus, as phases in [0, 1)."""

    phases: tuple[float, ...]
    seed: int = 0


@dataclass(frozen=True)
class NormEstimate:
    """A norm value with its statistical context; `kind` names the route.

    For H^p the value is the p-th root of the moment, carried alongside with
    its standard error: exact with zero stderr for kind "hp-exact" (an even
    p, see hp_norm_estimate), a Monte Carlo estimate for kind "hp".  For
    H^infty the value is a certified lower bound and `upper` carries the
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


def eval_torus(P: PrimePolynomial, sample: TorusSample) -> complex:
    """Evaluate at z_j = exp(2 pi i theta_j)."""
    import numpy as np

    E, coeffs, width = _exponent_matrix(P)
    if len(sample.phases) < width:
        raise ValueError("sample has %d phases, polynomial uses %d primes"
                         % (len(sample.phases), width))
    return complex(np.exp(2j * np.pi * (np.array(sample.phases[:width]) @ E.T)) @ coeffs)


def kronecker_sample(t: float, positions: int, seed: int = 0) -> TorusSample:
    """The Kronecker-flow point at time t: phases -t ln p_j / 2 pi mod 1,
    chosen so eval_torus(lift(D), .) equals evaluate(D, it)."""
    return TorusSample(
        tuple((-t * math.log(prime(j + 1)) / (2 * math.pi)) % 1.0 for j in range(positions)),
        seed,
    )


def _exponent_matrix(P):
    """Exponents as rows of a matrix, one per term: the alpha columns of
    every prime position in use, then (for a double polynomial) the beta
    columns."""
    import numpy as np

    keys = list(P.terms)
    axes = list(zip(*keys)) if isinstance(P, DoublePrimePolynomial) else [keys]
    widths = [max((pos for alpha in axis for pos, _ in alpha), default=0) for axis in axes]
    E = np.zeros((len(keys), sum(widths)))
    offset = 0
    for axis, width in zip(axes, widths):
        for i, alpha in enumerate(axis):
            for pos, e in alpha:
                E[i, offset + pos - 1] = e
        offset += width
    coeffs = np.array([P.terms[k] for k in keys], dtype=complex)
    return E, coeffs, E.shape[1]


# the ascent runs from this many of the best torus samples, or from fewer
# when a series is so large that one Hessian (terms x dimensions^2
# multiply-adds, a dimension being a prime column some term uses) times the
# starts would pass _ASCENT_WORK
_TORUS_STARTS = 64
_ASCENT_WORK = 1 << 24
# a start stops when its step is below this, or its damping above the next
_STEP_TOL = 1e-12
_MAX_DAMPING = 1e30
# nor does the damping fall below this share of (sum |c_k| |F_k|^2)(sum |c_k|),
# a bound on the Hessians: at a maximum where |f| is flat in some direction
# (fewer terms than dimensions), a smaller one leaves the step's matrix
# singular to rounding
_MIN_DAMPING = 1e-10
# a cap on the steps: most starts stop long before it, but one creeping up
# a ridge in small steps may not
_MAX_STEPS = 200
# starts are climbed in blocks whose Hessian work arrays (starts x terms x
# dimensions, and starts x dimensions^2) hold at most this many entries
_BLOCK_ENTRIES = 1 << 21


def _trig_sum(F, c, X):
    """Values of f(x) = sum_k c_k e^{i <F_k, x>} at every row of X (F has
    one row of frequencies per term), with the gradients and Hessians of
    |f|^2 there.  F is real, so the Hessian of |f|^2 is
    2 Re(conj(df) df^T) - 2 F^T diag(Re(conj(f) W)) F for the terms W."""
    import numpy as np

    W = np.exp(1j * (X @ F.T)) * c
    f = W.sum(axis=1)
    df = 1j * (W @ F)
    fc = f.conj()
    r = (fc[:, None] * W).real
    hess = (df.conj()[:, :, None] * df[:, None, :]).real - (F.T * r[:, None, :]) @ F
    return f, 2 * (fc[:, None] * df).real, 2 * hess


def _ascend(F, c, starts):
    """Batched Levenberg-Marquardt ascent of |f|^2 from every start, for f
    as in _trig_sum.  A step is taken only when it raises |f|; the damping
    then falls tenfold, and otherwise it rises tenfold.  Returns the best
    |f| reached and where: never less than the best start."""
    import numpy as np

    X = np.array(starts, dtype=float)
    if not F.any():  # f is constant: nothing to climb
        return float(abs(c.sum())), X[0]
    size = max(1, _BLOCK_ENTRIES // (F.shape[1] * max(F.shape)))
    return max((_ascend_block(F, c, X[i:i + size]) for i in range(0, len(X), size)),
               key=lambda result: result[0])


def _ascend_block(F, c, X):
    import numpy as np

    f, grad, hess = _trig_sum(F, c, X)
    floor = _MIN_DAMPING * (np.abs(c) @ (F * F).sum(axis=1)) * np.abs(c).sum()
    damping = np.full(len(X), max(1e-3, floor))
    live = np.arange(len(X))
    eye = np.eye(F.shape[1])
    for _ in range(_MAX_STEPS):
        if not live.size:
            break
        A = damping[live, None, None] * eye - hess[live]
        step = np.linalg.solve(A, grad[live, :, None])[..., 0]
        trial = X[live] + step
        ft = (np.exp(1j * (trial @ F.T)) * c).sum(axis=1)
        up = np.abs(ft) > np.abs(f[live])
        moved = live[up]
        X[moved], f[moved], grad[moved], hess[moved] = trial[up], *_trig_sum(F, c, trial[up])
        damping[live] = np.maximum(damping[live] * np.where(up, 0.1, 10.0), floor)
        done = (np.linalg.norm(step, axis=1) < _STEP_TOL) | (damping[live] > _MAX_DAMPING)
        live = live[~done]
    best = int(np.argmax(np.abs(f)))
    return float(abs(f[best])), X[best]


def _climb(F, c, points, values, count, also=None):
    """The sample-then-climb rule behind every sup: the ascent of |f| (f as
    in _trig_sum) from the `count` points of largest |f|, given as `values`,
    and from the extra starts `also`.  Returns the best |f| reached and
    where; never less than the best sample."""
    import numpy as np

    # the count largest values, sorted only among themselves
    top = np.arange(len(values))
    if count < len(values):
        top = np.argpartition(values, -count)[-count:]
    starts = points[top[np.argsort(values[top])]]
    if also is not None:
        starts = np.vstack([starts, also])
    climbed, arg = _ascend(F, c, starts)
    best = int(np.argmax(values))
    if climbed >= values[best]:
        return climbed, arg
    return float(values[best]), points[best]


def _torus_values(D, samples: int, seed: int):
    """Uniform torus samples of the lift of D: the phases (one column per
    prime in use), the values there, and the exponent matrix and
    coefficients of the lift."""
    import numpy as np

    if samples < 1:
        raise ValueError("samples must be >= 1")
    E, coeffs, nprimes = _exponent_matrix(lift(D))
    phases = np.random.default_rng(seed).random((samples, nprimes))
    return phases, np.exp(2j * np.pi * (phases @ E.T)) @ coeffs, E, coeffs


# one pair product of the exact even moment costs about as much as this many
# sample-terms (one torus value of one term) of the sampler; see
# hp_norm_estimate
_PAIR_COST = 8


def hp_norm_estimate(D, p: float, samples: int, seed: int) -> NormEstimate:
    """The H^p norm of a single or a double series (of its lift on the
    torus): exact for an even p whenever that costs no more than sampling,
    a Monte Carlo estimate otherwise.

    For p = 2k, ||D||_p^p = ||D^k||_2^2 = sum |c|^2 over the coefficients of
    the untruncated power D^k, because the lift is an algebra isomorphism
    and Parseval holds on the torus.  That moment comes back with zero
    stderr and kind "hp-exact".  D^k takes k - 1 products by D (mul, or mul2
    for a double series).  The rule: the exact route runs while their pair
    products stay within samples * terms / _PAIR_COST, the sampler's own
    work (samples torus values of `terms` exponentials each) counted in
    pair products, and past that falls back to _hp_sampled (kind "hp").

    The crossover, measured with one BLAS thread on a 2-vCPU x86-64 host
    (Python 3.11, numpy 2.4), for 8 to 64 terms on indices up to 128,
    p = 4, 6 and 8 and 1,000 to 16,000 samples: one pair product cost as
    much as 5 to 9 sample-terms, so at the budget the two routes cost about
    the same.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if p >= 2 and p % 2 == 0:
        moment = _even_moment(D, int(p) // 2, samples * len(D.terms) // _PAIR_COST)
        if moment is not None:
            return NormEstimate(moment ** (1.0 / p), 0.0, samples, seed, "hp-exact", moment, 0.0)
    return _hp_sampled(D, p, samples, seed)


def _even_moment(D, k: int, budget: int):
    """sum |c|^2 over the coefficients of D^k, from k - 1 untruncated
    products by D (mul, or mul2 on the truncation pair); None when they would
    take more than budget pair products, and a ValueError if the sum
    overflows."""
    if not D.terms:
        return 0.0
    if (k - 1) * len(D.terms) > budget:  # each product takes |D| pairs at least
        return None
    if isinstance(D, DirichletSeries):
        product, trunc = mul, max(D.terms) ** k
    else:
        product, trunc = mul2, tuple(max(axis) ** k for axis in zip(*D.terms))
    acc, pairs = D, 0
    for _ in range(k - 1):
        pairs += len(acc.terms) * len(D.terms)
        if pairs > budget:
            return None
        acc = product(acc, D, trunc)
    try:
        moment = sum(abs(c) ** 2 for c in acc.terms.values())
    except OverflowError:
        moment = math.inf
    return _finite_moment(moment, 2 * k)


def _finite_moment(moment: float, p: float) -> float:
    """moment, or a ValueError naming p if it is not finite."""
    if not math.isfinite(moment):
        raise ValueError("the H^%g moment, the mean of |f|^%g, overflows" % (p, p))
    return moment


def _hp_sampled(D, p: float, samples: int, seed: int) -> NormEstimate:
    """Monte Carlo estimate of the H^p norm over uniform torus samples, for
    a single or a double series (the torus of its lift).

    Deterministic given the seed.  The reported value is the p-th root of
    the sample mean of |Bf|^p; stderr is the moment standard error
    propagated to the norm by the delta method.  A moment or a standard
    error that is not finite raises ValueError.
    """
    import numpy as np

    if not 1 <= p < math.inf:  # NaN fails too
        raise ValueError("hp_norm_estimate requires a finite p >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(_torus_values(D, samples, seed)[1]) ** p
        moment = _finite_moment(float(np.mean(vals)), p)
        moment_se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    _finite_moment(moment_se, p)
    value = moment ** (1.0 / p)
    stderr = moment_se * value / (p * moment) if moment > PRUNE_BELOW else moment_se
    return NormEstimate(value, stderr, samples, seed, "hp", moment, moment_se)


def hinf_norm_estimate(D, samples: int, seed: int) -> NormEstimate:
    """Lower bound on the H^infty norm: uniform torus samples, then _climb
    from the best of them over the prime columns that some term uses (the
    alpha columns, then the beta columns of a double series).  f does not
    depend on a column no term uses, so the ascent would leave it where it
    starts; dropping it changes only the rounding of the steps, though a
    start far from a maximum may then end at another local maximum.

    The value is the larger of the best sample and the ascent; the true
    norm lies between it and the attached coefficient-l1 bound `upper`.
    """
    import numpy as np

    phases, values, E, coeffs = _torus_values(D, samples, seed)
    used = E.any(axis=0)
    phases, E = phases[:, used], E[:, used]
    count = min(_TORUS_STARTS, max(1, _ASCENT_WORK // max(1, E.shape[0] * E.shape[1]**2)))
    value, _ = _climb(2 * np.pi * E, coeffs, phases, np.abs(values), count)
    return NormEstimate(value, 0.0, samples, seed, "hinf-lower", upper=float(D.l1_norm()))
