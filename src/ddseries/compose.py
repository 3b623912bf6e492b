"""Symbol calculus for composition operators on half-planes.

A symbol in d = 1 or 2 variables is C z + (phi_1, ..., phi_d)(z) with C a
d x d matrix of non-negative integer slopes and each phi_i a truncated
Dirichlet series in d variables.  The core primitive is the expansion of
k^{-symbol} as a (double) Dirichlet series, computed along two independent
routes: the production exp-recurrence path and the factorization-sum path
used as an oracle.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass, field

from .bohr import (
    DoublePrimePolynomial,
    PrimePolynomial,
    prime,
    unlift,
)
from .double import (
    DoubleDirichletSeries,
    _evaluate,
    _make,
    _rows,
    add2,
    evaluate2,
)
from .factor import pair_factorizations
from .series import (
    DirichletSeries,
    _blocked,
    _check_index,
    _exp_blocks,
    _exp_constant,
    _gap,
    _key,
    _parts,
    _pruned,
    _Series,
    exp_series,
    log_series,
    scale,
)


@dataclass(frozen=True, init=False)
class Symbol:
    """Composition-operator symbol: Symbol(c0, phi) is c0*s + phi(s), and
    Symbol(c1, d1, c2, d2, phi1, phi2) has the components c_j*s + d_j*t +
    phi_j(s,t).  The d*d slopes come row by row, then d series of arity d,
    as in the `symbol v1` header; `slopes` holds the rows, `phis` the series.
    """

    slopes: tuple
    phis: tuple

    def __init__(self, *args):
        d = {2: 1, 6: 2}.get(len(args))
        if d is None:
            raise TypeError("a symbol takes c0, phi or c1, d1, c2, d2, phi1, phi2")
        try:  # ints only: bools, floats and negative values are rejected
            flat = tuple(map(_check_index, args[:d * d]))
            if min(flat) < 0:
                raise ValueError
        except ValueError:
            raise ValueError("slopes must be non-negative integers, got %r"
                             % (args[:d * d],)) from None
        phis = args[d * d:]
        if any(not isinstance(phi, _Series) or len(phi.truncations) != d for phi in phis):
            raise ValueError("a symbol in %d variable(s) takes series in %d variable(s)"
                             % (d, d))
        object.__setattr__(self, "slopes", tuple(flat[i * d:i * d + d] for i in range(d)))
        object.__setattr__(self, "phis", phis)

    c0 = c1 = property(lambda self: self.slopes[0][0])
    d1 = property(lambda self: self.slopes[0][1])
    c2 = property(lambda self: self.slopes[1][0])
    d2 = property(lambda self: self.slopes[1][1])
    phi = phi1 = property(lambda self: self.phis[0])
    phi2 = property(lambda self: self.phis[1])

    def __call__(self, *z):
        """The value at s in one variable; the pair of component values at
        (s, t) in two."""
        return _key(tuple(
            functools.reduce(operator.add, map(operator.mul, row, z)) + _evaluate(phi, *z)
            for row, phi in zip(self.slopes, self.phis)
        ))


DoubleSymbol = Symbol


@dataclass
class ValidationReport:
    """Diagnostic outcome of the sampled symbol checks.

    A sampled check can refute validity but never certify it, so `ok` means
    "no failed condition found on the probes".  Components whose phi part
    has identically zero sampled real part are flagged as boundary cases.
    """

    ok: bool
    failures: list[str] = field(default_factory=list)
    boundary: list[str] = field(default_factory=list)
    min_re: dict[str, float] = field(default_factory=dict)


_BOUNDARY_EPS = 1e-12


def validate_symbol(sym, probes) -> ValidationReport:
    """Structural plus sampled range checks; diagnostics, raising only for
    a sym that is not a Symbol (TypeError) and for a probe value that
    overflows (ValueError, from the evaluation).

    probes: points s in C_+ for a symbol in one variable, pairs (s, t) in
    C_+^2 for one in two.
    """
    report = ValidationReport(ok=True)
    if not isinstance(sym, Symbol):
        raise TypeError("expected a Symbol")
    names = ("phi",) if len(sym.phis) == 1 else ("phi1", "phi2")
    probes = [_parts(p) for p in probes]  # a list: every component reads them all
    for name, row, phi in zip(names, sym.slopes, sym.phis):
        res = [_evaluate(phi, *p).real for p in probes]
        mn = min(res) if res else 0.0
        report.min_re[name] = mn
        if any(row):
            # slope present: phi needs Re >= 0; identically-zero Re is the
            # constant-imaginary boundary case
            if mn < -_BOUNDARY_EPS:
                report.ok = False
                report.failures.append(
                    "%s: Re < 0 on a probe (min %.3g), range leaves C+" % (name, mn)
                )
            elif res and max(abs(r) for r in res) <= _BOUNDARY_EPS:
                report.boundary.append(name)
        else:
            # no linear part: the whole symbol is phi, need Re > 0
            if mn <= 0.0:
                report.ok = False
                report.failures.append(
                    "%s: Re <= 0 on a probe (min %.3g) with zero slopes" % (name, mn)
                )
    return report


def _char_power(ks, sym: Symbol, truncations: tuple):
    """The series of prod_i k_i^{-Phi_i}, Phi_i the components of sym.

    Its slope part prod_i k_i^{-(C z)_i} multiplies every index on axis j
    by prod_i k_i^{C_ij}; exp being a homomorphism, the rest is one exp of
    -sum_i ln k_i * phi_i on the truncations left after that shift.  Only
    the terms of phi_i within those inner truncations are scaled and summed
    (see _log_term): no other term can reach an index in range.
    """
    if len(ks) != len(sym.phis) or min(ks) < 1:
        raise ValueError("char_power takes %d base(s) k >= 1" % len(sym.phis))
    shifts = [math.prod(map(pow, ks, column)) for column in zip(*sym.slopes)]
    inner = tuple(map(operator.floordiv, truncations, shifts))
    if 0 in inner:  # a shift beyond its truncation leaves no index in range
        return _make((), truncations)
    # one component is its own sum: add2 runs in two variables only
    log_char = functools.reduce(add2, (type(phi)._of(_log_term(phi, k, inner), _key(inner))
                                       for k, phi in zip(ks, sym.phis)))
    if len(ks) == 1:
        (shift,) = shifts
        terms = {n * shift: c for n, c in exp_series(log_char, inner[0]).terms.items()}
    else:
        sm, sn = shifts
        terms = {(m * sm, n * sn): v for (m, n), v in exp2(log_char, inner).terms.items()}
    return type(log_char)._of(terms, _key(truncations))


def _log_term(phi, k: int, inner: tuple) -> dict:
    """The terms of -ln k * phi on the indices within inner, formed and
    pruned as scale forms and prunes them, so that every bit (signed zeros
    too) is scale's."""
    # k = 1 gives -0.0 * phi, which scale prunes to nothing: no term is read
    c, terms = complex(-math.log(k)), phi.terms if k > 1 else {}
    if len(inner) == 2:
        M, N = inner
        return _pruned({(m, n): a * c for (m, n), a in terms.items() if m <= M and n <= N})
    (N,) = inner
    return _pruned({n: a * c for n, a in terms.items() if n <= N})


def char_power(k: int, sym: Symbol, truncation: int) -> DirichletSeries:
    """The Dirichlet series of k^{-sym(s)}: exp_series(-ln k * phi) with
    every index multiplied by k^{c0}.  k == 1 gives the constant 1."""
    return _char_power((k,), sym, (truncation,))


def char_power_double(k: int, l: int, sym: Symbol, truncations) -> DoubleDirichletSeries:
    """The double Dirichlet series of k^{-Phi_1(s,t)} l^{-Phi_2(s,t)}: one
    exp2 of -ln k * phi_1 - ln l * phi_2 with the slope shifts
    (m, n) -> (k^c1 l^c2 m, k^d1 l^d2 n) applied."""
    return _char_power((k, l), sym, tuple(truncations))


def exp2(phi: DoubleDirichletSeries, truncations) -> DoubleDirichletSeries:
    """Formal exponential of a double series, mirroring exp_series.

    The total derivation f'(m, n) = f(m, n) ln(mn) is additive under the
    pair product and vanishes only at (1, 1), so with psi = phi - b_{1,1}
    the coefficients of E = exp(psi) obey

        e_{m,n} = (1/ln(mn)) sum_{(d,f) | (m,n), (d,f) != (1,1)}
                  ln(df) * psi_{d,f} * e_{m/d, n/f},

    solved in increasing order of m*n, then m (a heap) over the pair
    products of support elements of psi only.  The row loop stops at
    d > M // m and the entry loop at f > N // n: O(|E| * |psi|), never a
    loop over [1,M]x[1,N].  Dense input takes _blocks.recurrence, as
    exp_series does (see series._blocked).
    """
    M, N = truncations = tuple(truncations)
    factor = _exp_constant(phi.terms.get((1, 1), 0j))
    if _blocked(truncations, phi):
        return _exp_blocks(phi, truncations, factor)
    gens = _rows({(d, f): math.log(d * f) * v for (d, f), v in phi.terms.items()
                  if (d, f) != (1, 1) and d <= M and f <= N})
    acc = {(d, f): g for d, row in gens for f, g in row}
    # (m, n) as the int m*n*(M + 1) + m: it pops in the order of (m*n, m, n)
    width = M + 1
    heap = sorted(d * f * width + d for d, f in acc)
    out = {(1, 1): 1 + 0j}
    while heap:
        mn, m = divmod(heapq.heappop(heap), width)
        n = mn // m
        e = acc.pop((m, n)) / math.log(mn)
        out[(m, n)] = e
        dmax, fmax = M // m, N // n
        for d, row in gens:
            if d > dmax:
                break
            for f, g in row:
                if f > fmax:
                    break
                key = (m * d, n * f)
                if key in acc:
                    acc[key] += e * g
                else:
                    acc[key] = e * g
                    heapq.heappush(heap, key[0] * key[1] * width + key[0])
    return DoubleDirichletSeries._of(_pruned({k: factor * v for k, v in out.items()}), (M, N))


def char_power_via_factorizations(k: int, phi: DoubleDirichletSeries,
                                  truncations) -> DoubleDirichletSeries:
    """Oracle route for the series of k^{-phi(s,t)}: coefficients summed
    over all pair factorizations of each output index.

    Exponential in the worst case; exists to arbitrate the exp-recurrence
    path and is exercised by the cross-algorithm tests.
    """
    if k < 2:
        raise ValueError("char_power_via_factorizations requires k >= 2")
    M, N = truncations
    logk = math.log(k)
    global_factor = _exp_constant(-logk * phi.terms.get((1, 1), 0j))
    out = {(1, 1): global_factor}
    for MM in range(1, M + 1):
        for NN in range(1, N + 1):
            if (MM, NN) == (1, 1):
                continue
            total = 0j
            for factorization in pair_factorizations(MM, NN):
                term = 1 + 0j
                for (m, n), r in factorization:
                    b = phi.terms.get((m, n), 0j)
                    if b == 0:
                        term = 0j
                        break
                    term *= (-logk * b) ** r / math.factorial(r)
                total += term
            if total != 0:
                out[(MM, NN)] = global_factor * total
    return DoubleDirichletSeries(_pruned(out), (M, N))


def apply(sym, D, truncation):
    """The composition operator: the series of D(sym(s)), or of D(sym(s, t))
    for a symbol and a series in two variables, the truncation then being a
    pair.  Colliding output indices accumulate.  A ValueError if the
    symbol, the series and the truncation differ in the number of
    variables."""
    truncs = _parts(truncation)
    if not len(sym.phis) == len(D.truncations) == len(truncs):
        raise ValueError("the symbol and the series differ in the number of variables")
    truncation = _key(truncs)
    # the public names, looked up now, so that a traced run counts the work
    power = char_power if len(truncs) == 1 else char_power_double
    out: dict = {}
    for k, a in sorted(D.terms.items()):
        for n, c in power(*_parts(k), sym, truncation).terms.items():
            out[n] = out.get(n, 0j) + a * c
    return type(D)._of(_pruned(out), truncation)


def apply_double(sym: Symbol, D: DoubleDirichletSeries, truncations) -> DoubleDirichletSeries:
    """apply of a two-variable symbol."""
    return apply(sym, D, truncations)


class SymbolRecoveryError(ValueError):
    """The alleged monomial powers are not consistent with any symbol."""


def recover_symbol(D2: DirichletSeries, D3: DirichletSeries, truncation: int) -> Symbol:
    """Reconstruct the symbol from the series of 2^{-phi} and 3^{-phi}.

    c0 comes from the first nonzero index of D2 (and must match D3 through
    log base 3); the phi part is -log_series / ln 2, cross-validated against
    the same recovery from D3 within 1e-9.
    """
    if D2.is_zero() or D3.is_zero():
        raise SymbolRecoveryError("inputs must be nonzero series")
    m2 = min(D2.terms)
    c0 = round(math.log2(m2))
    if 2**c0 != m2:
        raise SymbolRecoveryError("first index %d of D2 is not a power of 2" % m2)
    m3 = min(D3.terms)
    if 3**c0 != m3:
        raise SymbolRecoveryError(
            "first index %d of D3 inconsistent with c0 = %d" % (m3, c0)
        )
    # log only up to the unshifted information horizon of each input: beyond
    # it the truncated exponential no longer determines phi
    t2 = min(truncation, D2.truncation // 2**c0)
    t3 = min(truncation, D3.truncation // 3**c0)
    phi2 = _recover_phi(D2, 2, c0, t2)
    phi3 = _recover_phi(D3, 3, c0, t3)
    horizon = min(t2, t3)
    mismatch = _gap(*({n: c for n, c in phi.terms.items() if n <= horizon}
                      for phi in (phi2, phi3)))
    if mismatch > 1e-9:
        raise SymbolRecoveryError(
            "k=2 and k=3 recoveries disagree by %.3g; inputs are not symbol powers"
            % mismatch
        )
    return Symbol(c0, phi2)


def _recover_phi(D: DirichletSeries, k: int, c0: int, truncation: int) -> DirichletSeries:
    shift = k**c0
    unshifted = {}
    for n, c in D.terms.items():
        if n % shift != 0:
            raise SymbolRecoveryError(
                "index %d of the k=%d input is not a multiple of %d" % (n, k, shift)
            )
        unshifted[n // shift] = c
    U = DirichletSeries(unshifted, max(truncation, max(unshifted)))
    return scale(log_series(U, truncation), -1.0 / math.log(k))


@dataclass
class RangeReport:
    """Sampled lower estimate of the half-plane margin per component."""

    epsilon: float
    delta: tuple[float, float]
    probes: int


def _component_mins(sym: Symbol, grid) -> tuple:
    """Sampled min over the grid of Re of each full component of sym,
    slopes included."""
    values = [_parts(sym(*_parts(pt))) for pt in grid]
    return tuple(min(v[i].real for v in values) for i in range(len(sym.phis)))


def range_check(sym: Symbol, epsilon: float, grid) -> RangeReport:
    """Sampled min over C_epsilon^2 of Re phi_j(s,t) (full component,
    slopes included), estimating the delta of the range lemma."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    grid = list(grid)
    return RangeReport(epsilon, _component_mins(sym, grid), len(grid))


@dataclass
class PositivityReport:
    verdict: str  # "consistent" or "disproof"
    min_re: float
    argmin: tuple[complex, complex]


def positivity_check(phi: DoubleDirichletSeries, grid) -> PositivityReport:
    """Sampled check of Re phi >= 0 on C_+^2: negative findings are a
    disproof, non-negative findings only consistency."""
    best, arg = min(((evaluate2(phi, s, t).real, (s, t)) for s, t in grid),
                    key=lambda found: found[0], default=(0.0, (0j, 0j)))
    return PositivityReport("disproof" if best < 0 else "consistent", best, arg)


@dataclass
class CompactnessReport:
    compact: bool
    delta: float
    component_infs: tuple[float, float]


_COMPACT_THRESHOLD = 1e-4


def compactness_check(sym: Symbol, grid) -> CompactnessReport:
    """Sampled inf of Re phi_j over a grid approaching the boundary of
    C_+^2.  A positive inf (above threshold) yields a compact verdict with
    delta; an inf collapsing to 0 yields non-compact."""
    infs = _component_mins(sym, list(grid))
    return CompactnessReport(min(infs) > _COMPACT_THRESHOLD, min(infs), infs)


def bohr_commutation_check(sym, f, probes, truncation: int = 512) -> float:
    """Residual of the commuting square between the composition operator
    and its Bohr-side counterpart, evaluated numerically on the probes.

    Single variable: f is a PrimePolynomial, probes are points s; the
    operator route lifts apply(sym, unlift(f)) while the Bohr route
    substitutes z_j -> series of p_j^{-sym}.  Double variable analogously
    with pairs (s, t), and z_j -> p_j^{-sym_1}, w_j -> p_j^{-sym_2}.
    """
    if not isinstance(sym, Symbol):
        raise TypeError("expected a Symbol")
    d = len(sym.phis)
    if not isinstance(f, (PrimePolynomial, DoublePrimePolynomial)[d - 1]):
        raise TypeError("the symbol and the polynomial differ in the number of variables")
    truncs = (truncation,) * d
    G = apply(sym, unlift(f, truncs), truncs)
    # one multi-index per axis; position j of axis i is substituted by psi[i, j]
    terms = [((key,) if d == 1 else key, c) for key, c in f.terms.items()]
    used = {(i, pos) for alphas, _ in terms for i, alpha in enumerate(alphas) for pos, _ in alpha}
    # the series of p^{-sym_i}: the base p on axis i, 1 on the others
    psi = {(i, pos): _char_power(tuple(prime(pos) if j == i else 1 for j in range(d)), sym, truncs)
           for i, pos in sorted(used)}
    residual = 0.0
    for pt in probes:
        lhs = _evaluate(G, *_parts(pt))
        vals = {k: _evaluate(ser, *_parts(pt)) for k, ser in psi.items()}
        rhs = 0j
        for alphas, c in terms:
            term = c
            for i, alpha in enumerate(alphas):
                for pos, e in alpha:
                    term *= vals[i, pos] ** e
            rhs += term
        residual = max(residual, abs(lhs - rhs))
    return residual
