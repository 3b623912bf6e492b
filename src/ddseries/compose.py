"""Symbol calculus for composition operators on half-planes.

A symbol in one variable is c0*s + phi(s) with c0 a non-negative integer
and phi a truncated Dirichlet series; in two variables each component is
c*s + d*t + phi_j(s,t) with four non-negative integer slopes.  The core
primitive is the expansion of k^{-symbol} as a (double) Dirichlet series,
computed along two independent routes: the production exp-recurrence path
and the factorization-sum path used as an oracle.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field

from .bohr import (
    DoublePrimePolynomial,
    PrimePolynomial,
    prime,
    unlift,
)
from .double import (
    DoubleDirichletSeries,
    _rows,
    add2,
    evaluate2,
    scale2,
    zero_double,
)
from .factor import pair_factorizations
from .series import (
    DirichletSeries,
    _pruned,
    evaluate,
    exp_series,
    log_series,
    scale,
    zero_series,
)


@dataclass(frozen=True)
class Symbol:
    """Composition-operator symbol c0*s + phi(s)."""

    c0: int
    phi: DirichletSeries

    def __post_init__(self):
        if self.c0 < 0 or int(self.c0) != self.c0:
            raise ValueError("c0 must be a non-negative integer")

    def __call__(self, s: complex) -> complex:
        return self.c0 * s + evaluate(self.phi, s)


@dataclass(frozen=True)
class DoubleSymbol:
    """Two-component symbol, component j being c_j*s + d_j*t + phi_j(s,t)."""

    c1: int
    d1: int
    c2: int
    d2: int
    phi1: DoubleDirichletSeries
    phi2: DoubleDirichletSeries

    def __post_init__(self):
        for v in (self.c1, self.d1, self.c2, self.d2):
            if v < 0 or int(v) != v:
                raise ValueError("slopes must be non-negative integers")

    def component(self, j: int):
        if j == 1:
            return self.c1, self.d1, self.phi1
        if j == 2:
            return self.c2, self.d2, self.phi2
        raise ValueError("component index must be 1 or 2")

    def __call__(self, s: complex, t: complex) -> tuple[complex, complex]:
        return tuple(c * s + d * t + evaluate2(phi, s, t)
                     for c, d, phi in map(self.component, (1, 2)))


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
    """Structural plus sampled range checks; diagnostics, never raises.

    probes: points s in C_+ for a Symbol, pairs (s, t) in C_+^2 for a
    DoubleSymbol.
    """
    report = ValidationReport(ok=True)
    if isinstance(sym, Symbol):
        comps = [("phi", sym.c0 > 0, lambda p: evaluate(sym.phi, p))]
    elif isinstance(sym, DoubleSymbol):
        comps = [
            ("phi1", sym.c1 > 0 or sym.d1 > 0, lambda p: evaluate2(sym.phi1, *p)),
            ("phi2", sym.c2 > 0 or sym.d2 > 0, lambda p: evaluate2(sym.phi2, *p)),
        ]
    else:
        raise TypeError("expected Symbol or DoubleSymbol")
    for name, has_slope, ev in comps:
        res = [ev(p).real for p in probes]
        mn = min(res) if res else 0.0
        report.min_re[name] = mn
        if has_slope:
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


def char_power(k: int, sym: Symbol, truncation: int) -> DirichletSeries:
    """The Dirichlet series of k^{-sym(s)}.

    Computed as exp_series(-ln k * phi) with every index shifted by the
    factor k^{c0} coming from k^{-c0 s}.  k == 1 gives the constant 1.
    """
    if k < 1:
        raise ValueError("char_power requires k >= 1")
    shift = k**sym.c0
    if shift > truncation:
        return zero_series(truncation)
    inner = exp_series(scale(sym.phi, -math.log(k)), truncation // shift)
    return DirichletSeries(
        {n * shift: c for n, c in inner.terms.items()}, truncation
    )


scale_double = scale2


def exp2(phi: DoubleDirichletSeries, truncations) -> DoubleDirichletSeries:
    """Formal exponential of a double series, mirroring exp_series.

    The total derivation f'(m, n) = f(m, n) ln(mn) is additive under the
    pair product and vanishes only at (1, 1), so with psi = phi - b_{1,1}
    the coefficients of E = exp(psi) obey

        e_{m,n} = (1/ln(mn)) sum_{(d,f) | (m,n), (d,f) != (1,1)}
                  ln(df) * psi_{d,f} * e_{m/d, n/f},

    solved in increasing order of m*n (a heap) over the pair products of
    support elements of psi only.  The row loop stops at d > M // m and the
    entry loop at f > N // n: O(|E| * |psi|), never a loop over [1,M]x[1,N].
    """
    M, N = truncations
    gens = _rows({(d, f): math.log(d * f) * v for (d, f), v in phi.terms.items()
                  if (d, f) != (1, 1) and d <= M and f <= N})
    acc = {(d, f): g for d, row in gens for f, g in row}
    heap = sorted((d * f, d, f) for d, f in acc)
    out = {(1, 1): 1 + 0j}
    while heap:
        mn, m, n = heapq.heappop(heap)
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
                    heapq.heappush(heap, (key[0] * key[1], key[0], key[1]))
    factor = cmath.exp(phi.terms.get((1, 1), 0j))
    return DoubleDirichletSeries(_pruned({k: factor * v for k, v in out.items()}), (M, N))


def char_power_double(k: int, l: int, sym: DoubleSymbol, truncations) -> DoubleDirichletSeries:
    """The double Dirichlet series of k^{-phi_1(s,t)} l^{-phi_2(s,t)} with
    the slope shifts (M, N) -> (k^c1 l^c2 M, k^d1 l^d2 N) applied.

    exp is a homomorphism, so the product is one exp2 of
    -ln k * phi_1 - ln l * phi_2.
    """
    if k < 1 or l < 1:
        raise ValueError("char_power_double requires k, l >= 1")
    M, N = truncations
    sm = k**sym.c1 * l**sym.c2
    sn = k**sym.d1 * l**sym.d2
    if sm > M or sn > N:
        return zero_double(truncations)
    inner_t = (M // sm, N // sn)
    log_char = add2(
        scale2(DoubleDirichletSeries(sym.phi1.terms, inner_t), -math.log(k)),
        scale2(DoubleDirichletSeries(sym.phi2.terms, inner_t), -math.log(l)),
    )
    prod = exp2(log_char, inner_t)
    return DoubleDirichletSeries(
        {(m * sm, n * sn): v for (m, n), v in prod.terms.items()}, (M, N)
    )


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
    b11 = phi.terms.get((1, 1), 0j)
    global_factor = cmath.exp(-logk * b11)
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
    for a DoubleSymbol and a double series, the truncation then being a
    pair.  Colliding output indices accumulate."""
    double = isinstance(sym, DoubleSymbol)
    if double:
        truncation = tuple(truncation)
    out: dict = {}
    for k, a in sorted(D.terms.items()):
        piece = char_power_double(*k, sym, truncation) if double else char_power(k, sym, truncation)
        for n, c in piece.terms.items():
            out[n] = out.get(n, 0j) + a * c
    return type(D)(_pruned(out), truncation)


def apply_double(sym: DoubleSymbol, D: DoubleDirichletSeries, truncations) -> DoubleDirichletSeries:
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
    common = {n for n in set(phi2.terms) | set(phi3.terms) if n <= horizon}
    mismatch = max(
        (abs(phi2.terms.get(n, 0j) - phi3.terms.get(n, 0j)) for n in common), default=0.0
    )
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


def _component_mins(sym: DoubleSymbol, grid) -> tuple[float, float]:
    """Sampled min over the grid of Re of each full component of sym,
    slopes included."""
    return tuple(
        min(c * s.real + d * t.real + evaluate2(phi, s, t).real for (s, t) in grid)
        for c, d, phi in map(sym.component, (1, 2))
    )


def range_check(sym: DoubleSymbol, epsilon: float, grid) -> RangeReport:
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
    best = None
    arg = None
    for (s, t) in grid:
        v = evaluate2(phi, s, t).real
        if best is None or v < best:
            best, arg = v, (s, t)
    if best is None:
        best, arg = 0.0, (0j, 0j)
    return PositivityReport("disproof" if best < 0 else "consistent", best, arg)


@dataclass
class CompactnessReport:
    compact: bool
    delta: float
    component_infs: tuple[float, float]


_COMPACT_THRESHOLD = 1e-4


def compactness_check(sym: DoubleSymbol, grid) -> CompactnessReport:
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
    double = isinstance(sym, DoubleSymbol)
    if not (double or isinstance(sym, Symbol)):
        raise TypeError("expected Symbol or DoubleSymbol")
    if not isinstance(f, DoublePrimePolynomial if double else PrimePolynomial):
        raise TypeError("the symbol and the polynomial differ in the number of variables")
    truncs = (truncation, truncation) if double else truncation

    def power(i, p):  # the series of p^{-sym_i}, i = 0, 1
        if not double:
            return char_power(p, sym, truncs)
        return char_power_double(*((p, 1) if i == 0 else (1, p)), sym, truncs)

    def value(D, pt):
        return evaluate2(D, *pt) if double else evaluate(D, pt)

    G = apply(sym, unlift(f, truncs), truncs)
    # one multi-index per axis; position j of axis i is substituted by psi[i, j]
    terms = [(key if double else (key,), c) for key, c in f.terms.items()]
    used = {(i, pos) for alphas, _ in terms for i, alpha in enumerate(alphas) for pos, _ in alpha}
    psi = {(i, pos): power(i, prime(pos)) for i, pos in sorted(used)}
    residual = 0.0
    for pt in probes:
        lhs = value(G, pt)
        vals = {k: value(ser, pt) for k, ser in psi.items()}
        rhs = 0j
        for alphas, c in terms:
            term = c
            for i, alpha in enumerate(alphas):
                for pos, e in alpha:
                    term *= vals[i, pos] ** e
            rhs += term
        residual = max(residual, abs(lhs - rhs))
    return residual
