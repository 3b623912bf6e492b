"""Self-verification suite: thirteen numbered checks covering the algebra
kernel, the symbol calculus, the Bohr transform, the norm estimators and
the analytic verifiers.

Each check is deterministic (fixed seeds), returns a CheckResult and is
shared between the test suite and the CLI `selftest` subcommand.  The
`value` field is the worst observed error or margin of the check and must
stay within `tolerance`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analyze import (
    coefficient_extract,
    semigroup_identify,
    series_evaluator,
    sup_monotonicity_check,
    three_lines_check,
    SemigroupError,
)
from .bohr import (
    PrimePolynomial,
    _hp_sampled,
    lift,
    unlift,
)
from .compose import (
    DoubleSymbol,
    Symbol,
    apply,
    bohr_commutation_check,
    char_power,
    char_power_via_factorizations,
    compactness_check,
    exp2,
    recover_symbol,
)
from .double import _evaluate, constant_double, make_double_series, zero_double
from .grids import boundary_grid2
from .series import (DirichletSeries, _gap, _parts, exp_series, log_series, make_series, mul,
                     scale)
from .superpose import young_bound_verify

_PROBE_IMS = (-7.3, -2.1, 0.0, 3.7, 9.4)


@dataclass
class CheckResult:
    passed: bool
    value: float
    tolerance: float
    detail: str = ""
    # set by run_all, which names and times every check
    name: str = ""
    elapsed: float = 0.0


def _disk(rng, radius: float) -> complex:
    r = radius * math.sqrt(rng.uniform(0.0, 1.0))
    a = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(a), r * math.sin(a))


def _random_phi(rng, trunc: int = 8, decay: float = 0.0) -> DirichletSeries:
    """Random sparse series with |b_n| <= 0.5 * n^-decay.

    The composition checks compare a truncated series against an exact
    pointwise value, so their tolerance budgets the analytic truncation
    tail; decay 3 keeps that tail below 1e-8 at truncation 512 for every
    slope in {0,1,2}.  The coefficientwise checks use decay 0.
    """
    size = int(rng.integers(2, 6))
    idx = [1] + list(rng.choice(np.arange(2, trunc + 1), size=size - 1, replace=False))
    return make_series(
        [(int(n), _disk(rng, 0.5 * float(n) ** -decay)) for n in idx], trunc
    )


def _random_symbol(rng, decay: float = 0.0) -> Symbol:
    c0 = int(rng.integers(0, 3))
    phi = _random_phi(rng, decay=decay)
    if c0 == 0:
        # a slopeless symbol must map into a strictly interior half-plane
        terms = dict(phi.terms)
        terms[1] = complex(1.0 + rng.uniform(0.0, 0.5), rng.uniform(-0.5, 0.5))
        phi = DirichletSeries(terms, phi.truncation)
    return Symbol(c0, phi)


def _random_poly(rng, n_terms: int = 8, max_index: int = 8) -> DirichletSeries:
    idx = rng.choice(np.arange(1, max_index + 1), size=min(n_terms, max_index), replace=False)
    return make_series([(int(n), _disk(rng, 1.0)) for n in idx], max_index)


def _random_double_phi(rng, bound: int = 8, truncs=(8, 8), decay: float = 0.0):
    size = int(rng.integers(2, 6))
    pairs = {(1, 1)}
    while len(pairs) < size:
        pairs.add((int(rng.integers(1, bound + 1)), int(rng.integers(1, bound + 1))))
    return make_double_series(
        [(p, _disk(rng, 0.5 * float(p[0] * p[1]) ** -decay)) for p in sorted(pairs)],
        truncs,
    )


def _random_double_symbol(rng) -> DoubleSymbol:
    # per-axis slope sums bounded by 2 so index shifts of 8-smooth inputs
    # stay inside truncation 256
    c1 = int(rng.integers(0, 3))
    c2 = int(rng.integers(0, 3 - c1))
    d1 = int(rng.integers(0, 3))
    d2 = int(rng.integers(0, 3 - d1))
    phis = []
    for c, d in ((c1, d1), (c2, d2)):
        phi = _random_double_phi(rng, decay=3.0)
        if c == 0 and d == 0:
            terms = dict(phi.terms)
            terms[(1, 1)] = complex(1.0 + rng.uniform(0.0, 0.5), rng.uniform(-0.5, 0.5))
            phi = make_double_series(list(terms.items()), phi.truncations)
        phis.append(phi)
    return DoubleSymbol(c1, d1, c2, d2, phis[0], phis[1])


def _random_double_poly(rng, n_terms: int = 8, bound: int = 8):
    pairs = set()
    while len(pairs) < n_terms:
        pairs.add((int(rng.integers(1, bound + 1)), int(rng.integers(1, bound + 1))))
    return make_double_series([(p, _disk(rng, 1.0)) for p in sorted(pairs)], (bound, bound))


def _check_compose(seed, symbol, poly, truncation, probes, tol) -> CheckResult:
    """apply(sym, D) at the probes against sum_k a_k k^{-sym(probe)}, for 50
    random symbols and series of one or of two variables."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        sym = symbol(rng)
        D = poly(rng)
        G = apply(sym, D, truncation)
        for pt in map(_parts, probes):
            exact = _evaluate(D, *_parts(sym(*pt)))
            worst = max(worst, abs(_evaluate(G, *pt) - exact))
    return CheckResult(worst <= tol, worst, tol)


def check_compose_single(seed: int = 101) -> CheckResult:
    """Composition against direct pointwise evaluation, one variable."""
    return _check_compose(seed, lambda rng: _random_symbol(rng, decay=3.0),
                          _random_poly, 512, [complex(2.0, v) for v in _PROBE_IMS], 1e-8)


def check_compose_double(seed: int = 202) -> CheckResult:
    """Composition against direct pointwise evaluation, two variables."""
    probes = [(complex(2.0, v), complex(2.0, -0.7 * v)) for v in _PROBE_IMS]
    return _check_compose(seed, _random_double_symbol, _random_double_poly,
                          (256, 256), probes, 1e-6)


def check_cross_algorithm(seed: int = 303) -> CheckResult:
    """exp2 recurrence route against the factorization-sum oracle."""
    rng = np.random.default_rng(seed)
    truncs = (32, 32)
    worst = 0.0
    for _ in range(100):
        phi = _random_double_phi(rng, bound=32, truncs=truncs)
        k = int(rng.integers(2, 7))
        via_exp = exp2(scale(phi, -math.log(k)), truncs)
        via_fact = char_power_via_factorizations(k, phi, truncs)
        worst = max(worst, _gap(via_exp.terms, via_fact.terms))
    tol = 1e-12
    return CheckResult(worst <= tol, worst, tol)


def check_exp_log_roundtrip(seed: int = 404) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        phi = _random_phi(rng, trunc=32)
        back = log_series(exp_series(phi, 32), 32)
        worst = max(worst, _gap(phi.terms, back.terms))
    tol = 1e-12
    return CheckResult(worst <= tol, worst, tol)


def check_symbol_recovery(seed: int = 505) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(50):
        sym = _random_symbol(rng)
        D2 = char_power(2, sym, 64)
        D3 = char_power(3, sym, 64)
        rec = recover_symbol(D2, D3, 64)
        if rec.c0 != sym.c0:
            ok = False
            continue
        for n, c in sym.phi.terms.items():
            worst = max(worst, abs(rec.phi.terms.get(n, 0j) - c))
    tol = 1e-9
    return CheckResult(ok and worst <= tol, worst, tol, "" if ok else "c0 mismatch")


def _poly_product(f: PrimePolynomial, g: PrimePolynomial) -> PrimePolynomial:
    out: dict = {}
    for a, ca in f.terms.items():
        da = dict(a)
        for b, cb in g.terms.items():
            merged = dict(da)
            for pos, e in b:
                merged[pos] = merged.get(pos, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0j) + ca * cb
    return PrimePolynomial({k: v for k, v in out.items() if v != 0})


def check_bohr_isomorphism(seed: int = 606) -> CheckResult:
    """Lift/unlift bijection, multiplicativity and operator commutation."""
    rng = np.random.default_rng(seed)
    worst_mult = 0.0
    exact_ok = True
    for _ in range(20):
        A = _random_poly(rng, n_terms=5, max_index=16)
        B = _random_poly(rng, n_terms=5, max_index=16)
        if unlift(lift(A), A.truncation).terms != A.terms:
            exact_ok = False
        direct = lift(mul(A, B, 256))
        via_poly = _poly_product(lift(A), lift(B))
        worst_mult = max(worst_mult, _gap(direct.terms, via_poly.terms))
    worst_comm = 0.0
    probes = [complex(2.0, v) for v in _PROBE_IMS]
    for _ in range(20):
        sym = _random_symbol(rng, decay=3.0)
        terms = {}
        for alpha in ((), ((1, 1),), ((2, 1),), ((1, 2),), ((1, 1), (2, 1))):
            terms[alpha] = _disk(rng, 1.0)
        f = PrimePolynomial(terms)
        worst_comm = max(worst_comm, bohr_commutation_check(sym, f, probes, 512))
    passed = exact_ok and worst_mult <= 1e-13 and worst_comm <= 1e-8
    value = max(worst_mult, worst_comm)
    return CheckResult(
        passed, value, 1e-8,
        "mult %.3g comm %.3g%s" % (worst_mult, worst_comm, "" if exact_ok else " roundtrip broken"),
    )


def check_parseval(seed: int = 707) -> CheckResult:
    """The Monte Carlo H^2 moment (the sampler that hp_norm_estimate falls
    back to; its exact route would compare l2 sums with themselves) against
    the coefficient l2 sum, within 3 standard errors."""
    rng = np.random.default_rng(seed)
    worst_sigmas = 0.0
    worst_rel_se = 0.0
    for i in range(20):
        D = _random_poly(rng, n_terms=6, max_index=32)
        est = _hp_sampled(D, 2.0, 100_000, seed * 1000 + i)
        exact = sum(abs(c) ** 2 for c in D.terms.values())
        if est.moment_stderr > 0:
            worst_sigmas = max(worst_sigmas, abs(est.moment - exact) / est.moment_stderr)
        worst_rel_se = max(worst_rel_se, est.moment_stderr / est.moment)
    passed = worst_sigmas <= 3.0 and worst_rel_se <= 0.02
    return CheckResult(passed, worst_sigmas, 3.0,
                       "worst relative stderr %.3g (cap 0.02)" % worst_rel_se)


def check_young(seed: int = 808) -> CheckResult:
    """The norm inequality ||P^k||_q <= ||P||_p^k, k*q <= p, behind the
    polynomial superposition bound (see young_bound_verify), on random
    polynomials with unit constant term."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst_slack = math.inf
    for i in range(200):
        terms = [(1, 1 + 0j)]
        idx = rng.choice(np.arange(2, 9), size=3, replace=False)
        terms += [(int(n), _disk(rng, 0.5)) for n in idx]
        P = make_series(terms, 8)
        q = float(rng.choice([1.0, 2.0]))
        k = int(rng.integers(1, 4))
        p = k * q * float(rng.choice([1.0, 1.5, 2.0]))
        rep = young_bound_verify(P, k, p, q, 4000, seed * 1000 + i)
        if not rep.holds:
            violations += 1
        worst_slack = min(worst_slack, rep.slack)
    return CheckResult(violations == 0, float(violations), 0.0,
                       "worst slack %.3g" % worst_slack)


def check_sup_monotonicity(seed: int = 909) -> CheckResult:
    rep = sup_monotonicity_check(make_series([(2, 1 + 0j)], 2), 0.5, 1.0)
    err = max(
        abs(rep.lower_sup.value - 2.0 ** -0.5), abs(rep.upper_sup.value - 0.5)
    )
    ok = err <= 1e-4 and rep.strictness == "strict" and rep.nonstrict_holds
    rng = np.random.default_rng(seed)
    for _ in range(20):
        D = _random_poly(rng, n_terms=5, max_index=32)
        if len(D.terms) == 1 and 1 in D.terms:
            continue
        r = sup_monotonicity_check(D, 0.5, 1.0)
        if not r.nonstrict_holds:
            ok = False
            err = max(err, r.upper_sup.value - r.lower_sup.value)
    return CheckResult(ok, err, 1e-4)


def check_three_lines(seed: int = 1010) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = math.inf
    ok = True
    for _ in range(20):
        D = _random_double_poly(rng, n_terms=6)
        rep = three_lines_check(D, 0.5, 0.5, 2.0, 0.5, 0.5)
        worst = min(worst, rep.slack)
        ok = ok and rep.holds
    return CheckResult(ok, worst, -1e-6,
                       "value is the minimal slack, must stay above -1e-6")


def check_coefficient_extraction(seed: int = 1111) -> CheckResult:
    rng = np.random.default_rng(seed)
    D = _random_poly(rng, n_terms=8, max_index=8)
    ev = series_evaluator(D)

    def worst_error(T):
        w = 0.0
        for j in range(1, 9):
            got = coefficient_extract(ev, j, 0.5, T, panels=200_000).value
            w = max(w, abs(got - D.terms.get(j, 0j)))
        return w

    e_full = worst_error(1e4)
    e_half = worst_error(5e3)
    ok = e_full <= 1e-2 and e_half <= 3.0 * e_full
    return CheckResult(ok, e_full, 1e-2, "halved-range worst error %.3g (cap 3x)" % e_half)


def check_compactness(seed: int = 0) -> CheckResult:
    grid = boundary_grid2()
    affine = DoubleSymbol(
        1, 1, 1, 0, constant_double(2.0, (1, 1)), constant_double(1.0, (1, 1))
    )
    rep_a = compactness_check(affine, grid)
    identity = DoubleSymbol(1, 0, 0, 1, zero_double((1, 1)), zero_double((1, 1)))
    rep_i = compactness_check(identity, grid)
    err = abs(rep_a.delta - 1.0)
    ok = rep_a.compact and err <= 1e-6 and not rep_i.compact
    return CheckResult(ok, err, 1e-6,
                       "affine delta %.9f, identity delta %.3g" % (rep_a.delta, rep_i.delta))


def check_semigroup(seed: int = 1313) -> CheckResult:
    rng = np.random.default_rng(seed)
    phi = _random_phi(rng, trunc=8)
    A = DirichletSeries({2 * n: c for n, c in phi.terms.items()}, 16)
    B = DirichletSeries({3 * n: c for n, c in phi.terms.items()}, 24)
    err = _gap(phi.terms, semigroup_identify(A, B, 1).terms)
    corrupted = DirichletSeries({**A.terms, 3: 0.05 + 0j}, 16)
    rejected = False
    try:
        semigroup_identify(corrupted, B, 1)
    except SemigroupError:
        rejected = True
    ok = err <= 1e-6 and rejected
    return CheckResult(ok, err, 1e-6,
                       "corrupted input %s" % ("rejected" if rejected else "NOT rejected"))


_CHECKS = (
    check_compose_single,
    check_compose_double,
    check_cross_algorithm,
    check_exp_log_roundtrip,
    check_symbol_recovery,
    check_bohr_isomorphism,
    check_parseval,
    check_young,
    check_sup_monotonicity,
    check_three_lines,
    check_coefficient_extraction,
    check_compactness,
    check_semigroup,
)


def _check_name(fn) -> str:
    return fn.__name__.removeprefix("check_").replace("_", "-")


def run_all(names=None) -> list[CheckResult]:
    selected = [fn for fn in _CHECKS if names is None or _check_name(fn) in set(names)]
    if names is not None:
        unknown = set(names) - {_check_name(fn) for fn in _CHECKS}
        if unknown:
            raise ValueError("unknown checks: %s" % ", ".join(sorted(unknown)))
    results = []
    for fn in selected:
        t0 = time.monotonic()
        r = fn()
        r.name, r.elapsed = _check_name(fn), time.monotonic() - t0
        results.append(r)
    return results


def available_checks() -> list[str]:
    return [_check_name(fn) for fn in _CHECKS]
