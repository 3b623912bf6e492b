"""The four seeded workloads.

Each workload turns (seed, job index) into one job: its inputs, the call
into ddseries that is timed, and an oracle check from ``oracles`` that runs
after the timer stops.  Inputs depend only on the seed and the index, so a
run that completes more jobs sees the same first jobs.

Job sizes follow a van der Corput sequence over each size range, the same
for every seed: any prefix of the job list covers the range evenly, so the
latency distribution and its percentiles hardly move with the number of
jobs a run completes.  The seed draws the coefficients and, where a job
has fewer terms than its range, the indices.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ddseries as dd
from ddseries import compose, formats

import oracles as orc

DENSE_OPS = ("mul", "exp_series", "log_series", "apply", "mul2", "exp2", "apply_double")
TORUS_OPS = ("hp2", "hp4", "hinf", "young", "superpose", "line_sup", "sup_monotonicity",
             "three_lines", "coefficient_extract")
CLI_SUBCOMMANDS = ("eval", "mul", "lift", "unlift", "compose", "norm",
                   "check-symbol", "recover-symbol")


@dataclass
class Job:
    op: str
    size: int                      # N, M*N for double series, or the term count
    run: Callable[[], object]      # the timed call
    check: Callable[[object], str | None]  # the untimed oracle


def van_der_corput(k: int) -> float:
    x, denom = 0.0, 1.0
    while k:
        denom *= 2.0
        k, bit = divmod(k, 2)
        x += bit / denom
    return x


class Workload:
    ops: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def unit(self, i: int) -> float:
        """Position in [0, 1) of job i within its operation's size range."""
        return van_der_corput(i // len(self.ops))

    def rng(self, i: int):
        return np.random.default_rng([self.seed, i])

    def job(self, i: int) -> Job:
        op = self.ops[i % len(self.ops)]
        return getattr(self, "job_" + op.replace("-", "_"))(i, self.unit(i), self.rng(i))

    def close(self) -> None:
        pass


def _coeffs(rng, n: int, decay=None):
    c = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    if decay is not None:
        c = c * decay
    return [complex(x) for x in c]


def dense_series(rng, N: int):
    c = _coeffs(rng, N, 1.0 / np.sqrt(np.arange(1, N + 1)))
    return dd.make_series(list(zip(range(1, N + 1), c)), N)


def dense_double(rng, M: int):
    idx = [(m, n) for m in range(1, M + 1) for n in range(1, M + 1)]
    decay = 1.0 / np.sqrt(np.array([m * n for m, n in idx], dtype=float))
    return dd.make_double_series(list(zip(idx, _coeffs(rng, len(idx), decay))), (M, M))


def canonical(D):
    """D as read back from its text form, terms in index order."""
    return formats.loads_series(formats.dumps_series(D))


def _first_failure(*checks):
    for c in checks:
        reason = c() if callable(c) else c
        if reason:
            return reason
    return None


# -------------------------------------------------------------- algebra

class Algebra(Workload):
    """Shared job builders and oracles of dense-algebra and sparse-algebra."""

    ops = DENSE_OPS
    samples = 8

    def check_mul(self, A, B, N, R, rng):
        if len(A.terms) == len(B.terms) == N:  # dense: every n = 1 * n is reached
            want = set(range(1, N + 1))
        else:
            want = {d * e for d in A.terms for e in B.terms if d * e <= N}
        return _first_failure(
            orc.check_support(R.terms, want, "mul"),
            lambda: orc.check_values(R.terms, orc.sample(rng, want, self.samples, (1,)),
                                     lambda n: orc.conv_coeff(A.terms, B.terms, n), "mul"))

    def check_exp(self, phi, N, R, rng):
        E = orc.ExpCoefficients(phi.terms)
        c = complex(np.exp(phi.terms.get(1, 0j)))
        want = orc.exp_support(phi.terms, N)

        def ref(n):
            v, s = E(n)
            return c * v, abs(c) * s
        return _first_failure(
            orc.check_support(R.terms, want, "exp_series"),
            lambda: orc.check_values(R.terms, orc.sample(rng, want, self.samples, (1,)),
                                     ref, "exp_series"),
            lambda: orc.check_deep_exp(phi.terms, R.terms, complex(12.0, 3.0)))

    def check_log(self, D, N, R, rng):
        want = orc.exp_support({n: c for n, c in D.terms.items() if n != 1}, N)
        E = orc.ExpCoefficients(R.terms)
        c = complex(np.exp(R.terms.get(1, 0j)))

        def exp_of_log(n):  # exp(L)_n recomputed from L must give D_n back
            v, s = E(n)
            return c * v, abs(c) * s + abs(D.terms.get(n, 0j))

        def compare():
            for n in orc.sample(rng, want, self.samples, (1,)):
                v, s = exp_of_log(n)
                if not orc.close(v, D.terms.get(n, 0j), s):
                    return "log_series: exp of result at %d is %r, expected %r" % (
                        n, v, D.terms.get(n, 0j))
            return None
        return _first_failure(
            orc.check_support(R.terms, want, "log_series"), compare,
            lambda: orc.check_deep_log(D.terms, R.terms, complex(12.0, 3.0)))

    def check_apply(self, sym, D, N, R, rng):
        want, pieces = set(), {}
        for k in D.terms:
            shift = k ** sym.c0
            if shift > N:
                continue
            if k == 1:
                want.add(shift)
                continue
            pieces[k] = (orc.ExpCoefficients(sym.phi.terms, -math.log(k)),
                         complex(np.exp(-math.log(k) * sym.phi.terms.get(1, 0j))), shift)
            want |= {shift * m for m in orc.exp_support(sym.phi.terms, N // shift)}

        def ref(n):
            total, scale = 0j, 0.0
            for k, a in D.terms.items():
                if k == 1:
                    if n == 1 ** sym.c0:
                        total, scale = total + a, scale + abs(a)
                    continue
                if k not in pieces:
                    continue
                E, c, shift = pieces[k]
                if n % shift == 0:
                    v, s = E(n // shift)
                    total += a * c * v
                    scale += abs(a * c) * s
            return total, scale
        return _first_failure(
            orc.check_support(R.terms, want, "apply"),
            lambda: orc.check_values(R.terms, orc.sample(rng, want, self.samples), ref, "apply"))

    def check_mul2(self, A, B, truncs, R, rng):
        M, N = truncs
        if len(A.terms) == len(B.terms) == M * N:
            want = {(m, n) for m in range(1, M + 1) for n in range(1, N + 1)}
        else:
            want = {(d * f, e * g) for d, e in A.terms for f, g in B.terms
                    if d * f <= M and e * g <= N}
        return _first_failure(
            orc.check_support(R.terms, want, "mul2"),
            lambda: orc.check_values(R.terms, orc.sample(rng, want, self.samples // 2, ((1, 1),)),
                                     lambda idx: orc.conv2_coeff(A.terms, B.terms, idx), "mul2"))

    def check_exp2(self, phi, truncs, R, rng):
        E = orc.ExpCoefficients(phi.terms, double=True)
        c = complex(np.exp(phi.terms.get((1, 1), 0j)))
        want = orc.exp2_support(phi.terms, truncs)

        def ref(idx):
            v, s = E(idx)
            return c * v, abs(c) * s
        return _first_failure(
            orc.check_support(R.terms, want, "exp2"),
            lambda: orc.check_values(R.terms, orc.sample(rng, want, self.samples // 2, ((1, 1),)),
                                     ref, "exp2"))

    def check_apply_double(self, sym, D, truncs, R, rng):
        """Slopes (1, 0, 0, 1): the (k, l) term shifts by (k, l) and carries
        exp(-ln k phi1) * exp(-ln l phi2) on the inner truncations."""
        M, N = truncs
        want, pieces = set(), {}
        for (k, l), a in D.terms.items():
            if k > M or l > N:
                continue
            inner = (M // k, N // l)
            factors = []
            for base, phi in ((k, sym.phi1), (l, sym.phi2)):
                if base == 1:
                    factors.append((None, 1 + 0j, {(1, 1)}))
                else:
                    factors.append((orc.ExpCoefficients(phi.terms, -math.log(base), double=True),
                                    complex(np.exp(-math.log(base) * phi.terms.get((1, 1), 0j))),
                                    orc.exp2_support(phi.terms, inner)))
            s1, s2 = factors[0][2], factors[1][2]
            if len(s1) == inner[0] * inner[1] or len(s2) == inner[0] * inner[1]:
                prod = {(m, n) for m in range(1, inner[0] + 1) for n in range(1, inner[1] + 1)}
            else:
                prod = {(x[0] * y[0], x[1] * y[1]) for x in s1 for y in s2
                        if x[0] * y[0] <= inner[0] and x[1] * y[1] <= inner[1]}
            want |= {(k * m, l * n) for m, n in prod}
            pieces[(k, l)] = (a, factors)

        def coeff(factor, idx):
            E, c, _ = factor
            if E is None:
                return (1 + 0j, 1.0) if idx == (1, 1) else (0j, 0.0)
            v, s = E(idx)
            return c * v, abs(c) * s

        def ref(idx):
            total, scale = 0j, 0.0
            for (k, l), (a, (f1, f2)) in pieces.items():
                if idx[0] % k or idx[1] % l:
                    continue
                m, n = idx[0] // k, idx[1] // l
                for d in orc.divisors(m):
                    for e in orc.divisors(n):
                        v1, s1 = coeff(f1, (d, e))
                        v2, s2 = coeff(f2, (m // d, n // e))
                        total += a * v1 * v2
                        scale += abs(a) * s1 * s2
            return total, scale
        return _first_failure(
            orc.check_support(R.terms, want, "apply_double"),
            lambda: orc.check_values(R.terms, orc.sample(rng, want, self.samples // 2), ref,
                                     "apply_double"))


class DenseAlgebra(Algebra):
    """Every index filled: the O(|A|*|B|) and repeated-convolution path."""

    def job_mul(self, i, u, rng):
        N = round(512 * 4 ** u)
        A, B = dense_series(rng, N), dense_series(rng, N)
        return Job("mul", N, lambda: dd.mul(A, B, N),
                   lambda R: self.check_mul(A, B, N, R, rng))

    def job_exp_series(self, i, u, rng):
        N = round(512 * 4 ** u)
        phi = dense_series(rng, N)
        return Job("exp_series", N, lambda: dd.exp_series(phi, N),
                   lambda R: self.check_exp(phi, N, R, rng))

    def job_log_series(self, i, u, rng):
        N = round(512 * 4 ** u)
        terms = dict(dense_series(rng, N).terms)
        terms[1] = 1.5 + 0.25j
        D = dd.make_series(terms.items(), N)
        return Job("log_series", N, lambda: dd.log_series(D, N),
                   lambda R: self.check_log(D, N, R, rng))

    def job_apply(self, i, u, rng):
        N = round(512 * 2 ** u)
        sym = dd.Symbol(1, dense_series(rng, N))
        ks = [1] + sorted(int(k) for k in rng.choice(np.arange(2, 33), 7, replace=False))
        D = dd.make_series(list(zip(ks, _coeffs(rng, 8))), N)
        return Job("apply", N, lambda: dd.apply(sym, D, N),
                   lambda R: self.check_apply(sym, D, N, R, rng))

    def job_mul2(self, i, u, rng):
        M = round(16 * 2 ** u)
        A, B = dense_double(rng, M), dense_double(rng, M)
        return Job("mul2", M * M, lambda: dd.mul2(A, B, (M, M)),
                   lambda R: self.check_mul2(A, B, (M, M), R, rng))

    def job_exp2(self, i, u, rng):
        M = round(16 * 2 ** u)
        phi = dense_double(rng, M)
        return Job("exp2", M * M, lambda: compose.exp2(phi, (M, M)),
                   lambda R: self.check_exp2(phi, (M, M), R, rng))

    def job_apply_double(self, i, u, rng):
        M = round(16 * 2 ** u)
        sym = dd.DoubleSymbol(1, 0, 0, 1, dense_double(rng, M), dense_double(rng, M))
        grid = [(k, l) for k in range(1, 5) for l in range(1, 5) if (k, l) != (1, 1)]
        picks = [grid[j] for j in rng.choice(len(grid), 7, replace=False)]
        D = dd.make_double_series(list(zip([(1, 1)] + picks, _coeffs(rng, 8))), (M, M))
        return Job("apply_double", M * M, lambda: dd.apply_double(sym, D, (M, M)),
                   lambda R: self.check_apply_double(sym, D, (M, M), R, rng))


class SparseAlgebra(Algebra):
    """At most 8 terms, indices uniform in [2, N] with N up to 2^17: cost
    must not grow with N.  Every result is also lifted and unlifted,
    dumped and loaded, printed and parsed."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.primes = orc.primes_upto(1 << 17)

    def _terms(self, i):
        return 1 + (i // len(self.ops)) % 7  # 1..7 non-constant terms, cycled

    def sparse(self, rng, i, N):
        k = min(self._terms(i), N - 1)
        idx = sorted(int(n) + 2 for n in rng.choice(N - 1, k, replace=False))
        return dd.make_series(list(zip([1] + idx, _coeffs(rng, k + 1))), N)

    def sparse_double(self, rng, i, M):
        k = self._terms(i)
        idx = set()
        while len(idx) < k:
            m, n = (int(x) for x in rng.integers(1, M + 1, 2))
            if (m, n) != (1, 1):
                idx.add((m, n))
        idx = [(1, 1)] + sorted(idx)
        return dd.make_double_series(list(zip(idx, _coeffs(rng, len(idx)))), (M, M))

    def _size(self, u):
        return round(2 ** (10 + 7 * u))

    def _round_trips(self, R):
        if isinstance(R, dd.DirichletSeries):
            P = dd.lift(R)
            U = dd.unlift(P, R.truncation)
            width = R.truncation
        else:
            P = dd.lift_double(R)
            U = dd.unlift_double(P, R.truncations)
            width = max(R.truncations)
        R2 = formats.loads_series(formats.dumps_series(R))
        R3 = dd.parse_expression(dd.print_expression(R), width)
        return R, P, U, R2, R3

    def _wrap(self, op, size, call, check):
        return Job(op, size, lambda: self._round_trips(call()),
                   lambda out: _first_failure(lambda: check(out[0]),
                                              lambda: self.check_round_trips(*out)))

    def _index(self, alpha):
        n, last = 1, 0
        for pos, e in alpha:
            if pos <= last or e < 1:
                return None
            n *= self.primes[pos - 1] ** e
            last = pos
        return n

    def check_round_trips(self, R, P, U, R2, R3):
        keys = list(R.terms)
        if isinstance(R, dd.DirichletSeries):
            lifted = {self._index(a) for a in P.terms}
            trunc_ok = U.truncation == R.truncation and R2.truncation == R.truncation
        else:
            lifted = {(self._index(a), self._index(b)) for a, b in P.terms}
            trunc_ok = U.truncations == R.truncations and R2.truncations == R.truncations
        if lifted != set(keys) or len(P.terms) != len(keys):
            return "lift: multi-indices do not map back to the support"
        if U.terms != R.terms or not trunc_ok:
            return "unlift(lift(x)) != x"
        if R2.terms != R.terms:
            return "loads_series(dumps_series(x)) != x"
        parsed = R3.terms
        if isinstance(R, dd.DoubleDirichletSeries) and isinstance(R3, dd.DirichletSeries):
            # parse_expression documents that an expression without ^-t atoms
            # comes back as a single series; compare it on the first axis
            parsed = {(m, 1): c for m, c in R3.terms.items()}
        if parsed != R.terms:
            return "parse_expression(print_expression(x)) != x"
        return None

    def job_mul(self, i, u, rng):
        N = self._size(u)
        A, B = self.sparse(rng, i, N), self.sparse(rng, i, N)
        return self._wrap("mul", N, lambda: dd.mul(A, B, N),
                          lambda R: self.check_mul(A, B, N, R, rng))

    def job_exp_series(self, i, u, rng):
        N = self._size(u)
        phi = self.sparse(rng, i, N)
        return self._wrap("exp_series", N, lambda: dd.exp_series(phi, N),
                          lambda R: self.check_exp(phi, N, R, rng))

    def job_log_series(self, i, u, rng):
        N = self._size(u)
        D = self.sparse(rng, i, N)
        return self._wrap("log_series", N, lambda: dd.log_series(D, N),
                          lambda R: self.check_log(D, N, R, rng))

    def job_apply(self, i, u, rng):
        N = self._size(u)
        sym = dd.Symbol(i // len(self.ops) % 2, self.sparse(rng, i, N))
        D = self.sparse(rng, i, N)
        return self._wrap("apply", N, lambda: dd.apply(sym, D, N),
                          lambda R: self.check_apply(sym, D, N, R, rng))

    def job_mul2(self, i, u, rng):
        M = self._size(u)
        A, B = self.sparse_double(rng, i, M), self.sparse_double(rng, i, M)
        return self._wrap("mul2", M * M, lambda: dd.mul2(A, B, (M, M)),
                          lambda R: self.check_mul2(A, B, (M, M), R, rng))

    def job_exp2(self, i, u, rng):
        M = self._size(u)
        phi = self.sparse_double(rng, i, M)
        return self._wrap("exp2", M * M, lambda: compose.exp2(phi, (M, M)),
                          lambda R: self.check_exp2(phi, (M, M), R, rng))

    def job_apply_double(self, i, u, rng):
        M = self._size(u)
        sym = dd.DoubleSymbol(1, 0, 0, 1, self.sparse_double(rng, i, M),
                              self.sparse_double(rng, i, M))
        D = self.sparse_double(rng, i, M)
        return self._wrap("apply_double", M * M, lambda: dd.apply_double(sym, D, (M, M)),
                          lambda R: self.check_apply_double(sym, D, (M, M), R, rng))


# -------------------------------------------------------------- torus

class TorusAnalysis(Workload):
    """8 to 64 terms on indices up to 128: the work is in bohr, superpose
    and analyze (sampling, local refinement, quadrature), not in the
    algebra."""

    ops = TORUS_OPS
    hp_samples = 4000

    def mc_seed(self, i):
        return self.seed * 100_003 + i

    def series(self, rng, u, lo=1):
        k = round(8 * 8 ** u)  # 8 to 64 terms
        idx = sorted(int(n) for n in rng.choice(np.arange(lo, 129), k, replace=False))
        return dd.make_series(list(zip(idx, _coeffs(rng, k))), 128)

    def job_hp2(self, i, u, rng):
        D = self.series(rng, u)
        exact = sum(abs(c) ** 2 for c in D.terms.values())
        return Job("hp2", len(D.terms),
                   lambda: dd.hp_norm_estimate(D, 2.0, self.hp_samples, self.mc_seed(i)),
                   lambda est: self.check_moment(est, exact, "hp p=2 (Parseval)"))

    def job_hp4(self, i, u, rng):
        D = self.series(rng, u)
        exact = sum(abs(c) ** 2 for c in orc.power_terms(D.terms, 2).values())
        return Job("hp4", len(D.terms),
                   lambda: dd.hp_norm_estimate(D, 4.0, self.hp_samples, self.mc_seed(i)),
                   lambda est: self.check_moment(est, exact, "hp p=4 (||D^2||_2^2)"))

    @staticmethod
    def check_moment(est, exact, what):
        if not orc.within_sigmas(est.moment, exact, est.moment_stderr):
            return "%s: moment %r vs exact %r (stderr %r)" % (what, est.moment, exact,
                                                              est.moment_stderr)
        return None

    def job_hinf(self, i, u, rng):
        D = self.series(rng, u)
        l2 = math.sqrt(sum(abs(c) ** 2 for c in D.terms.values()))
        l1 = sum(abs(c) for c in D.terms.values())

        def check(est):
            if not l2 <= est.value * (1 + 1e-9) or not est.value <= l1 * (1 + 1e-9):
                return "hinf: %r outside [||D||_2, l1] = [%r, %r]" % (est.value, l2, l1)
            if abs(est.upper - l1) > 1e-9 * l1:
                return "hinf: upper %r != l1 %r" % (est.upper, l1)
            return None
        return Job("hinf", len(D.terms),
                   lambda: dd.hinf_norm_estimate(D, 1000, self.mc_seed(i)), check)

    def job_young(self, i, u, rng):
        # the check samples P^2, whose terms grow as the square of P's: 8 to
        # 23 terms keep its cost in the range of the other jobs, so that the
        # top percentiles are not a few young jobs alone
        P = self.series(rng, u / 2)
        l2sq = sum(abs(c) ** 2 for c in P.terms.values())
        fourth = sum(abs(c) ** 2 for c in orc.power_terms(P.terms, 2).values())

        def check(rep):
            # k=2, q=1: lhs = E|P|^2 = ||P||_2^2; rhs = E|P|^4 = ||P^2||_2^2
            return _first_failure(
                None if rep.holds else "young: bound reported violated (slack %r)" % rep.slack,
                lambda: self.check_moment(rep.lhs, l2sq, "young lhs"),
                lambda: self.check_moment(rep.rhs, fourth, "young rhs"))
        return Job("young", len(P.terms),
                   lambda: dd.young_bound_verify(P, 2, 4.0, 1.0, 2000, self.mc_seed(i)), check)

    def job_superpose(self, i, u, rng):
        D = self.series(rng, u)
        poly = dd.ScalarPolynomial(tuple(_coeffs(rng, 3)))
        trunc = max(D.terms) ** 2  # nothing of poly(D) is truncated

        def check(R):
            for s in (complex(0.5, 0.0), complex(0.5, 7.3), complex(2.0, -3.1)):
                want = poly(orc.evaluate(D.terms, s))
                scale = sum(abs(c) for c in poly.coefficients) * (1 + D.l1_norm()) ** 2
                if abs(orc.evaluate(R.terms, s) - want) > orc.REL_TOL * scale:
                    return "superpose: value at %r differs from poly(D(s)) %r" % (s, want)
            return None
        return Job("superpose", len(D.terms), lambda: dd.superpose(poly, D, trunc), check)

    def job_line_sup(self, i, u, rng):
        D = self.series(rng, u)

        def check(est):
            floor = orc.line_grid_max(D.terms, 0.5, -50.0, 50.0, 512)
            ceil = orc.modulus_sum(D.terms, complex(0.5, 0.0))
            if not floor * (1 - 1e-9) <= est.value <= ceil * (1 + 1e-9):
                return "line_sup: %r outside [grid max %r, l1 bound %r]" % (est.value, floor, ceil)
            return None
        return Job("line_sup", len(D.terms), lambda: dd.line_sup_estimate(D, 0.5), check)

    def job_sup_monotonicity(self, i, u, rng):
        D = self.series(rng, u, lo=2)

        def check(rep):
            for est, sigma in ((rep.lower_sup, 0.5), (rep.upper_sup, 1.0)):
                floor = orc.line_grid_max(D.terms, sigma, -50.0, 50.0, 512)
                if est.value < floor * (1 - 1e-9):
                    return "sup_monotonicity: sup at %g is %r < grid max %r" % (
                        sigma, est.value, floor)
            if not rep.nonstrict_holds:
                return "sup_monotonicity: sup(0.5) < sup(1.0)"
            return None
        return Job("sup_monotonicity", len(D.terms),
                   lambda: dd.sup_monotonicity_check(D, 0.5, 1.0), check)

    def job_three_lines(self, i, u, rng):
        k = round(8 * 8 ** u)
        grid = [(m, n) for m in range(1, 17) for n in range(1, 17)]
        idx = [grid[j] for j in rng.choice(len(grid), k, replace=False)]
        D = dd.make_double_series(list(zip(idx, _coeffs(rng, k))), (16, 16))

        def check(rep):
            floor = orc.line_grid_max2(D.terms, (1.25, 1.25), -50.0, 50.0, 256)
            if rep.middle_sup < floor * (1 - 1e-9):
                return "three_lines: middle sup %r < grid max %r" % (rep.middle_sup, floor)
            if not rep.holds:
                return "three_lines: inequality reported violated (slack %r)" % rep.slack
            return None
        return Job("three_lines", k,
                   lambda: dd.three_lines_check(D, 0.5, 0.5, 2.0, 0.5, 0.5, samples=256), check)

    def job_coefficient_extract(self, i, u, rng):
        D = self.series(rng, u)
        j = int(rng.choice(sorted(D.terms)))

        def check(got):
            err = abs(got.value - D.terms[j])
            if err > got.error_bound + 1e-6:
                return "coefficient_extract: error %r at %d exceeds bound %r" % (
                    err, j, got.error_bound)
            return None
        return Job("coefficient_extract", len(D.terms),
                   lambda: dd.coefficient_extract(dd.series_evaluator(D), j, 0.5, 1e3,
                                                  panels=20_000, support=D.terms), check)


# ---------------------------------------------------------------- CLI

class CliCold(Workload):
    """One fresh ``python -m ddseries.cli`` process per job, on small inputs:
    every job pays interpreter start, the import and the lazy set-up."""

    ops = CLI_SUBCOMMANDS

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH="src")
        self.traced_runner = None  # the cli_traced.py path while jobs are traced
        self.max_rss_mb = 0.0

    def path(self, i, name):
        return os.path.join(self.workdir, "job%d-%s" % (i, name))

    def write(self, i, name, text):
        p = self.path(i, name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p

    # Inputs are returned as the CLI will read them back from text: the
    # library sums terms in dict order, so only the same order gives the
    # same last digits in process.

    def sparse(self, rng, k=8, top=64):
        idx = [1] + sorted(int(n) for n in rng.choice(np.arange(2, top + 1), k - 1, replace=False))
        return canonical(dd.make_series(list(zip(idx, _coeffs(rng, k))), 64))

    def symbol(self, rng, top=16):
        idx = sorted(int(n) for n in rng.choice(np.arange(2, top + 1), 5, replace=False))
        # Re phi >= 2 - sum |c_n| > 0 on the half-plane: a valid symbol
        phi = [(1, 2.0 + 0j)] + [(n, 0.15 * c) for n, c in zip(idx, _coeffs(rng, 5))]
        return formats.loads_symbol(formats.dumps_symbol(dd.Symbol(1, dd.make_series(phi, 64))))

    def command(self, i, args, stdin_text=None):
        """The timed call: one CLI process, stdin and stdout through files."""
        stdin_path = self.write(i, "stdin", stdin_text or "")
        out_path, err_path = self.path(i, "stdout"), self.path(i, "stderr")
        if self.traced_runner:
            argv = [sys.executable, "-X", "importtime", self.traced_runner,
                    self.path(i, "spans.json")] + args
        else:
            argv = [sys.executable, "-m", "ddseries.cli"] + args

        def run():
            with open(stdin_path, "rb") as fin, open(out_path, "wb") as fout, \
                    open(err_path, "wb") as ferr:
                proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
            with open(out_path, encoding="utf-8") as fh:
                out = fh.read()
            with open(err_path, encoding="utf-8") as fh:
                err = fh.read()
            return proc.returncode, out, err
        return run

    def _job(self, i, sub, args, expected, stdin_text=None):
        run = self.command(i, [sub] + args, stdin_text)

        def check(result):
            code, out, err = result
            if code != 0:
                tail = [ln for ln in err.splitlines() if not ln.startswith("import time:")]
                return "cli %s: exit %d: %s" % (sub, code, " | ".join(tail[-2:]))
            return expected(out)
        return Job(sub, 0, run, check)

    def job_eval(self, i, u, rng):
        D = self.sparse(rng)
        s = complex(1.0 + 2.0 * u, 10.0 * u)
        want = dd.evaluate(D, s)

        def expected(out):
            parts = out.split()
            got = complex(float(parts[1]), float(parts[2]))
            if got != want or abs(got - orc.evaluate(D.terms, s)) > 1e-12 * D.l1_norm():
                return "cli eval: %r, in-process %r" % (got, want)
            return None
        return self._job(i, "eval", ["--s", "%r+%ri" % (s.real, s.imag)], expected,
                         formats.dumps_series(D))

    def job_mul(self, i, u, rng):
        A, B = self.sparse(rng), self.sparse(rng)
        a = self.write(i, "a.txt", formats.dumps_series(A))
        b = self.write(i, "b.txt", formats.dumps_series(B))
        want = dd.mul(A, B, 64)
        return self._job(i, "mul", [a, b], self.same_series(want, "mul"))

    @staticmethod
    def same_series(want, what):
        def expected(out):
            got = formats.loads_series(out)
            if got.terms != want.terms:
                return "cli %s: output differs from the in-process result" % what
            return None
        return expected

    def job_lift(self, i, u, rng):
        D = self.sparse(rng)
        want = dd.lift(D)

        def expected(out):
            if formats.loads_polynomial(out).terms != want.terms:
                return "cli lift: output differs from the in-process result"
            return None
        return self._job(i, "lift", [], expected, formats.dumps_series(D))

    def job_unlift(self, i, u, rng):
        P = dd.lift(self.sparse(rng))
        return self._job(i, "unlift", [], self.same_series(dd.unlift(P, 64), "unlift"),
                         formats.dumps_polynomial(P))

    def job_compose(self, i, u, rng):
        sym, D = self.symbol(rng), self.sparse(rng)
        path = self.write(i, "sym.txt", formats.dumps_symbol(sym))
        return self._job(i, "compose", ["--symbol", path],
                         self.same_series(dd.apply(sym, D, 64), "compose"),
                         formats.dumps_series(D))

    def job_norm(self, i, u, rng):
        D = self.sparse(rng)
        want = dd.hp_norm_estimate(D, 2.0, 2000, i)
        exact = sum(abs(c) ** 2 for c in D.terms.values())

        def expected(out):
            import json
            got = json.loads(out)
            if got["value"] != want.value:
                return "cli norm: %r, in-process %r" % (got["value"], want.value)
            if not orc.within_sigmas(want.moment, exact, want.moment_stderr):
                return "cli norm: moment %r vs Parseval %r" % (want.moment, exact)
            return None
        return self._job(i, "norm", ["--p", "2", "--samples", "2000", "--seed", str(i)],
                         expected, formats.dumps_series(D))

    def job_check_symbol(self, i, u, rng):
        from ddseries.grids import halfplane_grid
        sym = self.symbol(rng)
        path = self.write(i, "sym.txt", formats.dumps_symbol(sym))
        want = compose.validate_symbol(sym, halfplane_grid(1e-3)).min_re["phi"]

        def expected(out):
            parts = out.split()
            if parts[:3] != ["check", "symbol-range-phi", "pass"] or float(parts[3]) != want:
                return "cli check-symbol: %r, in-process min %r" % (out.strip(), want)
            return None
        return self._job(i, "check-symbol", ["--symbol", path], expected)

    def job_recover_symbol(self, i, u, rng):
        sym = self.symbol(rng)
        D2, D3 = (canonical(compose.char_power(k, sym, 64)) for k in (2, 3))
        two = self.write(i, "two.txt", formats.dumps_series(D2))
        three = self.write(i, "three.txt", formats.dumps_series(D3))
        want = compose.recover_symbol(D2, D3, 64)

        def expected(out):
            got = formats.loads_symbol(out)
            if got.c0 != want.c0 or got.phi.terms != want.phi.terms:
                return "cli recover-symbol: output differs from the in-process result"
            drift = max(abs(got.phi.terms.get(n, 0j) - c) for n, c in sym.phi.terms.items())
            if got.c0 != sym.c0 or drift > 1e-9:
                return "cli recover-symbol: recovered symbol is off by %r" % drift
            return None
        return self._job(i, "recover-symbol", [two, three], expected)

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "dense-algebra":
        return DenseAlgebra(seed)
    if name == "sparse-algebra":
        return SparseAlgebra(seed)
    if name == "torus-analysis":
        return TorusAnalysis(seed)
    if name == "cli-cold":
        return CliCold(seed, workdir)
    raise ValueError("unknown workload %r" % name)
