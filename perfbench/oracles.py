"""Checks of job outputs that share no code with ddseries.

Coefficients are recomputed from their definitions: Dirichlet convolution
by explicit divisor sums, and the formal exponential by the sum over all
factorizations of an index into powers of distinct support elements,
exp(psi)_n = sum prod psi_b^r / r!.  Supports are recomputed as sets of
reachable indices.  None of this uses the log-derivation recurrence or
log_series o exp_series, so these checks stay independent of a kernel
built on them.  Every check returns None when it passes and a one-line
reason when it fails.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

REL_TOL = 1e-9


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def close(got: complex, want: complex, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * scale + 1e-290


# ---------------------------------------------------------------- supports

def closure(gens, bound: int) -> set:
    """Products of one or more elements of gens (with repetition) <= bound."""
    gens = sorted(g for g in gens if 1 < g <= bound)
    if len(gens) == bound - 1:  # every index 2..bound is a generator
        return set(gens)
    out = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y > bound:
                    break
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


def closure2(gens, bounds) -> set:
    """Pair products of one or more elements of gens inside the bounds."""
    M, N = bounds
    gens = sorted(g for g in gens if g != (1, 1) and g[0] <= M and g[1] <= N)
    if len(gens) == M * N - 1:
        return set(gens)
    out = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = (x[0] * g[0], x[1] * g[1])
                if y[0] <= M and y[1] <= N and y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


def exp_support(phi_terms: dict, bound: int) -> set:
    return {1} | closure(phi_terms, bound)


def exp2_support(phi_terms: dict, bounds) -> set:
    return {(1, 1)} | closure2(phi_terms, bounds)


# ------------------------------------------------------------ coefficients

def conv_coeff(a: dict, b: dict, n: int) -> tuple[complex, float]:
    """(sum_{d|n} a_d b_{n/d}, sum of the moduli of its terms)."""
    total, scale = 0j, 0.0
    for d in divisors(n):
        x, y = a.get(d), b.get(n // d)
        if x is not None and y is not None:
            total += x * y
            scale += abs(x * y)
    return total, scale


def conv2_coeff(a: dict, b: dict, idx) -> tuple[complex, float]:
    m, n = idx
    total, scale = 0j, 0.0
    for d in divisors(m):
        for e in divisors(n):
            x, y = a.get((d, e)), b.get((m // d, n // e))
            if x is not None and y is not None:
                total += x * y
                scale += abs(x * y)
    return total, scale


class ExpCoefficients:
    """Coefficients of exp(c * psi) for the constant-free psi, by the
    factorization sum; memoized per (index, smallest allowed base)."""

    def __init__(self, psi: dict, c: complex = 1.0, double: bool = False):
        one = (1, 1) if double else 1
        self.psi = {k: c * v for k, v in psi.items() if k != one}
        self.double = double
        self.memo: dict = {}

    def _bases(self, idx):
        if self.double:
            return [(d, e) for d in divisors(idx[0]) for e in divisors(idx[1])
                    if (d, e) != (1, 1) and (d, e) in self.psi]
        return [d for d in divisors(idx) if d > 1 and d in self.psi]

    def _sum(self, idx, lo) -> tuple[complex, float]:
        key = (idx, lo)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        total, scale = 0j, 0.0
        for b in self._bases(idx):
            if lo is not None and b <= lo:
                continue
            v = self.psi[b]
            rest, power, fact, r = idx, 1 + 0j, 1.0, 0
            while True:
                rest = (rest[0] // b[0], rest[1] // b[1]) if self.double else rest // b
                r += 1
                power *= v
                fact *= r
                if rest in ((1, 1), 1):
                    total += power / fact
                    scale += abs(power) / fact
                else:
                    sub, sub_scale = self._sum(rest, b)
                    total += power / fact * sub
                    scale += abs(power) / fact * sub_scale
                if self.double:
                    if rest[0] % b[0] or rest[1] % b[1]:
                        break
                elif rest % b:
                    break
        self.memo[key] = (total, scale)
        return total, scale

    def __call__(self, idx) -> tuple[complex, float]:
        if idx in ((1, 1), 1):
            return 1 + 0j, 1.0
        return self._sum(idx, None)


# ------------------------------------------------------------- evaluation

def evaluate(terms: dict, s: complex) -> complex:
    ns = np.array(list(terms), dtype=float)
    cs = np.array(list(terms.values()), dtype=complex)
    return complex(np.sum(cs * np.exp(-s * np.log(ns))))


def modulus_sum(terms: dict, s: complex) -> float:
    return sum(abs(c) * (n ** -s.real) for n, c in terms.items())


# ------------------------------------------------------------------ checks

def check_support(got: dict, want: set, what: str):
    if set(got) != want:
        missing, extra = len(want - set(got)), len(set(got) - want)
        return "%s: support differs (%d missing, %d unexpected)" % (what, missing, extra)
    return None


def check_values(got: dict, indices, reference, what: str):
    """Compare got at each index against reference(index) -> (value, scale)."""
    for idx in indices:
        want, scale = reference(idx)
        if not close(got.get(idx, 0j), want, scale):
            return "%s: coefficient %r is %r, expected %r" % (what, idx, got.get(idx, 0j), want)
    return None


def sample(rng, support, k: int, always=()) -> list:
    """Up to k indices of the support, always including `always` and the
    largest one, chosen with the seeded generator."""
    keys = sorted(support)
    if not keys:
        return list(always)
    picked = set(always) | {keys[-1]}
    if len(keys) > k:
        picked |= {keys[i] for i in rng.choice(len(keys), size=k, replace=False)}
    else:
        picked |= set(keys)
    return sorted(picked)


def check_deep_exp(phi: dict, result: dict, s: complex):
    """exp(phi(s)) against the result at a point deep in the half-plane,
    where the truncation tail is far below the tolerance."""
    want = cmath.exp(evaluate(phi, s))
    got = evaluate(result, s)
    if abs(got - want) > REL_TOL * (abs(want) + modulus_sum(result, s)):
        return "exp at %r: %r, expected %r" % (s, got, want)
    return None


def check_deep_log(D: dict, result: dict, s: complex):
    want = cmath.log(evaluate(D, s))
    got = evaluate(result, s)
    if abs(got - want) > REL_TOL * (abs(want) + modulus_sum(result, s)):
        return "log at %r: %r, expected %r" % (s, got, want)
    return None


def line_grid_max(terms: dict, sigma: float, lo: float, hi: float, samples: int) -> float:
    """max of |D(sigma + i tau)| over the same height grid the estimator
    scans first; every sampled sup must reach it."""
    taus = np.linspace(lo, hi, samples)
    ns = np.array(list(terms), dtype=float)
    cs = np.array(list(terms.values()), dtype=complex) * ns ** -sigma
    return float(np.max(np.abs(np.exp(-1j * np.outer(taus, np.log(ns))) @ cs)))


def line_grid_max2(terms: dict, sig, lo: float, hi: float, samples: int) -> float:
    side = max(math.isqrt(samples), 2)
    taus = np.linspace(lo, hi, side)
    keys = np.array(list(terms), dtype=float)
    cs = np.array(list(terms.values()), dtype=complex)
    cs = cs * keys[:, 0] ** -sig[0] * keys[:, 1] ** -sig[1]
    ph1 = np.exp(-1j * np.outer(taus, np.log(keys[:, 0])))
    ph2 = np.exp(-1j * np.outer(taus, np.log(keys[:, 1])))
    return float(np.max(np.abs((ph1 * cs) @ ph2.T)))


def power_terms(terms: dict, k: int) -> dict:
    """Untruncated k-th power of a finite series by pair products."""
    out = {1: 1 + 0j}
    for _ in range(k):
        nxt: dict = {}
        for d, a in out.items():
            for e, b in terms.items():
                nxt[d * e] = nxt.get(d * e, 0j) + a * b
        out = nxt
    return out


def within_sigmas(got: float, want: float, stderr: float, sigmas: float = 5.0) -> bool:
    return abs(got - want) <= sigmas * stderr + 1e-12 * abs(want)
