"""Truncated single-variable Dirichlet series and their formal algebra.

A series is a finite map index -> complex coefficient together with a
truncation bound N; absent indices are zero.  All operations are pure and
return new values, so instances are safe to share.  Products silently drop
indices above the requested truncation; every result records its own
truncation.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from dataclasses import dataclass

# Coefficients produced by cancellation are pruned only below this magnitude,
# keeping support semantics deterministic (no epsilon pruning).
PRUNE_BELOW = 1e-300


def _check_finite(c: complex) -> complex:
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("non-finite coefficient: %r" % (c,))
    return c


def _check_index(n) -> int:
    """n as a Python int; bools and non-integer types are rejected."""
    if isinstance(n, bool):
        raise ValueError("index %r is not an integer" % (n,))
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError("index %r is not an integer" % (n,)) from None


def _pruned(terms: dict) -> dict:
    """terms less those below PRUNE_BELOW in modulus; an inf or NaN raises
    ValueError, looked for value by value only when the sum is not finite."""
    out = {k: v for k, v in terms.items() if not abs(v) < PRUNE_BELOW}
    if not cmath.isfinite(sum(out.values())):
        for v in out.values():
            _check_finite(v)
    return out


def _parts(key) -> tuple:
    """An index (or a truncation, or a point) as a tuple: (n,) for the n of
    a single series, a pair as it is."""
    return tuple(key) if isinstance(key, (tuple, list)) else (key,)


def _key(parts: tuple):
    """The inverse of _parts: n for (n,), a pair as it is."""
    return parts[0] if len(parts) == 1 else tuple(parts)


def _check_truncations(truncations: tuple) -> None:
    """A ValueError unless every truncation is a positive integer."""
    try:
        if min(map(_check_index, truncations)) >= 1:
            return
    except ValueError:
        pass
    raise ValueError("truncation must be a positive integer")


def _validated(terms, truncations: tuple) -> dict:
    """The {index: coefficient} map of (index, coefficient) pairs, an index
    being an int for one truncation and a pair for two.

    A truncation that is not a positive integer, duplicate indices,
    non-integer or bool entries, entries outside 1..truncation and
    non-finite coefficients are rejected.
    """
    _check_truncations(truncations)
    single = len(truncations) == 1
    out: dict = {}
    for key, c in terms:
        parts = tuple(map(_check_index, (key,) if single else key))
        key = _key(parts)
        if len(parts) != len(truncations):
            raise ValueError("index %r does not fit truncations %r" % (key, truncations))
        if min(parts) < 1:
            raise ValueError("index %r out of range (must be >= 1)" % (key,))
        if any(i > t for i, t in zip(parts, truncations)):
            raise ValueError("index %r exceeds truncation %r" % (key, _key(truncations)))
        if key in out:
            raise ValueError("duplicate index %r" % (key,))
        out[key] = complex(c)
    return _pruned(out)


class _Series:
    """The methods single and double series share; an index is n or m, n."""

    def coefficient(self, *index) -> complex:
        return self.terms.get(_key(index), 0j)

    def support(self) -> list:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.terms.values())

    def __post_init__(self):
        """The one door of construction: whatever _validated rejects raises
        ValueError here too."""
        _validated(self.terms.items(), self.truncations)

    @classmethod
    def _of(cls, terms: dict, truncation):
        """cls(terms, truncation) without the checks of __post_init__, for
        the kernels, whose terms are in range by construction."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["terms"], fields[cls._TRUNCATION] = terms, truncation
        return self


@dataclass(frozen=True)
class DirichletSeries(_Series):
    """Finite Dirichlet series sum a_n n^{-s} with support in 1..truncation."""

    terms: dict[int, complex]
    truncation: int
    _TRUNCATION = "truncation"  # the field _of sets

    @property
    def truncations(self) -> tuple[int]:
        """The truncation as a 1-tuple, as a double series has a pair."""
        return (self.truncation,)


def make_series(terms, truncation: int) -> DirichletSeries:
    """Build a series from (index, coefficient) pairs (see _validated)."""
    return DirichletSeries._of(_validated(terms, (truncation,)), truncation)


def zero_series(truncation: int = 1) -> DirichletSeries:
    return make_series((), truncation)


def constant_series(c: complex, truncation: int = 1) -> DirichletSeries:
    return make_series([(1, c)], truncation)


def add(A: DirichletSeries, B: DirichletSeries) -> DirichletSeries:
    """Termwise sum; the result is truncated to min of the two bounds."""
    trunc = min(A.truncation, B.truncation)
    out = {n: c for n, c in A.terms.items() if n <= trunc}
    for n, c in B.terms.items():
        if n <= trunc:
            out[n] = out.get(n, 0j) + c
    return DirichletSeries._of(_pruned(out), trunc)


def scale(A, c: complex):
    """Every coefficient times c, for a single or a double series."""
    c = _check_finite(c)
    return type(A)._of(_pruned({n: a * c for n, a in A.terms.items()}), _key(A.truncations))


# the fewest cells, in one variable and in two, at which dense operands pay
# numpy's fixed cost (see _blocked)
_BLOCK_CELLS = (112, 56)


def _blocked(truncations, *operands) -> bool:
    """Whether a kernel at truncations takes the numpy block path of
    _blocks: the grid 1..N, or [1, M] x [1, N], has at least _BLOCK_CELLS
    cells, and every operand has at least one term for every two cells and
    indices that fit an int64.

    Measured on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4) with operands
    that fill the grid, the block path overtakes the dict kernels at about
    72 cells for mul, 100 to 112 for exp_series and 128 for log_series; in
    two variables, where the dict kernels pay more per pair, at about 45
    cells for mul2 and 56 (7 x 8) for exp2.  Below that numpy's fixed cost
    of 0.05 to 0.15 ms per call dominates; at N = 2048 and 32 x 32 the
    block path is 3 to 9 times faster.  A sparse operand would make the
    block path pay for cells that hold nothing, where the dict kernels
    visit only the pairs of terms: so sparse input (a few terms at a large
    truncation, or bohr._even_moment's products at a truncation of
    max(D)^k) never takes it.
    """
    cells = math.prod(truncations)
    if cells < _BLOCK_CELLS[len(truncations) - 1]:
        return False
    for D in operands:  # a sparse operand returns at once
        if 2 * len(D.terms) < cells or max(D.truncations) >= 2**62:
            return False
    return True


def mul(A: DirichletSeries, B: DirichletSeries, truncation: int) -> DirichletSeries:
    """Dirichlet convolution c_n = sum_{d*e=n} a_d b_e, n <= truncation.

    B's terms are sorted once and the inner loop stops at the first
    e > truncation // d, so only pairs that land in range are visited:
    O(N log N) for dense inputs instead of |A|*|B|.  Dense input takes
    _blocks.convolve (see _blocked).
    """
    if _blocked((truncation,), A, B):
        from . import _blocks
        return DirichletSeries._of(_blocks.convolve(A.terms, B.terms, (truncation,)),
                                   truncation)
    bs = sorted(B.terms.items())
    out: dict[int, complex] = {}
    for d, a in A.terms.items():
        bound = truncation // d
        for e, b in bs:
            if e > bound:
                break
            n = d * e
            out[n] = out.get(n, 0j) + a * b
    return DirichletSeries._of(_pruned(out), truncation)


def _point_sum(terms, point) -> complex:
    """The sum of terms, the terms of the value at point, as a complex (0j
    for none): a ValueError naming the point if a term overflows or the sum
    is not finite."""
    try:
        total = sum(terms, 0j)
    except OverflowError:
        total = math.inf
    if not cmath.isfinite(total):
        raise ValueError("the value at %r overflows" % (point,))
    return total


def evaluate(D: DirichletSeries, s: complex) -> complex:
    """Pointwise value sum a_n n^{-s}, principal branch n^{-s} = exp(-s ln n);
    a ValueError if it overflows."""
    return _point_sum((a * cmath.exp(-s * math.log(n)) for n, a in D.terms.items()), s)


def _gap(A: dict, B: dict) -> float:
    """max |A_k - B_k| over the keys of either term map; 0.0 if both are empty."""
    return max((abs(A.get(k, 0j) - B.get(k, 0j)) for k in A.keys() | B.keys()), default=0.0)


def translate(D: DirichletSeries, sigma: float) -> DirichletSeries:
    """Horizontal translate: the series of s -> D(s + sigma), sigma >= 0."""
    if sigma < 0:
        raise ValueError("translate requires sigma >= 0")
    return DirichletSeries._of(
        _pruned({n: a * n ** (-sigma) for n, a in D.terms.items()}), D.truncation
    )


def _recurrence(acc: dict, gens: list, finish, truncation: int, coef: dict) -> dict:
    """Solve a triangular recurrence over the indices reachable from acc.

    Indices are taken in increasing order from a heap.  finish(ln n, t, c)
    turns t = acc_n / ln n, acc_n the sum gathered at n, and c = coef[n]
    (0 if absent) into (value_n, weight_n); weight_n * g_e is then pushed to
    n*e for every generator (e, g_e) of the sorted list gens with
    n*e <= truncation.  Every push goes to a larger index, so acc_n is
    complete when n is taken.  The cost is the number of pushes, at most
    |result| * |gens|, and indices that no product reaches are never visited.
    """
    heap = sorted(acc)
    out = {}
    while heap:
        n = heapq.heappop(heap)
        ln = math.log(n)
        value, weight = finish(ln, acc.pop(n) / ln, coef.get(n, 0j))
        out[n] = value
        bound = truncation // n
        for e, g in gens:
            if e > bound:
                break
            m = n * e
            if m in acc:
                acc[m] += weight * g
            else:
                acc[m] = weight * g
                heapq.heappush(heap, m)
    return out


def _exp_constant(c: complex) -> complex:
    """exp(c) for a constant term c; a ValueError naming c if it overflows."""
    try:
        return cmath.exp(c)
    except OverflowError:
        raise ValueError("exp of the constant term %r overflows" % (c,)) from None


def _exp_finish(ln, e, c):
    """The (value, weight) of exp's recurrence: e = s / ln, pushed as it is."""
    return e, e


def _exp_blocks(phi, truncations: tuple, factor: complex):
    """factor * exp(psi), psi = phi less its constant term, on the block path:
    exp_series and exp2 of dense input."""
    from . import _blocks
    return type(phi)._of(_blocks.recurrence(phi.terms, truncations, operator.mul, (1, 1),
                                            _exp_finish, factor), _key(truncations))


def exp_series(phi: DirichletSeries, truncation: int) -> DirichletSeries:
    """Formal exponential exp(a_1) * exp(psi), psi = phi - a_1.

    The derivation f'(n) = f(n) ln n satisfies (f*g)' = f'*g + f*g', so
    E = exp(psi) obeys E' = psi' * E:

        e_1 = 1,   e_n = (1/ln n) sum_{d | n, d > 1} ln d * psi_d * e_{n/d}.

    The support is the set of products of support elements of psi (and 1).
    Solved in one pass over that set (see _recurrence): O(|E| * |psi|) and
    O(N log N) for dense input, never a loop over 1..N.  Dense input takes
    _blocks.recurrence (see _blocked).
    """
    factor = _exp_constant(phi.terms.get(1, 0j))
    if _blocked((truncation,), phi):
        return _exp_blocks(phi, (truncation,), factor)
    gens = sorted((d, math.log(d) * c) for d, c in phi.terms.items() if 1 < d <= truncation)
    out = {1: 1 + 0j}
    # the pushes from e_1 = 1 seed the recurrence
    out.update(_recurrence(dict(gens), gens, _exp_finish, truncation, {}))
    return DirichletSeries._of(_pruned({n: factor * c for n, c in out.items()}), truncation)


def log_series(D: DirichletSeries, truncation: int) -> DirichletSeries:
    """Formal logarithm: the inverse of exp_series on indices <= truncation.

    Requires a nonzero constant term; the constant of the result is the
    principal log of it.  With u = D/a_1, the derivation recurrence of
    exp_series solved for L = log(u) reads

        L_n = u_n - (1/ln n) sum_{d | n, 1 < d < n} ln d * L_d * u_{n/d},

    one pass over the products of support elements of u: O(|L| * |u|).
    Dense input takes _blocks.recurrence (see _blocked).
    """
    a1 = D.terms.get(1, 0j)
    if a1 == 0:
        raise ValueError("log_series requires a nonzero constant term")
    u = {n: c / a1 for n, c in D.terms.items() if 1 < n <= truncation}

    def finish(ln, t, u_n):
        value = u_n - t
        return value, ln * value

    if _blocked((truncation,), D):
        from . import _blocks
        return DirichletSeries._of(_blocks.recurrence(
            u, (truncation,), lambda ln, c: c, (cmath.log(a1), 0), finish), truncation)
    out = {1: cmath.log(a1)}
    out.update(_recurrence(dict.fromkeys(u, 0j), sorted(u.items()), finish, truncation, u))
    return DirichletSeries._of(_pruned(out), truncation)
