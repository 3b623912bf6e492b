"""Truncated double Dirichlet series sum a_{m,n} m^{-s} n^{-t}.

Storage is sparse (dict keyed by index pairs); the convention is the one
with m paired to s and n paired to t throughout.  The row view exposes the
vector-valued perspective: D(s,t) = sum_m row_m(t) m^{-s}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .series import (DirichletSeries, _blocked, _point_sum, _pruned, _Series, _validated,
                     evaluate, make_series, scale)


@dataclass(frozen=True)
class DoubleDirichletSeries(_Series):
    """Finite double Dirichlet series with support in [1,M] x [1,N]."""

    terms: dict[tuple[int, int], complex]
    truncations: tuple[int, int]
    _TRUNCATION = "truncations"  # the field _of sets

    def __post_init__(self):
        if len(self.truncations) != 2:
            raise ValueError("a double series takes a pair of truncations")
        super().__post_init__()


def make_double_series(terms, truncations) -> DoubleDirichletSeries:
    """Build a double series from ((m, n), coefficient) pairs (see
    series._validated)."""
    truncations = tuple(truncations)
    if len(truncations) != 2:
        raise ValueError("a double series takes a pair of truncations")
    return DoubleDirichletSeries._of(_validated(terms, truncations), truncations)


def zero_double(truncations=(1, 1)) -> DoubleDirichletSeries:
    return make_double_series((), truncations)


def constant_double(c: complex, truncations=(1, 1)) -> DoubleDirichletSeries:
    return make_double_series([((1, 1), c)], truncations)


def _make(terms, truncations):
    """make_series for one truncation, make_double_series for a pair."""
    if len(truncations) == 1:
        return make_series(terms, truncations[0])
    return make_double_series(terms, truncations)


def _evaluate(D, *z):
    """evaluate at a point s, evaluate2 at a pair (s, t)."""
    return evaluate(D, *z) if len(z) == 1 else evaluate2(D, *z)


def add2(A: DoubleDirichletSeries, B: DoubleDirichletSeries) -> DoubleDirichletSeries:
    M = min(A.truncations[0], B.truncations[0])
    N = min(A.truncations[1], B.truncations[1])
    out = {k: v for k, v in A.terms.items() if k[0] <= M and k[1] <= N}
    for k, v in B.terms.items():
        if k[0] <= M and k[1] <= N:
            out[k] = out.get(k, 0j) + v
    return DoubleDirichletSeries._of(_pruned(out), (M, N))


scale2 = scale


def _rows(terms: dict) -> list:
    """Terms as [(m, [(n, a_{m,n}), ...]), ...], rows and entries sorted."""
    rows: dict[int, list] = {}
    for (m, n), v in sorted(terms.items()):
        rows.setdefault(m, []).append((n, v))
    return list(rows.items())


def _convolve2(A: dict, B: dict, truncations) -> dict:
    """Two-variable Dirichlet convolution of {(m, n): coefficient} maps,
    truncated componentwise.

    B is grouped by its first index into sorted rows; for each (d, e) of A
    the row loop stops at f > M // d and the entry loop at g > N // e, so
    only in-range pairs are visited: O(MN log M log N) for dense inputs
    instead of |A|*|B|.
    """
    M, N = truncations
    rows = _rows(B)
    out: dict[tuple[int, int], complex] = {}
    for (d, e), a in A.items():
        fmax, gmax = M // d, N // e
        for f, row in rows:
            if f > fmax:
                break
            m = d * f
            for g, b in row:
                if g > gmax:
                    break
                key = (m, e * g)
                out[key] = out.get(key, 0j) + a * b
    return out


def mul2(A: DoubleDirichletSeries, B: DoubleDirichletSeries, truncations) -> DoubleDirichletSeries:
    """Two-variable Dirichlet convolution (see _convolve2); dense input
    takes _blocks.convolve (see series._blocked)."""
    truncations = tuple(truncations)
    if _blocked(truncations, A, B):
        from . import _blocks
        return DoubleDirichletSeries._of(_blocks.convolve(A.terms, B.terms, truncations),
                                         truncations)
    return DoubleDirichletSeries._of(_pruned(_convolve2(A.terms, B.terms, truncations)),
                                     truncations)


def evaluate2(D: DoubleDirichletSeries, s: complex, t: complex) -> complex:
    """Pointwise value sum a_{m,n} m^{-s} n^{-t}; a ValueError if it overflows."""
    return _point_sum(
        (a * cmath.exp(-s * math.log(m) - t * math.log(n)) for (m, n), a in D.terms.items()),
        (s, t),
    )


def row_series(D: DoubleDirichletSeries, m: int) -> DirichletSeries:
    """Row subseries alpha_m(t) = sum_n a_{m,n} n^{-t}."""
    if not 1 <= m <= D.truncations[0]:
        raise ValueError("row index %d out of range 1..%d" % (m, D.truncations[0]))
    return DirichletSeries._of(
        {n: a for (mm, n), a in D.terms.items() if mm == m}, D.truncations[1]
    )


def embed_single(D: DirichletSeries, axis: str = "first") -> DoubleDirichletSeries:
    """Embed a single series on the first (column n=1) or second (row m=1) axis."""
    if axis == "first":
        return DoubleDirichletSeries._of(
            {(n, 1): a for n, a in D.terms.items()}, (D.truncation, 1)
        )
    if axis == "second":
        return DoubleDirichletSeries._of(
            {(1, n): a for n, a in D.terms.items()}, (1, D.truncation)
        )
    raise ValueError("axis must be 'first' or 'second'")


def rectangular_partial_sum(D: DoubleDirichletSeries, m0: int, n0: int) -> DoubleDirichletSeries:
    """Restriction of D to the index rectangle [1,m0] x [1,n0]."""
    M, N = D.truncations
    if not (1 <= m0 <= M and 1 <= n0 <= N):
        raise ValueError("rectangle (%d, %d) out of range" % (m0, n0))
    return DoubleDirichletSeries(
        {k: v for k, v in D.terms.items() if k[0] <= m0 and k[1] <= n0}, (m0, n0)
    )


def regular_check(D: DoubleDirichletSeries, s: complex, t: complex) -> dict:
    """Compare row-first, column-first and total summation orders at (s, t).

    All three agree exactly up to floating reordering for finite series; the
    report carries the three values and their maximal pairwise deviation.
    Each order is the evaluate of the series of its inner sums, taken in
    increasing outer index, each inner sum in the order of D's terms.
    """
    total = evaluate2(D, s, t)
    rows, cols = {}, {}
    for (m, n), a in D.terms.items():
        rows.setdefault(m, {})[n] = a
        cols.setdefault(n, {})[m] = a

    def nested(groups, inner, outer, truncations):
        sums = {k: evaluate(DirichletSeries._of(groups[k], truncations[1]), inner)
                for k in sorted(groups)}
        return evaluate(DirichletSeries._of(sums, truncations[0]), outer)

    by_rows = nested(rows, t, s, D.truncations)
    by_cols = nested(cols, s, t, D.truncations[::-1])
    spread = max(abs(total - by_rows), abs(total - by_cols), abs(by_rows - by_cols))
    return {
        "total": total,
        "row_first": by_rows,
        "column_first": by_cols,
        "max_deviation": spread,
    }
