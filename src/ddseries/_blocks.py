"""Dense algebra kernels over flat cell indices, in numpy.

A double series of truncations (M, N) fills the cells (m, n) of the M x N
grid, cell (m, n) having the flat index (m - 1) * N + n - 1 and the weight
m * n; a single series of truncation N is the grid (1, N), its cell n having
the flat index n - 1 and the weight n.  So one body serves both arities.

Both kernels form, with np.repeat, every pair of two grid cells whose
product lies in the grid, and sum the pairs into their products with
np.bincount: O(MN log M log N) pairs.  The series kernels call them only on
input that fills the grid (see series._blocked), and get the dict kernels'
results: the same terms to about 1e-16 of the largest coefficient, pruned
and checked as series._pruned prunes and checks them, in one dict built
once.
"""

from __future__ import annotations

import itertools

import numpy as np

from .series import PRUNE_BELOW


def _grid(truncations) -> tuple:
    """(M, N) of a truncation pair, (1, N) of a single truncation."""
    return (1,) * (2 - len(truncations)) + tuple(truncations)


def _cells(terms: dict, M: int, N: int, single: bool):
    """The flat cells and coefficients of the terms within the M x N grid,
    and the coefficients over every cell of the grid; single for the int
    indices of a single series."""
    k = len(terms)
    if single:
        m, n = 1, np.fromiter(terms, np.int64, k)
    else:
        m, n = np.fromiter(itertools.chain.from_iterable(terms), np.int64, 2 * k).reshape(k, 2).T
    inside = (m <= M) & (n <= N)
    cells = ((m - 1) * N + n - 1)[inside]
    coef = np.fromiter(terms.values(), complex, k)[inside]
    grid = np.zeros(M * N, complex)
    grid[cells] = coef
    return cells, coef, grid


def _pairs(cells, M: int, N: int):
    """(partner, product, count) of the pairs of one of cells and a grid
    cell, its partner, whose product is in the grid: partner and product as
    flat cells, grouped by cell in the order of cells, each group's partners
    in flat order, and count[i] the size of the group of cells[i]."""
    cm, cn = np.divmod(cells, N)
    cols = N // (cn + 1)
    count = M // (cm + 1) * cols
    partner = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    # cell (r + 1, c + 1) times (cm + 1, cn + 1) is cells + r (cm + 1) N + c (cn + 1)
    if M == 1:
        product = np.repeat(cells, count) + partner * np.repeat(cn + 1, count)
    else:
        r, c = np.divmod(partner, np.repeat(cols, count))
        partner = r * N + c
        product = (np.repeat(cells, count) + r * np.repeat((cm + 1) * N, count)
                   + c * np.repeat(cn + 1, count))
    return partner, product, count


def _bincount(at, values, n: int):
    """The complex sums of values into bins 0..n-1 of at, each summed in
    the order of at."""
    out = np.empty(n, complex)
    out.real = np.bincount(at, values.real, n)
    out.imag = np.bincount(at, values.imag, n)
    return out


def _result(values, cells, N: int, single: bool) -> dict:
    """The {index: coefficient} map of values at cells, in the order of cells,
    less those below PRUNE_BELOW in modulus; a ValueError names the first
    value that is not finite."""
    kept = ~(np.abs(values) < PRUNE_BELOW)
    values, cells = values[kept], cells[kept]
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError("non-finite coefficient: %r" % (complex(values[~finite][0]),))
    if single:
        keys = (cells + 1).tolist()
    else:
        m, n = np.divmod(cells, N)
        keys = zip((m + 1).tolist(), (n + 1).tolist())
    return dict(zip(keys, values.tolist()))


def convolve(A: dict, B: dict, truncations) -> dict:
    """The Dirichlet convolution of two {index: coefficient} maps, truncated
    to truncations (one bound or a pair): one bincount over the pairs of a
    term of A and a grid cell, weighted by B's coefficient there.  Each
    product sums its pairs in the order of A's terms, as series.mul does."""
    M, N = _grid(truncations)
    single = len(truncations) == 1
    with np.errstate(all="ignore"):
        cells, a, _ = _cells(A, M, N, single)
        b = _cells(B, M, N, single)[2]
        partner, product, count = _pairs(cells, M, N)
        out = _bincount(product, np.repeat(a, count) * b[partner], M * N)
    return _result(out, np.arange(M * N), N, single)


def recurrence(terms: dict, truncations, generator, start, finish, scale=1) -> dict:
    """Solve a triangular recurrence over the grid of truncations in
    doubling blocks of cell weight, and return scale times its values.

    The contract of series._recurrence, with arrays: a term of coefficient c
    at a cell of weight w > 1 within the grid is a generator of value
    generator(ln w, c); cell (1, 1) holds start = (value, weight); every
    other cell gathers the sum s of weight_x * g over the pairs of a cell x
    and a generator g whose product it is, and finish(ln w, s / ln w, c)
    gives its (value, weight), c being the coefficient of terms there (0 if
    none).  A generator has weight 2 at least, so the cells of weight in
    (K, 2K] gather only from cells of weight <= K: each block of cells is
    one bincount over its pairs, and the blocks number about log2(MN).

    The cells are taken in the order of increasing weight, then flat cell,
    as the dict kernels take them, and each sum adds its pairs in that
    order of x: the order of the dict kernels' pushes.  A complex divided by
    a real divides each part, as in Python.  So the values, which come in
    that order too, are the dict kernels' up to the rounding of numpy's
    complex products and logarithms.
    """
    M, N = _grid(truncations)
    single = len(truncations) == 1
    weight = np.outer(np.arange(1, M + 1), np.arange(1, N + 1)).ravel()
    block = np.frexp(weight - 1)[1].astype(np.uint8)  # weight in (2^(b-1), 2^b]
    order = np.argsort(weight, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(M * N)
    ln = np.log(weight)
    edges = np.cumsum(np.bincount(block)).tolist()
    with np.errstate(all="ignore"):
        cells, coef, grid = _cells(terms, M, N, single)
        kept = cells > 0
        cells, coef = cells[kept], coef[kept]
        gens = np.zeros(M * N, complex)
        gens[cells] = generator(ln[cells], coef)
        is_gen = np.zeros(M * N, bool)
        is_gen[cells] = True
        partner, product, count = _pairs(order, M, N)
        src = np.repeat(order, count)
        kept = is_gen[partner]
        src, partner, product = src[kept], partner[kept], product[kept]
        product_block = block[product]
        by = np.argsort(product_block, kind="stable")  # a radix sort on uint8
        src, g, at = src[by], gens[partner[by]], rank[product[by]]
        spans = np.cumsum(np.bincount(product_block, minlength=len(edges))).tolist()
        value = np.zeros(M * N, complex)
        push = np.zeros(M * N, complex)
        value[0], push[0] = start
        for lo, hi, a, b in zip(edges, edges[1:], spans, spans[1:]):
            s = _bincount(at[a:b] - lo, push[src[a:b]] * g[a:b], hi - lo)
            cells = order[lo:hi]
            s.real /= ln[cells]
            s.imag /= ln[cells]
            value[cells], push[cells] = finish(ln[cells], s, grid[cells])
        value = scale * value[order]
    return _result(value, order, N, single)
