"""The numpy block kernels against the dict kernels, and the rule that
chooses between them.

Each kernel runs both ways on the same seeded input, its dispatch forced:
the results agree to 1e-15 of the largest coefficient and have the same
support after pruning.  The cases cover rectangular grids, terms past the
truncation, a constant-only phi, sparse operands and integer coefficients
whose sums cancel to exact zeros.
"""

import hashlib
import random

import pytest

from ddseries import compose, double, series
from ddseries.compose import exp2
from ddseries.double import make_double_series, mul2
from ddseries.formats import dumps_series
from ddseries.series import exp_series, log_series, make_series, mul

CASES = 300
REL_TOL = 1e-15


def _route(monkeypatch, blocked: bool):
    """Send every kernel down one path, whatever its input."""
    for module in (series, double, compose):
        monkeypatch.setattr(module, "_blocked", lambda *args: blocked)


def _coeff(rng, case):
    if case % 5 == 4:  # small integers: sums are exact, and many cancel to 0
        return complex(rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 1)))
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _fill(case):
    """The share of the cells a case fills: dense, half, sparse or few."""
    return (1.0, 0.5, 0.1, 0.0)[case % 4]


def _single(rng, case, truncation, constant=None):
    """A series whose own truncation may pass the one it is used at, with
    terms up to it."""
    T = truncation * rng.choice((1, 1, 2))
    idx = [n for n in range(1, T + 1) if rng.random() < _fill(case)] or [1]
    idx += rng.sample(range(1, T + 1), min(T, rng.randint(0, 3)))
    terms = {n: _coeff(rng, case) for n in idx}
    if constant is not None:
        terms[1] = constant
    return make_series(terms.items(), T)


def _double(rng, case, truncations):
    T = tuple(t * rng.choice((1, 1, 2)) for t in truncations)
    cells = [(m, n) for m in range(1, T[0] + 1) for n in range(1, T[1] + 1)]
    idx = [c for c in cells if rng.random() < _fill(case)] or [(1, 1)]
    idx += rng.sample(cells, min(len(cells), rng.randint(0, 3)))
    return make_double_series([(c, _coeff(rng, case)) for c in dict.fromkeys(idx)], T)


def _shape(rng, arity):
    if arity == 1:
        return (rng.randint(1, 250),)
    return (rng.randint(1, 16), rng.randint(1, 16))  # mostly M != N


def _assert_same(dict_result, block_result, what):
    assert dict_result.truncations == block_result.truncations, what
    a, b = dict_result.terms, block_result.terms
    assert set(a) == set(b), what
    scale = max(map(abs, a.values()), default=0.0)
    assert all(abs(a[k] - b[k]) <= REL_TOL * scale for k in a), what


def _both(monkeypatch, run):
    _route(monkeypatch, False)
    by_dict = run()
    _route(monkeypatch, True)
    return by_dict, run()


def test_mul(monkeypatch):
    rng = random.Random(2601)
    for case in range(CASES):
        (N,) = _shape(rng, 1)
        A, B = _single(rng, case, N), _single(rng, case + 1, N)
        _assert_same(*_both(monkeypatch, lambda: mul(A, B, N)), case)


def test_mul2(monkeypatch):
    rng = random.Random(2602)
    for case in range(CASES):
        T = _shape(rng, 2)
        A, B = _double(rng, case, T), _double(rng, case + 1, T)
        _assert_same(*_both(monkeypatch, lambda: mul2(A, B, T)), case)


def test_exp_series(monkeypatch):
    rng = random.Random(2603)
    for case in range(CASES):
        (N,) = _shape(rng, 1)
        if case % 7 == 6:  # a constant-only phi
            phi = make_series([(1, 0.3 - 0.2j)], N)
        elif case % 7 == 5:  # 2^-s - 4^-s / 2: e_4 cancels to exactly 0
            phi = make_series([(1, 0.5), (2, 1), (4, -0.5), (3, rng.choice((1, -1)))], N + 4)
        else:
            phi = _single(rng, case, N)
        _assert_same(*_both(monkeypatch, lambda: exp_series(phi, N)), case)


def test_log_series(monkeypatch):
    rng = random.Random(2604)
    for case in range(CASES):
        (N,) = _shape(rng, 1)
        if case % 7 == 6:  # a constant-only D
            D = make_series([(1, 1.5 - 0.5j)], N)
        elif case % 7 == 5:  # 2 (1 + 2^-s + 4^-s / 2)(1 + 3^-s): L_4 cancels to 0
            D = make_series([(1, 2), (2, 2), (3, 2), (4, 1), (6, 2), (12, 1)], N + 12)
        else:
            D = _single(rng, case, N, constant=complex(rng.uniform(1, 2), rng.uniform(-1, 1)))
        _assert_same(*_both(monkeypatch, lambda: log_series(D, N)), case)


def test_exp2(monkeypatch):
    rng = random.Random(2605)
    for case in range(CASES):
        T = _shape(rng, 2)
        if case % 7 == 6:  # a constant-only phi
            phi = make_double_series([((1, 1), 0.3 - 0.2j)], T)
        elif case % 7 == 5:  # e_{4,1} and e_{1,4} cancel to exactly 0
            phi = make_double_series([((2, 1), 1), ((4, 1), -0.5), ((1, 2), -1),
                                      ((1, 4), -0.5)], (T[0] + 4, T[1] + 4))
        else:
            phi = _double(rng, case, T)
        _assert_same(*_both(monkeypatch, lambda: exp2(phi, T)), case)


def test_exact_zeros_are_pruned_on_both_paths(monkeypatch):
    A = make_series([(1, 1), (2, 1)], 128)
    B = make_series([(1, 1), (2, -1)], 128)
    by_dict, by_blocks = _both(monkeypatch, lambda: mul(A, B, 128))
    assert by_dict.terms == by_blocks.terms == {1: 1 + 0j, 4: -1 + 0j}
    phi = make_series([(2, 1), (4, -0.5)], 8)
    by_dict, by_blocks = _both(monkeypatch, lambda: exp_series(phi, 8))
    assert 4 not in by_dict.terms and set(by_dict.terms) == set(by_blocks.terms)


def test_a_non_finite_result_is_refused_on_both_paths(monkeypatch):
    A = make_series([(1, 1e308), (2, 1e308)], 128)
    for blocked in (False, True):
        _route(monkeypatch, blocked)
        with pytest.raises(ValueError, match=r"^non-finite coefficient: \(inf\+0j\)$"):
            mul(A, A, 128)


class TestDispatch:
    """series._blocked: at least 112 cells in one variable or 56 in two,
    and every operand at least one term for every two cells."""

    @pytest.mark.parametrize("truncations, terms, blocked", [
        ((112,), 56, True), ((111,), 111, False), ((112,), 55, False),
        ((7, 8), 28, True), ((55, 1), 55, False), ((7, 8), 27, False),
    ])
    def test_the_boundary(self, truncations, terms, blocked):
        if len(truncations) == 1:
            D = make_series([(n, 1) for n in range(1, terms + 1)], truncations[0])
        else:
            M, N = truncations
            cells = [(m, n) for m in range(1, M + 1) for n in range(1, N + 1)]
            D = make_double_series([(c, 1) for c in cells[:terms]], truncations)
        assert series._blocked(truncations, D) is blocked
        assert series._blocked(truncations, D, D) is blocked

    def test_an_index_past_int64_stays_on_the_dicts(self):
        D = make_series([(n, 1) for n in range(1, 129)] + [(2**63, 1)], 2**63)
        assert not series._blocked((128,), D)
        assert mul(D, D, 128).terms == {n: complex(len(_divisors(n))) for n in
                                        range(1, 129)}

    def test_sparse_operands_never_block(self):
        """The sparse-algebra shape (8 terms at most) and the untruncated
        products of bohr._even_moment (a truncation of max(D)^k)."""
        rng = random.Random(2606)
        for N in (2, 16, 17, 64, 2**10, 2**17):
            D = make_series({1: 1, **{rng.randint(2, N): 1 for _ in range(7)}}.items(), N)
            assert not series._blocked((N,), D)
            assert not series._blocked((N, N), make_double_series([((1, 1), 1)], (N, N)))
        D = make_series([(n, 1) for n in range(1, 65)], 64)  # dense, 64 terms
        for k in (2, 3, 4):
            assert not series._blocked((64**k,), D, D)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_sparse_exp2_keeps_its_bits():
    """The dict exp2's heap: the dumps of 200 seeded sparse results, as the
    (m n, m, n) tuple heap produced them."""
    rng = random.Random(2626)
    h = hashlib.sha256()
    for _ in range(200):
        M, N = rng.randint(2, 64), rng.randint(2, 64)
        k = rng.randint(1, 8)
        idx = {(rng.randint(1, M), rng.randint(1, N)) for _ in range(k)}
        terms = [(i, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for i in sorted(idx)]
        h.update(dumps_series(exp2(make_double_series(terms, (M, N)), (M, N))).encode())
    assert h.hexdigest() == "9bb7e7065224e19dc6ec38e4115d1b2d36e965598dce95d7128ab5cad0d149e3"
