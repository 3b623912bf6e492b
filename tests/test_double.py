import random

import numpy as np
import pytest

from ddseries.double import (
    add2,
    constant_double,
    embed_single,
    evaluate2,
    make_double_series,
    mul2,
    rectangular_partial_sum,
    regular_check,
    row_series,
    scale2,
    zero_double,
)
from ddseries.series import add, evaluate, make_series, mul


def random_double(rng, bound=12, n_terms=6):
    pairs = set()
    while len(pairs) < n_terms:
        pairs.add((rng.randint(1, bound), rng.randint(1, bound)))
    return make_double_series(
        [(p, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for p in sorted(pairs)],
        (bound, bound),
    )


def max_coeff_diff(A, B):
    keys = set(A.terms) | set(B.terms)
    return max((abs(A.terms.get(k, 0j) - B.terms.get(k, 0j)) for k in keys), default=0.0)


class TestMakeDoubleSeries:
    @pytest.mark.parametrize("pair", [(2.5, 1), (1, True), (True, 2)])
    def test_non_integer_index(self, pair):
        with pytest.raises(ValueError):
            make_double_series([(pair, 1 + 0j)], (4, 4))

    def test_numpy_integer_index(self):
        D = make_double_series([((np.int32(2), np.int64(3)), 1 + 0j)], (4, 4))
        assert D.terms == {(2, 3): 1 + 0j}


class TestAddScale:
    def test_zero_identity(self):
        A = random_double(random.Random(3))
        assert add2(A, zero_double(A.truncations)).terms == A.terms

    def test_scale_zero(self):
        A = random_double(random.Random(5))
        assert scale2(A, 0).is_zero()

    def test_cross_variable_sum(self):
        A = make_double_series([((2, 1), 1 + 0j)], (4, 4))
        B = make_double_series([((1, 3), 1 + 0j)], (4, 4))
        assert add2(A, B).terms == {(2, 1): 1 + 0j, (1, 3): 1 + 0j}


class TestMul2:
    def test_coprime_split(self):
        A = make_double_series([((1, 1), 1 + 0j), ((2, 1), 1 + 0j)], (6, 6))
        B = make_double_series([((1, 1), 1 + 0j), ((1, 3), 1 + 0j)], (6, 6))
        assert mul2(A, B, (6, 6)).terms == {
            (1, 1): 1 + 0j,
            (2, 1): 1 + 0j,
            (1, 3): 1 + 0j,
            (2, 3): 1 + 0j,
        }

    def test_one_identity(self):
        A = random_double(random.Random(7))
        assert mul2(A, constant_double(1, A.truncations), A.truncations).terms == A.terms

    def test_divisor_pair_count(self):
        # coefficient at (4,9) of the squared all-ones block is d(4)*d(9),
        # against a brute force over divisor pairs
        A = make_double_series(
            [((m, n), 1 + 0j) for m in range(1, 13) for n in range(1, 13)], (12, 12)
        )
        sq = mul2(A, A, (12, 12))
        brute = sum(
            1
            for d in range(1, 5)
            for e in range(1, 10)
            if 4 % d == 0 and 9 % e == 0
        )
        assert sq.coefficient(4, 9) == brute == 9

    def test_embedding_is_algebra_homomorphism(self):
        rng = random.Random(11)
        a = make_series([(n, complex(rng.uniform(-1, 1))) for n in (1, 2, 5, 7)], 16)
        b = make_series([(n, complex(rng.uniform(-1, 1))) for n in (1, 3, 4)], 16)
        direct = embed_single(mul(a, b, 16))
        lifted = mul2(embed_single(a), embed_single(b), (16, 1))
        assert max_coeff_diff(direct, lifted) == 0.0

    def test_row_of_product_at_prime(self):
        rng = random.Random(13)
        A = random_double(rng, bound=8)
        B = random_double(rng, bound=8)
        P = mul2(A, B, (8, 8))
        for p in (2, 3, 5, 7):
            want = add(
                mul(row_series(A, 1), row_series(B, p), 8),
                mul(row_series(A, p), row_series(B, 1), 8),
            )
            got = row_series(P, p)
            keys = set(got.terms) | set(want.terms)
            assert all(abs(got.terms.get(n, 0j) - want.terms.get(n, 0j)) < 1e-13 for n in keys)


class TestEvaluate2:
    def test_single_term(self):
        D = make_double_series([((2, 3), 1 + 0j)], (4, 4))
        assert abs(evaluate2(D, 1, 1) - 1 / 6) < 1e-15

    def test_at_origin_sums_coefficients(self):
        D = random_double(random.Random(17))
        assert abs(evaluate2(D, 0, 0) - sum(D.terms.values())) < 1e-12

    def test_against_naive_sum(self):
        D = random_double(random.Random(19))
        naive = sum(a * m**-2.0 * n**-3.0 for (m, n), a in D.terms.items())
        assert abs(evaluate2(D, 2, 3) - naive) < 1e-12

    def test_homomorphism_when_no_drop(self):
        rng = random.Random(23)
        A = random_double(rng, bound=6, n_terms=4)
        B = random_double(rng, bound=6, n_terms=4)
        P = mul2(A, B, (36, 36))
        s, t = complex(1.5, 0.3), complex(0.8, -1.1)
        assert abs(evaluate2(P, s, t) - evaluate2(A, s, t) * evaluate2(B, s, t)) < 1e-12


class TestRowSeries:
    def test_example(self):
        D = make_double_series([((2, 3), 1 + 0j), ((2, 1), 1 + 0j)], (4, 4))
        assert row_series(D, 2).terms == {1: 1 + 0j, 3: 1 + 0j}

    def test_zero(self):
        assert row_series(zero_double((4, 4)), 2).is_zero()

    def test_reconstruction(self):
        from ddseries.series import evaluate
        import cmath, math

        D = random_double(random.Random(29))
        s, t = complex(1, 0.5), complex(1, -0.2)
        total = sum(
            evaluate(row_series(D, m), t) * cmath.exp(-s * math.log(m))
            for m in {m for m, _ in D.terms}
        )
        assert abs(total - evaluate2(D, s, t)) < 1e-13

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            row_series(zero_double((4, 4)), 5)


class TestEmbedSingle:
    def test_first_axis(self):
        D = embed_single(make_series([(2, 1)], 4))
        assert D.terms == {(2, 1): 1 + 0j}

    def test_zero(self):
        assert embed_single(make_series([], 4)).is_zero()

    def test_t_independence(self):
        from ddseries.series import evaluate

        rng = random.Random(31)
        a = make_series([(n, complex(rng.uniform(-1, 1))) for n in (1, 2, 7)], 8)
        D = embed_single(a)
        s = complex(1.2, 0.4)
        for t in (0j, 1 + 1j, 2 - 3j, 0.5j, 10 + 0j):
            assert evaluate2(D, s, t) == evaluate(a, s)


class TestPartialSumsAndRegularity:
    def test_full_rectangle(self):
        D = random_double(random.Random(37))
        assert rectangular_partial_sum(D, *D.truncations).terms == D.terms

    def test_corner(self):
        D = make_double_series([((1, 1), 2 + 1j), ((2, 3), 1 + 0j)], (4, 4))
        assert rectangular_partial_sum(D, 1, 1).terms == {(1, 1): 2 + 1j}

    def test_summation_orders_agree(self):
        D = random_double(random.Random(41))
        rep = regular_check(D, 1, 1)
        assert rep["max_deviation"] < 1e-13


class TestPointOverflow:
    """evaluate2, and regular_check through it, refuse an overflowing value."""

    D = make_double_series([((1, 1), 1 + 0j), ((1, 2), 1 + 0j)], (4, 4))

    def test_evaluate2_raises(self):
        with pytest.raises(ValueError, match=r"^the value at \(1, -2000\) overflows$"):
            evaluate2(self.D, 1, -2000)

    def test_regular_check_raises(self):
        with pytest.raises(ValueError, match=r"overflows$"):
            regular_check(self.D, 1, -2000)


def test_summation_orders_are_the_nested_sums():
    """row_first and column_first are the sums over sorted rows (columns) of
    the row (column) values times m^{-s} (n^{-t}), to rounding."""
    D = random_double(random.Random(43))
    s, t = 0.3 + 2j, 0.7 - 1j
    rows = sorted({m for m, _ in D.terms})
    cols = sorted({n for _, n in D.terms})
    by_rows = sum(evaluate(row_series(D, m), t) * m ** -s for m in rows)
    by_cols = sum(evaluate(make_series([(m, a) for (m, nn), a in D.terms.items() if nn == n],
                                       D.truncations[0]), s) * n ** -t for n in cols)
    rep = regular_check(D, s, t)
    assert abs(rep["row_first"] - by_rows) <= 1e-15 * D.l1_norm()
    assert abs(rep["column_first"] - by_cols) <= 1e-15 * D.l1_norm()
    assert rep["total"] == evaluate2(D, s, t)
