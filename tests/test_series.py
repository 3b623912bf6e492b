import cmath
import math
import random

import numpy as np
import pytest

from ddseries.double import DoubleDirichletSeries
from ddseries.series import (
    DirichletSeries,
    _pruned,
    add,
    constant_series,
    evaluate,
    exp_series,
    log_series,
    make_series,
    mul,
    scale,
    translate,
    zero_series,
)


def random_series(rng, max_index=32, n_terms=5, radius=1.0):
    idx = rng.sample(range(1, max_index + 1), n_terms)
    return make_series(
        [(n, complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))) for n in idx],
        max_index,
    )


def max_coeff_diff(A, B):
    keys = set(A.terms) | set(B.terms)
    return max((abs(A.terms.get(n, 0j) - B.terms.get(n, 0j)) for n in keys), default=0.0)


class TestMakeSeries:
    def test_constant(self):
        D = make_series([(1, 1 + 0j)], 10)
        assert D.terms == {1: 1 + 0j}
        assert D.truncation == 10

    def test_two_terms(self):
        D = make_series([(2, 1 + 0j), (6, -0.5 + 0j)], 10)
        assert D.coefficient(2) == 1
        assert D.coefficient(6) == -0.5
        assert D.coefficient(3) == 0

    def test_index_exceeds_truncation(self):
        with pytest.raises(ValueError):
            make_series([(12, 1 + 0j)], 10)

    def test_duplicate_index(self):
        with pytest.raises(ValueError):
            make_series([(2, 1 + 0j), (2, 2 + 0j)], 10)

    @pytest.mark.parametrize("index", [2.5, 2.0, True, "2"])
    def test_non_integer_index(self, index):
        with pytest.raises(ValueError):
            make_series([(index, 1 + 0j)], 10)

    def test_numpy_integer_index(self):
        D = make_series([(np.int64(3), 1 + 0j)], 10)
        assert D.terms == {3: 1 + 0j} and type(next(iter(D.terms))) is int

    def test_non_finite_coefficient(self):
        with pytest.raises(ValueError):
            make_series([(2, complex(float("nan"), 0))], 10)
        with pytest.raises(ValueError):
            make_series([(2, complex(float("inf"), 0))], 10)


class TestOneDoor:
    """Every series is checked where it is built; the kernels build theirs
    through the trusted DirichletSeries._of."""

    def test_the_reproducer(self):
        # accepted once, and mul of it with itself divided by zero
        with pytest.raises(ValueError, match="^index 128 exceeds truncation 64$"):
            DirichletSeries({128: 1, 0: 2}, 64)

    @pytest.mark.parametrize("terms, truncation, message", [
        ({0: 1}, 8, "index 0 out of range"),
        ({-3: 1}, 8, "index -3 out of range"),
        ({9: 1}, 8, "index 9 exceeds truncation 8"),
        ({2.0: 1}, 8, "index 2.0 is not an integer"),
        ({True: 1}, 8, "index True is not an integer"),
        ({(1, 2): 1}, 8, r"index \(1, 2\) is not an integer"),
        ({}, 0, "truncation must be a positive integer"),
        ({}, 2.5, "truncation must be a positive integer"),
    ])
    def test_single(self, terms, truncation, message):
        with pytest.raises(ValueError, match="^" + message):
            DirichletSeries(terms, truncation)

    @pytest.mark.parametrize("terms, truncations, message", [
        ({(0, 1): 1}, (4, 4), r"index \(0, 1\) out of range"),
        ({(1, 5): 1}, (4, 4), r"index \(1, 5\) exceeds truncation \(4, 4\)"),
        ({(1, 2, 3): 1}, (4, 4), r"index \(1, 2, 3\) does not fit"),
        ({}, (4, 0), "truncation must be a positive integer"),
        ({}, (4,), "a double series takes a pair of truncations"),
    ])
    def test_double(self, terms, truncations, message):
        with pytest.raises(ValueError, match="^" + message):
            DoubleDirichletSeries(terms, truncations)

    def test_the_trusted_path_builds_equal_series(self):
        assert DirichletSeries._of({2: 1j}, 4) == DirichletSeries({2: 1j}, 4)
        assert (DoubleDirichletSeries._of({(1, 2): 1j}, (4, 4))
                == DoubleDirichletSeries({(1, 2): 1j}, (4, 4)))
        A = make_series([(1, 1), (2, 1)], 128)
        assert mul(A, A, 128) == DirichletSeries({1: 1 + 0j, 2: 2 + 0j, 4: 1 + 0j}, 128)


class TestAdd:
    def test_sum(self):
        A = make_series([(1, 1), (2, 1)], 10)
        B = make_series([(2, 1)], 10)
        assert add(A, B).terms == {1: 1 + 0j, 2: 2 + 0j}

    def test_zero_identity(self):
        A = make_series([(3, 2 + 1j)], 10)
        assert add(A, zero_series(10)).terms == A.terms

    def test_cancellation_prunes(self):
        A = make_series([(2, 1)], 10)
        B = make_series([(2, -1)], 10)
        assert add(A, B).is_zero()

    def test_truncation_is_min(self):
        A = make_series([(8, 1)], 16)
        B = make_series([(2, 1)], 4)
        assert add(A, B).truncation == 4
        assert 8 not in add(A, B).terms


class TestMul:
    def test_coprime_split(self):
        A = make_series([(1, 1), (2, 1)], 10)
        B = make_series([(1, 1), (3, 1)], 10)
        assert mul(A, B, 10).terms == {1: 1 + 0j, 2: 1 + 0j, 3: 1 + 0j, 6: 1 + 0j}

    def test_divisor_count(self):
        # coefficient at 4 of (sum n^-s)^2 is d(4), checked against a brute
        # force over divisor pairs
        A = make_series([(n, 1) for n in range(1, 9)], 8)
        sq = mul(A, A, 8)
        brute = sum(1 for d in range(1, 5) if 4 % d == 0)
        assert sq.coefficient(4) == brute == 3

    def test_one_identity(self):
        rng = random.Random(7)
        A = random_series(rng)
        assert mul(A, constant_series(1, 32), 32).terms == A.terms

    def test_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(10):
            A, B, C = (random_series(rng, 256, 6) for _ in range(3))
            assert max_coeff_diff(mul(A, B, 256), mul(B, A, 256)) <= 1e-13
            assert (
                max_coeff_diff(mul(mul(A, B, 256), C, 256), mul(A, mul(B, C, 256), 256))
                <= 1e-13
            )

    def test_evaluate_homomorphism_exact_when_no_drop(self):
        rng = random.Random(13)
        A = random_series(rng, 8, 4)
        B = random_series(rng, 8, 4)
        s = complex(1.3, -2.0)
        prod = mul(A, B, 64)
        assert abs(evaluate(prod, s) - evaluate(A, s) * evaluate(B, s)) < 1e-13

    def test_prime_coefficient(self):
        rng = random.Random(17)
        A = random_series(rng)
        B = random_series(rng)
        for p in (2, 3, 5, 7):
            expected = A.coefficient(1) * B.coefficient(p) + A.coefficient(p) * B.coefficient(1)
            assert abs(mul(A, B, 32).coefficient(p) - expected) < 1e-15


class TestNonFiniteResults:
    """No series holds inf or NaN: a result that overflows raises."""

    def test_mul_overflow_raises(self):
        A = make_series([(2, 1e200)], 8)
        B = make_series([(3, 1e200)], 8)
        with pytest.raises(ValueError, match=r"^non-finite coefficient: \(inf\+0j\)$"):
            mul(A, B, 8)

    def test_nan_is_not_pruned(self):
        # abs(nan) >= PRUNE_BELOW is False, so a NaN once read as below the cut
        with pytest.raises(ValueError, match=r"^non-finite coefficient: \(nan\+0j\)$"):
            _pruned({1: 1 + 0j, 2: complex(math.nan, 0.0)})

    def test_large_finite_sum_is_kept(self):
        # the values' sum overflows, but every value is finite
        A = make_series([(1, 1.5e308), (2, 1.5e308)], 8)
        assert mul(A, constant_series(1, 8), 8).terms == A.terms

    def test_exp_of_a_large_constant_raises(self):
        with pytest.raises(ValueError, match=r"^exp of the constant term \(2000\+0j\) overflows$"):
            exp_series(constant_series(2000, 8), 8)


class TestScale:
    def test_zero(self):
        assert scale(make_series([(2, 1)], 4), 0).is_zero()

    def test_double(self):
        D = scale(make_series([(1, 1), (2, 1)], 4), 2)
        assert D.terms == {1: 2 + 0j, 2: 2 + 0j}

    def test_inverse(self):
        rng = random.Random(19)
        A = random_series(rng)
        back = scale(scale(A, 0.37 + 0.2j), 1 / (0.37 + 0.2j))
        assert max_coeff_diff(A, back) <= 1e-15


class TestEvaluate:
    def test_simple(self):
        D = make_series([(1, 1), (2, 1)], 4)
        assert abs(evaluate(D, 1) - 1.5) < 1e-15

    def test_at_zero(self):
        assert abs(evaluate(make_series([(2, 1)], 4), 0) - 1) < 1e-15

    def test_against_naive_sum(self):
        D = make_series([(n, 1) for n in range(1, 101)], 100)
        naive = sum(complex(n) ** -2 for n in range(1, 101))
        assert abs(evaluate(D, 2) - naive) < 1e-12


class TestEvaluateOverflow:
    """A point value that overflows raises ValueError naming the point."""

    def test_term_overflows(self):
        D = make_series([(1, 1), (2, 1)], 4)
        with pytest.raises(ValueError, match=r"^the value at \(-2000\+0j\) overflows$"):
            evaluate(D, complex(-2000))

    def test_sum_overflows(self):
        # 2^30 is finite, 1e300 * 2^30 is not
        with pytest.raises(ValueError, match=r"^the value at \(-30\+0j\) overflows$"):
            evaluate(make_series([(2, 1e300)], 4), complex(-30))

    def test_large_finite_value_kept(self):
        assert evaluate(make_series([(1, 1e300), (2, 1e300)], 4), 0) == 2e300

    def test_zero_series_value_is_complex(self):
        assert type(evaluate(zero_series(4), 2)) is complex


class TestTranslate:
    def test_simple(self):
        D = translate(make_series([(2, 1)], 4), 1)
        assert D.terms == {2: 0.5 + 0j}

    def test_zero_identity(self):
        rng = random.Random(23)
        A = random_series(rng)
        assert translate(A, 0).terms == A.terms

    def test_matches_shifted_evaluation(self):
        rng = random.Random(29)
        D = random_series(rng)
        s = complex(1, 1)
        assert abs(evaluate(translate(D, 0.3), s) - evaluate(D, s + 0.3)) < 1e-12

    def test_composes(self):
        rng = random.Random(31)
        D = random_series(rng)
        once = translate(translate(D, 0.4), 0.6)
        assert max_coeff_diff(once, translate(D, 1.0)) <= 1e-15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            translate(zero_series(4), -0.1)


class TestExpSeries:
    def test_exp_of_zero(self):
        assert exp_series(zero_series(8), 8).terms == {1: 1 + 0j}

    def test_single_term(self):
        b = 0.7 - 0.2j
        E = exp_series(make_series([(2, b)], 16), 16)
        for r in range(5):
            assert abs(E.coefficient(2**r) - b**r / math.factorial(r)) < 1e-14

    def test_pointwise(self):
        rng = random.Random(37)
        phi = random_series(rng, 8, 4, radius=0.5)
        s = complex(3, 1.2)
        got = evaluate(exp_series(phi, 256), s)
        want = cmath.exp(evaluate(phi, s))
        assert abs(got - want) < 1e-6


class TestLogSeries:
    def test_log_of_one(self):
        assert log_series(constant_series(1, 8), 8).is_zero()

    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(20):
            phi = random_series(rng, 32, 5, radius=1.0)
            back = log_series(exp_series(phi, 32), 32)
            assert max_coeff_diff(phi, back) <= 1e-12

    def test_mercator(self):
        L = log_series(make_series([(1, 1), (2, 1)], 8), 8)
        assert abs(L.coefficient(2) - 1) < 1e-15
        assert abs(L.coefficient(4) + 0.5) < 1e-15
        assert abs(L.coefficient(8) - 1 / 3) < 1e-15

    def test_requires_constant(self):
        with pytest.raises(ValueError):
            log_series(make_series([(2, 1)], 8), 8)


def test_immutability():
    D = make_series([(2, 1)], 4)
    with pytest.raises(Exception):
        D.truncation = 8
