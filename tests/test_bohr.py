import cmath
import math
import random

import numpy as np
import pytest

from ddseries.bohr import (
    DoublePrimePolynomial,
    PrimePolynomial,
    TorusSample,
    eval_torus,
    hinf_norm_estimate,
    hp_norm_estimate,
    index_to_multiindex,
    kronecker_sample,
    lift,
    lift_double,
    multiindex_to_index,
    prime,
    unlift,
    unlift_double,
)
from ddseries.double import make_double_series, mul2
from ddseries.series import constant_series, evaluate, make_series, mul


def random_series(rng, max_index=32, n_terms=5):
    idx = rng.sample(range(1, max_index + 1), n_terms)
    return make_series(
        [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in idx], max_index
    )


class TestMultiIndex:
    def test_one(self):
        assert index_to_multiindex(1) == ()

    def test_twelve(self):
        assert index_to_multiindex(12) == ((1, 2), (2, 1))

    def test_roundtrip(self):
        for n in range(1, 2000):
            assert multiindex_to_index(index_to_multiindex(n)) == n
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 10**5)
            assert multiindex_to_index(index_to_multiindex(n)) == n

    def test_prime_positions(self):
        assert [prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]


class TestLift:
    def test_six(self):
        P = lift(make_series([(6, 1)], 8))
        assert P.terms == {((1, 1), (2, 1)): 1 + 0j}

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            D = random_series(rng)
            assert unlift(lift(D), D.truncation).terms == D.terms

    def test_multiplicativity(self):
        # lift of a convolution equals the polynomial product of the lifts
        rng = random.Random(7)
        for _ in range(5):
            A = random_series(rng, 64, 5)
            B = random_series(rng, 64, 5)
            direct = lift(mul(A, B, 64 * 64))
            prod = {}
            for a, ca in lift(A).terms.items():
                for b, cb in lift(B).terms.items():
                    merged = dict(a)
                    for pos, e in b:
                        merged[pos] = merged.get(pos, 0) + e
                    key = tuple(sorted(merged.items()))
                    prod[key] = prod.get(key, 0j) + ca * cb
            keys = set(direct.terms) | set(prod)
            assert all(
                abs(direct.terms.get(k, 0j) - prod.get(k, 0j)) <= 1e-13 for k in keys
            )

    def test_double_roundtrip(self):
        D = make_double_series([((2, 3), 1 + 2j), ((6, 1), -1 + 0j)], (8, 8))
        P = lift_double(D)
        assert P.terms == {
            (((1, 1),), ((2, 1),)): 1 + 2j,
            (((1, 1), (2, 1)), ()): -1 + 0j,
        }
        assert unlift_double(P, D.truncations).terms == D.terms

    def test_unlift_rejects_index_above_truncation(self):
        with pytest.raises(ValueError):
            unlift(PrimePolynomial({((1, 7),): 1 + 0j}), 64)
        with pytest.raises(ValueError):
            unlift_double(DoublePrimePolynomial({(((1, 7),), ()): 1 + 0j}), (64, 64))


class TestEvalTorus:
    def test_constant(self):
        P = PrimePolynomial({(): 2.5 + 1j})
        assert eval_torus(P, TorusSample((0.1, 0.9))) == 2.5 + 1j

    def test_quarter_phase(self):
        P = PrimePolynomial({((1, 1),): 1 + 0j})
        v = eval_torus(P, TorusSample((0.25,)))
        assert abs(v - 1j) < 1e-15

    def test_kronecker_flow_matches_line_evaluation(self):
        rng = random.Random(11)
        D = random_series(rng, 30, 5)
        positions = max(
            (pos for alpha in lift(D).terms for pos, _ in alpha), default=1
        )
        for t in (0.0, 1.7, -3.2, 12.9):
            sample = kronecker_sample(t, positions)
            want = evaluate(D, 1j * t)
            got = eval_torus(lift(D), sample)
            assert abs(got - want) < 1e-12

    def test_insufficient_phases(self):
        P = PrimePolynomial({((3, 1),): 1 + 0j})
        with pytest.raises(ValueError):
            eval_torus(P, TorusSample((0.5,)))


class TestHpNorm:
    def test_constant(self):
        for p in (1.0, 2.0, 4.0):
            est = hp_norm_estimate(constant_series(3 - 4j, 4), p, 100, 0)
            assert abs(est.value - 5.0) < 1e-12
            assert est.stderr == 0.0

    def test_parseval_two_terms(self):
        a, b = 1.0, 0.7
        D = make_series([(1, a), (2, b)], 4)
        est = hp_norm_estimate(D, 2.0, 50_000, 42)
        exact = math.sqrt(a * a + b * b)
        assert abs(est.moment - exact**2) <= 3 * est.moment_stderr

    def test_p4_against_circle_quadrature(self):
        # Bohr lift of 1 + 2^-s is 1 + z, one circle variable; oracle is a
        # 1-D trapezoid rule
        D = make_series([(1, 1), (2, 1)], 4)
        thetas = np.linspace(0.0, 1.0, 20001)
        oracle = np.trapezoid(
            np.abs(1 + np.exp(2j * np.pi * thetas)) ** 4, thetas
        )
        est = hp_norm_estimate(D, 4.0, 100_000, 7)
        assert abs(est.moment - oracle) <= 3 * est.moment_stderr

    def test_monotone_in_p(self):
        rng = random.Random(13)
        D = random_series(rng, 16, 4)
        e2 = hp_norm_estimate(D, 2.0, 20_000, 1)
        e4 = hp_norm_estimate(D, 4.0, 20_000, 2)
        assert e2.value <= e4.value + 3 * (e2.stderr + e4.stderr)

    def test_deterministic_given_seed(self):
        D = make_series([(2, 1), (3, 1j)], 4)
        a = hp_norm_estimate(D, 3.0, 1000, 9)
        b = hp_norm_estimate(D, 3.0, 1000, 9)
        assert a == b


class TestHinfNorm:
    def test_constant(self):
        est = hinf_norm_estimate(constant_series(2j, 4), 10, 0)
        assert abs(est.value - 2.0) < 1e-12

    def test_two_term_peak(self):
        D = make_series([(1, 1), (2, 1)], 4)
        est = hinf_norm_estimate(D, 2000, 3)
        assert abs(est.value - 2.0) < 1e-3
        assert est.value <= est.upper + 1e-12

    def test_lower_bound_below_l1(self):
        rng = random.Random(17)
        for _ in range(5):
            D = random_series(rng, 16, 4)
            est = hinf_norm_estimate(D, 500, 5)
            assert est.value <= D.l1_norm() + 1e-9
            assert est.kind == "hinf-lower"
