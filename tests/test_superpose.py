import cmath
import math
import random

import numpy as np
import pytest

from ddseries.bohr import _hp_sampled
from ddseries.series import (
    constant_series,
    evaluate,
    exp_series,
    make_series,
    mul,
    scale,
)
from ddseries.superpose import (
    ScalarPolynomial,
    degree_bound,
    superpose,
    superpose_entire,
    young_bound_verify,
)


def random_series(rng, max_index=8, n_terms=4, radius=0.5):
    idx = rng.sample(range(1, max_index + 1), n_terms)
    return make_series(
        [(n, complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))) for n in idx],
        max_index,
    )


class TestScalarPolynomial:
    def test_degree(self):
        assert ScalarPolynomial((1, 0, 2)).degree == 2

    def test_horner(self):
        P = ScalarPolynomial((1, -2, 3))
        w = 0.5 + 1j
        assert abs(P(w) - (1 - 2 * w + 3 * w * w)) < 1e-15


class TestSuperpose:
    def test_identity_polynomial(self):
        rng = random.Random(3)
        D = random_series(rng)
        out = superpose(ScalarPolynomial((0, 1)), D, 8)
        assert out.terms == D.terms

    def test_square_by_hand(self):
        # (a + b*2^-s)^2 = a^2 + 2ab*2^-s + b^2*4^-s
        a, b = 1.5 + 0j, -0.5 + 1j
        D = make_series([(1, a), (2, b)], 4)
        out = superpose(ScalarPolynomial((0, 0, 1)), D, 4)
        assert abs(out.coefficient(1) - a * a) < 1e-15
        assert abs(out.coefficient(2) - 2 * a * b) < 1e-15
        assert abs(out.coefficient(4) - b * b) < 1e-15

    def test_pointwise_oracle(self):
        rng = random.Random(5)
        poly = ScalarPolynomial((0.3, -1.2, 0.7, 2j))
        D = random_series(rng)
        out = superpose(poly, D, 4096)
        for im in (-3.1, 0.0, 2.4):
            s = complex(3, im)
            assert abs(evaluate(out, s) - poly(evaluate(D, s))) < 1e-6

    def test_constant_polynomial(self):
        rng = random.Random(7)
        D = random_series(rng)
        out = superpose(ScalarPolynomial((4 - 1j,)), D, 8)
        assert out.terms == {1: 4 - 1j}


class TestDegreeBound:
    def test_examples(self):
        assert degree_bound(4, 2) == 2
        assert degree_bound(2, 2) == 1
        assert degree_bound(5, 2) == 2

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            degree_bound(0.5, 2)


class TestYoungBound:
    def test_constant_equality(self):
        rep = young_bound_verify(constant_series(2, 1), 1, 3, 3, 1000, 0)
        assert rep.holds
        assert abs(rep.lhs.moment - rep.rhs.moment) < 1e-12

    def test_two_term(self):
        P = make_series([(1, 1), (2, 1)], 2)
        rep = young_bound_verify(P, 2, 4, 2, 20_000, 1)
        assert rep.holds
        # ||P^2||_2^2 = 6 and ||P||_4^4 = 6 by expanding |1+z|^4
        assert abs(rep.lhs.moment - 6) <= 4 * rep.lhs.moment_stderr
        assert abs(rep.rhs.moment - 6) <= 4 * rep.rhs.moment_stderr

    def test_boundary_exponents(self):
        P = make_series([(1, 1), (2, 1 + 0j)], 2)
        rep = young_bound_verify(P, 3, 6, 2, 20_000, 2)
        assert rep.holds

    def test_rejects_kq_above_p(self):
        with pytest.raises(ValueError):
            young_bound_verify(constant_series(1, 1), 2, 3, 2, 100, 0)

    def test_rejects_q_below_one(self):
        # the lhs is estimated at kq = 1, but ||P^2||_0.5 is no norm
        with pytest.raises(ValueError, match="1 <= q"):
            young_bound_verify(constant_series(1, 1), 2, 2, 0.5, 100, 0)

    def test_small_polynomial(self):
        # ||P^2||_1 = ||P||_2^2 = 0.3125 <= ||P||_4^2 = 0.1289^(1/2) = 0.359,
        # though ||P^2||_1 > ||P||_4^4 = 0.1289: the bound is on norms.  kq = 2
        # and p = 4 are even, so both sides are exact
        P = make_series([(1, 0.5), (2, 0.25)], 2)
        rep = young_bound_verify(P, 2, 4.0, 1.0, 20_000, 0)
        assert rep.holds
        assert rep.lhs.kind == rep.rhs.kind == "hp-exact"
        assert rep.lhs.value == pytest.approx(0.3125, rel=1e-12)
        assert rep.rhs.moment == pytest.approx(0.12890625, rel=1e-12)

    def test_small_polynomial_sampled_at_an_odd_exponent(self):
        # ||P^3||_1 = ||P||_3^3 <= ||P||_4.5^3, though ||P||_3^3 > ||P||_4.5^4.5;
        # kq = 3 and p = 4.5 are not even, so both sides are sampled.  The
        # lift of P is 0.5 + 0.25 z, one circle variable: a 1-D trapezoid
        # rule is the oracle
        P = make_series([(1, 0.5), (2, 0.25)], 2)
        thetas = np.linspace(0.0, 1.0, 20001)
        values = np.abs(0.5 + 0.25 * np.exp(2j * np.pi * thetas))
        rep = young_bound_verify(P, 3, 4.5, 1.0, 20_000, 0)
        assert rep.holds
        assert rep.lhs.kind == rep.rhs.kind == "hp"
        assert abs(rep.lhs.value - np.trapezoid(values ** 3, thetas)) <= 4 * rep.lhs.stderr
        assert abs(rep.rhs.moment - np.trapezoid(values ** 4.5, thetas)) <= (
            4 * rep.rhs.moment_stderr)

    def test_sampled_side_takes_the_torus_points_of_the_power(self):
        # |P^k|^q = |P|^{kq} pointwise: with kq = 1.5k never even, the lhs is
        # the estimate of P^k at q from the same samples
        rng = random.Random(5)
        for i in range(10):
            P = random_series(rng, max_index=12, n_terms=4)
            k = rng.randint(1, 3)
            rep = young_bound_verify(P, k, 1.5 * k, 1.5, 2000, i)
            Pk = P
            for _ in range(k - 1):
                Pk = mul(Pk, P, 12**k)
            want = _hp_sampled(Pk, 1.5, 2000, i)
            assert rep.lhs.kind == "hp"
            assert rep.lhs.moment == pytest.approx(want.moment, rel=1e-12)
            assert rep.lhs.value == pytest.approx(want.value, rel=1e-12)
            assert rep.lhs.stderr == pytest.approx(want.stderr, rel=1e-9)

    def test_norms_compared_for_every_exponent(self):
        # Hoelder on the torus: the bound holds whatever the size of P
        rng = random.Random(7)
        for i in range(20):
            P = scale(random_series(rng, max_index=6, n_terms=3), rng.uniform(0.05, 2.0))
            k = rng.randint(1, 3)
            q = rng.choice([1.0, 2.0])
            assert young_bound_verify(P, k, k * q * rng.choice([1.0, 1.5, 2.0]), q, 4000, i).holds


class TestSuperposeEntire:
    def test_exponential_matches_formal_exp(self):
        phi = make_series([(2, 0.1)], 64)
        taylor = [1 / math.factorial(r) for r in range(21)]
        out = superpose_entire(taylor, phi, 64)
        want = exp_series(phi, 64)
        keys = set(out.series.terms) | set(want.terms)
        assert all(
            abs(out.series.terms.get(n, 0j) - want.terms.get(n, 0j)) <= 1e-12
            for n in keys
        )
        assert out.tail_bound < 1e-12

    def test_polynomial_has_zero_tail(self):
        rng = random.Random(11)
        D = random_series(rng)
        taylor = (0.5, -1, 0, 2)
        out = superpose_entire(taylor, D, 512)
        direct = superpose(ScalarPolynomial(taylor), D, 512)
        assert out.series.terms == direct.terms

    def test_sine_pointwise(self):
        D = make_series([(3, 0.2)], 4096)
        taylor = [0.0] * 16
        for r in range(0, 16, 2):
            taylor[r + 1] = (-1) ** (r // 2) / math.factorial(r + 1)
        out = superpose_entire(taylor, D, 4096)
        for im in (-2.0, 0.0, 5.5):
            s = complex(2, im)
            assert abs(evaluate(out.series, s) - cmath.sin(evaluate(D, s))) < 1e-10

    def test_tail_infinite_when_values_reach_one(self):
        D = make_series([(1, 2)], 4)
        out = superpose_entire((1, 1, 1), D, 4)
        assert out.tail_bound == math.inf


class TestAlgebraicInvariants:
    def test_multiplicativity_of_monomials(self):
        # w^2 then w^3 composed pointwise equals w^6 when nothing truncates
        rng = random.Random(13)
        D = random_series(rng, 4, 3, radius=0.4)
        six = superpose(ScalarPolynomial((0,) * 6 + (1,)), D, 4**6)
        two = superpose(ScalarPolynomial((0, 0, 1)), D, 4**6)
        cube_of_square = superpose(ScalarPolynomial((0, 0, 0, 1)), two, 4**6)
        keys = set(six.terms) | set(cube_of_square.terms)
        assert all(
            abs(six.terms.get(n, 0j) - cube_of_square.terms.get(n, 0j)) <= 1e-11
            for n in keys
        )

    def test_square_is_not_additive(self):
        sq = ScalarPolynomial((0, 0, 1))
        A = make_series([(1, 1)], 4)
        B = make_series([(2, 1)], 4)
        from ddseries.series import add

        lhs = superpose(sq, add(A, B), 4)
        rhs = add(superpose(sq, A, 4), superpose(sq, B, 4))
        assert lhs.terms != rhs.terms
