"""The paths written once for both arities, under hypothesis: lift/unlift,
dumps/loads and the multiplicativity of the lift, on single and double
series alike, plus the prime table they read."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddseries.bohr import (
    DoublePrimePolynomial,
    PrimePolynomial,
    index_to_multiindex,
    lift,
    prime,
    unlift,
)
from ddseries.double import make_double_series, mul2
from ddseries.formats import dumps_polynomial, dumps_series, loads_polynomial, loads_series
from ddseries.series import DirichletSeries, make_series, mul

N, M = 512, 24
ROUND_TRIPS = settings(max_examples=80, deadline=None)

_coeffs = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def _single(max_size=8):
    return st.dictionaries(st.integers(1, N), _coeffs, max_size=max_size).map(
        lambda t: make_series(t.items(), N)
    )


def _double(max_size=8):
    index = st.tuples(st.integers(1, M), st.integers(1, M))
    return st.dictionaries(index, _coeffs, max_size=max_size).map(
        lambda t: make_double_series(t.items(), (M, M))
    )


_series = st.one_of(_single(), _double())


def _merge(a, b):
    """The multi-index of the product of the monomials z^a and z^b."""
    out = dict(a)
    for pos, e in b:
        out[pos] = out.get(pos, 0) + e
    return tuple(sorted(out.items()))


def _poly_product(P, Q):
    """Polynomial product of two lifts, keys of either arity."""
    double = isinstance(P, DoublePrimePolynomial)
    out = {}
    for a, ca in P.terms.items():
        for b, cb in Q.terms.items():
            key = tuple(map(_merge, a, b)) if double else _merge(a, b)
            out[key] = out.get(key, 0j) + ca * cb
    return out


class TestRoundTrips:
    @ROUND_TRIPS
    @given(_series)
    def test_unlift_inverts_lift(self, D):
        bound = D.truncation if isinstance(D, DirichletSeries) else D.truncations
        assert unlift(lift(D), bound) == D

    @ROUND_TRIPS
    @given(_series)
    def test_loads_inverts_dumps(self, D):
        assert loads_series(dumps_series(D)) == D

    @ROUND_TRIPS
    @given(_series)
    def test_polynomial_text_round_trip(self, D):
        P = lift(D)
        assert loads_polynomial(dumps_polynomial(P)) == P

    def test_lift_type_follows_arity(self):
        assert isinstance(lift(make_series([(6, 1)], 8)), PrimePolynomial)
        assert isinstance(lift(make_double_series([((6, 1), 1)], (8, 8))), DoublePrimePolynomial)


class TestLiftIsMultiplicative:
    """lift(A * B) is the polynomial product of the lifts; the truncation
    keeps every product, so nothing is dropped."""

    @staticmethod
    def _assert_close(direct, prod):
        keys = set(direct) | set(prod)
        scale = max((abs(v) for v in prod.values()), default=0.0)
        for k in keys:
            assert abs(direct.get(k, 0j) - prod.get(k, 0j)) <= 1e-12 * (1 + scale), k

    @ROUND_TRIPS
    @given(_single(), _single())
    def test_single(self, A, B):
        direct = lift(mul(A, B, N * N)).terms
        self._assert_close(direct, _poly_product(lift(A), lift(B)))

    @ROUND_TRIPS
    @given(_double(), _double())
    def test_double(self, A, B):
        direct = lift(mul2(A, B, (M * M, M * M))).terms
        self._assert_close(direct, _poly_product(lift(A), lift(B)))


class TestPrimeTable:
    """bohr's prime positions read factor's sieve, grown on demand."""

    def test_largest_prime_below_a_million(self):
        assert index_to_multiindex(999983) == ((78498, 1),)
        assert prime(78498) == 999983

    def test_positions_against_trial_division(self):
        primes = [p for p in range(2, 3000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert [prime(i) for i in range(1, len(primes) + 1)] == primes
        assert [index_to_multiindex(p) for p in primes] == [
            ((i, 1),) for i in range(1, len(primes) + 1)
        ]

    def test_prime_position_must_be_positive(self):
        with pytest.raises(ValueError):
            prime(0)
