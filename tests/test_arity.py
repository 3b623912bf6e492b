"""The paths written once for both arities, under hypothesis: lift/unlift,
dumps/loads and the multiplicativity of the lift, on single and double
series alike, the one symbol type, plus the prime table they read."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddseries import factor
from ddseries.bohr import (
    DoublePrimePolynomial,
    PrimePolynomial,
    index_to_multiindex,
    lift,
    prime,
    unlift,
)
from ddseries.compose import DoubleSymbol, Symbol, char_power, char_power_double
from ddseries.double import embed_single, make_double_series, mul2, zero_double
from ddseries.formats import (
    dumps_polynomial,
    dumps_series,
    dumps_symbol,
    loads_polynomial,
    loads_series,
    loads_symbol,
)
from ddseries.parser import parse_expression, print_expression
from ddseries.series import DirichletSeries, make_series, mul
from fresh_process import run_fresh

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
    def test_parse_inverts_print(self, D):
        assert parse_expression(print_expression(D), D.truncations[0]) == D

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


_slope = st.integers(0, 2)
_small = _coeffs.map(lambda c: c / 8)


def _small_single(T):
    return st.dictionaries(st.integers(1, T), _small, max_size=5).map(
        lambda t: make_series(t.items(), T))


def _small_double(T):
    index = st.tuples(st.integers(1, T), st.integers(1, T))
    return st.dictionaries(index, _small, max_size=5).map(
        lambda t: make_double_series(t.items(), (T, T)))


class TestOneSymbol:
    def test_double_symbol_is_symbol(self):
        assert DoubleSymbol is Symbol

    @ROUND_TRIPS
    @given(_slope, _small_single(16), st.integers(1, 12), st.sampled_from([16, 64, 256]))
    def test_char_power_is_char_power_double_on_the_first_axis(self, c0, phi, k, n):
        """A one-variable symbol is the two-variable one whose second
        component is t itself; read on the first axis, the two agree bit
        for bit."""
        double = DoubleSymbol(c0, 0, 0, 1, embed_single(phi), zero_double((phi.truncation, 1)))
        got = char_power_double(k, 1, double, (n, 1))
        assert {m: c for (m, _), c in got.terms.items()} == char_power(k, Symbol(c0, phi), n).terms
        assert all(col == 1 for _, col in got.terms)

    @ROUND_TRIPS
    @given(_slope, _small_single(16))
    def test_symbol_text_round_trip_single(self, c0, phi):
        sym = Symbol(c0, phi)
        assert loads_symbol(dumps_symbol(sym)) == sym

    @ROUND_TRIPS
    @given(st.lists(_slope, min_size=4, max_size=4), _small_double(8), _small_double(8))
    def test_symbol_text_round_trip_double(self, slopes, phi1, phi2):
        sym = DoubleSymbol(*slopes, phi1, phi2)
        assert loads_symbol(dumps_symbol(sym)) == sym


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

    def test_table_stops_below_two_to_the_twenty(self):
        """The sieve stops at 2^20 entries, 82,025 primes: a prime or a
        position past them raises ValueError."""
        assert prime(82025) == 1048573
        assert index_to_multiindex(1048573) == ((82025, 1),)
        with pytest.raises(ValueError, match="beyond the prime table"):
            prime(82026)
        with pytest.raises(ValueError, match="beyond the prime table"):
            index_to_multiindex(1048583)
        with pytest.raises(ValueError, match="beyond the prime table"):
            index_to_multiindex(1000000007)

    @pytest.mark.parametrize("position, p", [
        (1, 2), (5, 11), (6, 13), (7, 17), (1000, 7919), (10000, 104729), (82025, 1048573),
    ])
    def test_position_read_off_an_empty_table(self, monkeypatch, position, p):
        """The sieve that _prime_at grows from nothing, sized by Rosser's
        bound on the n-th prime, reaches the prime at that position."""
        monkeypatch.setattr(factor, "_sieve", bytearray())
        monkeypatch.setattr(factor, "_primes", [])
        assert prime(position) == p

    def test_refusal_past_the_table_sieves_nothing(self):
        """A position past the 82,025 primes is refused from their stored
        count, before the sieve grows to list them."""
        code = ("from ddseries import factor\n"
                "try:\n    factor._prime_at(82026)\nexcept ValueError:\n    print(len(factor._primes))")
        assert int(run_fresh(code)) < 1000
