"""The algebra kernels against oracles that share no code with them.

mul, mul2, exp_series, log_series and exp2 are checked against brute-force
divisor sums, the factorization sum exp(psi)_n = sum prod psi_b^r / r! and
supports recomputed as reachable closures, at sizes where a quadratic kernel
would take tens of seconds.  The algebra laws run under hypothesis in one
and two variables.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddseries.compose import char_power_via_factorizations, exp2
from ddseries.double import add2, make_double_series, mul2, scale2
from ddseries.factor import multiplicative_factorizations
from ddseries.series import add, exp_series, log_series, make_series, mul

N_DENSE = 16384
REL_TOL = 1e-12


def _coeff(rng, scale=1.0):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale


def _dense(rng, N, constant=None):
    terms = {n: _coeff(rng, n**-0.5) for n in range(1, N + 1)}
    if constant is not None:
        terms[1] = constant
    return make_series(terms.items(), N)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _conv_at(a, b, n):
    terms = [a.get(d, 0j) * b.get(n // d, 0j) for d in _divisors(n)]
    return sum(terms), sum(abs(t) for t in terms)


def _exp_at(psi, n):
    """exp(psi)_n for constant-free psi, by the factorization sum."""
    if n == 1:
        return 1 + 0j, 1.0
    terms = [
        math.prod(psi.get(b, 0j) ** r / math.factorial(r) for b, r in parts)
        for parts in multiplicative_factorizations(n)
    ]
    return sum(terms), sum(abs(t) for t in terms)


def _assert_close(got, want, scale, what):
    assert abs(got - want) <= REL_TOL * scale + 1e-300, (what, got, want)


def _samples(rng, N):
    # a highly composite index, a prime power and a prime besides random ones
    return rng.sample(range(2, N + 1), 12) + [15120, 8192, 16381, N]


@pytest.fixture(scope="module")
def rng():
    return random.Random(20260)


class TestDense:
    def test_mul_matches_divisor_sums(self, rng):
        A, B = _dense(rng, N_DENSE), _dense(rng, N_DENSE)
        C = mul(A, B, N_DENSE)
        assert set(C.terms) == set(range(1, N_DENSE + 1))
        for n in _samples(rng, N_DENSE):
            want, scale = _conv_at(A.terms, B.terms, n)
            _assert_close(C.terms[n], want, scale, n)

    def test_exp_matches_factorization_sum(self, rng):
        phi = _dense(rng, N_DENSE)
        E = exp_series(phi, N_DENSE)
        factor = cmath.exp(phi.terms[1])
        assert set(E.terms) == set(range(1, N_DENSE + 1))
        for n in [1] + _samples(rng, N_DENSE):
            want, scale = _exp_at(phi.terms, n)
            _assert_close(E.terms[n], factor * want, abs(factor) * scale, n)

    def test_log_inverts_factorization_sum(self, rng):
        D = _dense(rng, N_DENSE, constant=1.5 + 0.25j)
        L = log_series(D, N_DENSE)
        factor = cmath.exp(L.terms[1])
        _assert_close(factor, D.terms[1], abs(factor), 1)
        for n in _samples(rng, N_DENSE):
            want, scale = _exp_at(L.terms, n)
            _assert_close(factor * want, D.terms[n], abs(factor) * scale, n)


def _random_double(rng, bound, truncs, size):
    pairs = {(1, 1)}
    while len(pairs) < size:
        pairs.add((rng.randint(1, bound), rng.randint(1, bound)))
    return make_double_series([(p, _coeff(rng, 0.5)) for p in sorted(pairs)], truncs)


def _assert_series_close(A, B, tol=REL_TOL):
    scale = max((abs(v) for v in list(A.terms.values()) + list(B.terms.values())), default=0.0)
    for key in set(A.terms) | set(B.terms):
        assert abs(A.terms.get(key, 0j) - B.terms.get(key, 0j)) <= tol * (1.0 + scale), key


class TestExp2AgainstFactorizations:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sparse_32x32(self, rng, k):
        for _ in range(6):
            phi = _random_double(rng, 32, (32, 32), rng.randint(2, 6))
            _assert_series_close(
                exp2(scale2(phi, -math.log(k)), (32, 32)),
                char_power_via_factorizations(k, phi, (32, 32)),
            )

    def test_dense_6x6(self, rng):
        for k in (2, 7):
            phi = _random_double(rng, 6, (6, 6), 36)
            got = exp2(scale2(phi, -math.log(k)), (6, 6))
            assert len(got.terms) == 36
            _assert_series_close(got, char_power_via_factorizations(k, phi, (6, 6)))


def _closure(gens, bound):
    out, frontier = set(), {1}
    while frontier:
        frontier = {x * g for x in frontier for g in gens if x * g <= bound} - out
        out |= frontier
    return out


class TestSparseSupport:
    N = 1 << 17

    @pytest.mark.parametrize("seed", range(6))
    def test_support_is_reachable_closure(self, seed):
        rng = random.Random(seed)
        idx = {2, 3, 7} if seed % 2 else set()
        while len(idx) < 6:
            idx.add(rng.randint(2, self.N))
        D = make_series([(1, 1 + 0.5j)] + [(n, _coeff(rng)) for n in sorted(idx)], self.N)
        want = {1} | _closure(idx, self.N)
        assert set(exp_series(D, self.N).terms) == want
        assert set(log_series(D, self.N).terms) == want
        assert set(mul(D, D, self.N).terms) == {
            d * e for d in D.terms for e in D.terms if d * e <= self.N
        }


# ------------------------------------------------------------ algebra laws

_coeffs = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
N_LAW, M_LAW = 96, 12


def _single(max_size=6):
    return st.dictionaries(st.integers(1, N_LAW), _coeffs, max_size=max_size).map(
        lambda t: make_series(t.items(), N_LAW)
    )


def _double(max_size=6):
    index = st.tuples(st.integers(1, M_LAW), st.integers(1, M_LAW))
    return st.dictionaries(index, _coeffs, max_size=max_size).map(
        lambda t: make_double_series(t.items(), (M_LAW, M_LAW))
    )


LAWS = settings(max_examples=60, deadline=None)


class TestSingleLaws:
    @LAWS
    @given(_single(), _single(), _single())
    def test_mul_commutative_associative(self, A, B, C):
        _assert_series_close(mul(A, B, N_LAW), mul(B, A, N_LAW))
        _assert_series_close(
            mul(mul(A, B, N_LAW), C, N_LAW), mul(A, mul(B, C, N_LAW), N_LAW), 1e-10
        )

    @LAWS
    @given(_single(), _single())
    def test_exp_is_a_homomorphism(self, A, B):
        _assert_series_close(
            exp_series(add(A, B), N_LAW),
            mul(exp_series(A, N_LAW), exp_series(B, N_LAW), N_LAW),
            1e-10,
        )

    @LAWS
    @given(_single())
    def test_log_inverts_exp(self, A):
        back = log_series(exp_series(A, N_LAW), N_LAW)
        # the constant term comes back modulo 2*pi*i
        a1 = A.terms.get(1, 0j)
        back_terms = dict(back.terms)
        back_terms[1] = a1 + 0j
        _assert_series_close(make_series(back_terms.items(), N_LAW), A, 1e-10)
        assert cmath.exp(back.terms.get(1, 0j)) == pytest.approx(cmath.exp(a1), rel=1e-12)


def _derivation(D):
    """The total derivation: coefficient (m, n) times ln(mn)."""
    return make_double_series(
        [(k, v * math.log(k[0] * k[1])) for k, v in D.terms.items()], D.truncations
    )


class TestDoubleLaws:
    T = (M_LAW, M_LAW)

    @LAWS
    @given(_double(), _double(), _double())
    def test_mul2_commutative_associative(self, A, B, C):
        T = self.T
        _assert_series_close(mul2(A, B, T), mul2(B, A, T))
        _assert_series_close(mul2(mul2(A, B, T), C, T), mul2(A, mul2(B, C, T), T), 1e-10)

    @LAWS
    @given(_double(), _double())
    def test_exp2_is_a_homomorphism(self, A, B):
        T = self.T
        _assert_series_close(
            exp2(add2(A, B), T), mul2(exp2(A, T), exp2(B, T), T), 1e-10
        )

    @LAWS
    @given(_double())
    def test_log_derivative_of_exp2(self, A):
        """log o exp = id in two variables, in differential form: E = exp2(A)
        has E'/E = A', i.e. E' = A' * E under the total derivation (there
        is no two-variable log to compose with)."""
        E = exp2(A, self.T)
        _assert_series_close(_derivation(E), mul2(_derivation(A), E, self.T), 1e-10)
