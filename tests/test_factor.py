import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddseries.factor import (
    divisors,
    factorize,
    multiplicative_factorizations,
    pair_factorizations,
)


def brute_mult_factorizations(M):
    """Independent oracle: sorted factor sequences, duplicates grouped."""
    out = set()

    def walk(rest, min_base, acc):
        if rest == 1:
            grouped = []
            for b in acc:
                if grouped and grouped[-1][0] == b:
                    grouped[-1] = (b, grouped[-1][1] + 1)
                else:
                    grouped.append((b, 1))
            out.add(tuple(grouped))
            return
        for b in range(min_base, rest + 1):
            if rest % b == 0:
                walk(rest // b, b, acc + [b])

    walk(M, 2, [])
    return out


def brute_factorize(n):
    """Independent oracle: trial division by every integer from 2 up, in
    numpy blocks, for n below 2^63."""
    out, d = [], 2
    while d * d <= n:
        block = np.arange(d, min(d + (1 << 16), math.isqrt(n) + 1), dtype=np.int64)
        hits = block[n % block == 0]
        if not len(hits):
            d = int(block[-1]) + 1
            continue
        p, e = int(hits[0]), 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
        d = p + 1
    if n > 1:
        out.append((n, 1))
    return out


# primes whose powers lie near 2^20: the largest below it (1048573), the
# largest below its square, cube and fourth root, and 2
_NEAR_CAP = st.sampled_from([(1048573, 1), (1021, 2), (101, 3), (31, 4), (2, 20), (2, 19)])
# cofactors between 2^20 and 2^40: any integer there, or the first prime
# above 2^20 (1048583), the last below 2^40 (2^40 - 87) or 10^9 + 7
_COFACTOR = st.one_of(st.integers(1 << 20, 1 << 40),
                      st.sampled_from([1048583, 1000000007, 1099511627689]))
_TABLE_PRODUCT = st.integers(1, 1 << 20)


def brute_pair_factorizations(M, N):
    out = set()
    dM, dN = divisors(M), divisors(N)

    def walk(rm, rn, min_pair, acc):
        if rm == 1 and rn == 1:
            grouped = []
            for p in acc:
                if grouped and grouped[-1][0] == p:
                    grouped[-1] = (p, grouped[-1][1] + 1)
                else:
                    grouped.append((p, 1))
            out.add(tuple(grouped))
            return
        for m in dM:
            if rm % m:
                continue
            for n in dN:
                if rn % n or (m, n) == (1, 1) or (m, n) < min_pair:
                    continue
                walk(rm // m, rn // n, (m, n), acc + [(m, n)])

    walk(M, N, (1, 1), [])
    return out


class TestFactorize:
    def test_one(self):
        assert factorize(1) == []

    def test_twelve(self):
        assert factorize(12) == [(2, 2), (3, 1)]

    def test_reconstruct(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            prod = 1
            for p, e in factorize(n):
                prod *= p**e
            assert prod == n

    def test_beyond_sieve(self):
        n = 10**6 + 3  # prime above the sieve bound
        assert factorize(n * 4) == [(2, 2), (n, 1)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestFactorizeAgainstTrialDivision:
    """factorize divides by the primes below 2^20, and a cofactor below
    2^40 left after them is prime."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        st.tuples(_NEAR_CAP, _TABLE_PRODUCT).map(lambda t: t[0][0] ** t[0][1] * t[1]),
        st.tuples(_TABLE_PRODUCT, _TABLE_PRODUCT).map(lambda t: t[0] * t[1]),
        st.tuples(_TABLE_PRODUCT, _COFACTOR).map(lambda t: t[0] * t[1]),
    ))
    def test_matches_brute_force(self, n):
        assert factorize(n) == brute_factorize(n)

    @pytest.mark.parametrize("n", [
        1048583**2,                    # the square of the first prime past the table
        2 * 1048583 * 1048589,         # two primes past the table, times a listed one
        (1 << 40) + 15,                # a prime above 2^40
        10**18 + 3,
    ])
    def test_cofactor_above_two_to_the_forty_raises(self, n):
        with pytest.raises(ValueError, match="prime table"):
            factorize(n)

    def test_cofactor_just_below_two_to_the_forty_is_prime(self):
        assert factorize(3 * 1099511627689) == [(3, 1), (1099511627689, 1)]


class TestDivisors:
    def test_one(self):
        assert divisors(1) == [1]

    def test_twelve(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_count_against_trial_division(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 10**4)
            brute = [d for d in range(1, n + 1) if n % d == 0]
            assert divisors(n) == brute


class TestMultiplicativeFactorizations:
    def test_four(self):
        got = {tuple(f) for f in multiplicative_factorizations(4)}
        assert got == {((4, 1),), ((2, 2),)}

    def test_prime(self):
        for p in (2, 3, 5, 31):
            assert [list(f) for f in multiplicative_factorizations(p)] == [[(p, 1)]]

    def test_twelve(self):
        got = {tuple(f) for f in multiplicative_factorizations(12)}
        assert got == {
            ((12, 1),),
            ((2, 1), (6, 1)),
            ((3, 1), (4, 1)),
            ((2, 2), (3, 1)),
        }

    def test_matches_exhaustive_search(self):
        for M in range(2, 65):
            got = {tuple(f) for f in multiplicative_factorizations(M)}
            assert got == brute_mult_factorizations(M)

    def test_products_and_uniqueness(self):
        for M in (24, 36, 60):
            seen = set()
            for f in multiplicative_factorizations(M):
                prod = 1
                for b, r in f:
                    prod *= b**r
                assert prod == M
                assert tuple(f) not in seen
                seen.add(tuple(f))


class TestPairFactorizations:
    def test_reduces_to_single_on_axis(self):
        for M in range(2, 30):
            pairs = {f for f in pair_factorizations(M, 1)}
            lifted = {
                tuple(((b, 1), r) for b, r in f)
                for f in map(tuple, multiplicative_factorizations(M))
            }
            assert pairs == lifted

    def test_two_three(self):
        got = set(pair_factorizations(2, 3))
        assert got == {((((2, 3)), 1),), (((1, 3), 1), ((2, 1), 1))}

    def test_four_one(self):
        got = set(pair_factorizations(4, 1))
        assert got == {(((4, 1), 1),), (((2, 1), 2),)}

    def test_matches_exhaustive_search(self):
        for M in range(1, 17):
            for N in range(1, 17):
                if (M, N) == (1, 1):
                    continue
                assert set(pair_factorizations(M, N)) == brute_pair_factorizations(M, N)

    def test_products(self):
        for M, N in ((8, 12), (16, 9), (30, 30)):
            for f in pair_factorizations(M, N):
                pm = pn = 1
                for (m, n), r in f:
                    pm *= m**r
                    pn *= n**r
                assert (pm, pn) == (M, N)

    def test_rejects_unit_pair(self):
        with pytest.raises(ValueError):
            pair_factorizations(1, 1)
