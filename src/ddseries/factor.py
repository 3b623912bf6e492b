"""Integer factorization and the factorization enumerations feeding the
coefficient formulas of the monomial-power expansion.

Everything here is exact integer arithmetic.  One bytearray sieve of
Eratosthenes, grown on demand up to _PRIME_CAP = 2^20, lists the primes
that factorize divides by and that number the Bohr lift's variables.  A
prime or a prime position past the 82,025 primes below 2^20 raises
ValueError, as does a cofactor of 2^40 or more that no listed prime
divides.  All enumeration functions impose a canonical ordering on the
parts so that results are duplicate-free and deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import compress, product

# the sieve stops at this many entries: the table is the _PRIME_COUNT primes below it
_PRIME_CAP = 1 << 20
_PRIME_COUNT = 82025
# a cofactor with no listed prime factor is prime only below _PRIME_CAP^2
_COFACTOR_CAP = _PRIME_CAP * _PRIME_CAP
# _sieve[i] is 1 exactly when i is prime, for i < len(_sieve); _primes
# lists those i in increasing order
_sieve = bytearray()
_primes: list[int] = []


def _ensure_sieve(bound: int) -> None:
    """Sieve past bound, to the power of two above bound + 1 (so that the
    sieve at least doubles whenever it grows), but never past _PRIME_CAP."""
    global _sieve, _primes
    if bound < len(_sieve) or len(_sieve) == _PRIME_CAP:
        return
    size = min(1 << (bound + 1).bit_length(), _PRIME_CAP)
    sieve = bytearray([0, 0]) + bytearray([1]) * (size - 2)
    for p in range(2, math.isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, size, p)))
    _sieve = sieve
    _primes = list(compress(range(size), sieve))


def _prime_at(position: int) -> int:
    """The prime at the given 1-based position."""
    if position > _PRIME_COUNT:
        raise ValueError("prime position %d is beyond the prime table (the %d primes "
                         "below 2^20)" % (position, _PRIME_COUNT))
    if position > len(_primes):  # Rosser (1941): p_n < n (ln n + ln ln n) for n >= 6
        n = max(position, 6)
        _ensure_sieve(int(n * (math.log(n) + math.log(math.log(n)))) + 1)
    return _primes[position - 1]


def _prime_position(p: int) -> int:
    """The 1-based position of the prime p; grows the sieve to p, up to _PRIME_CAP."""
    if p >= _PRIME_CAP:
        raise ValueError("prime %d is beyond the prime table (primes below 2^20)" % p)
    _ensure_sieve(p)
    if not _sieve[p]:
        raise ValueError("%d is not prime" % p)
    return bisect_left(_primes, p) + 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical prime factorization of n >= 1, primes increasing.

    Returns [] for n == 1.  Trial division by the prime table: a cofactor
    left below 2^40 is prime, and a larger one raises ValueError.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1, got %r" % (n,))
    _ensure_sieve(math.isqrt(n))
    sieve, size = _sieve, len(_sieve)
    if n < size and sieve[n]:
        return [(n, 1)]
    out, m = [], n
    for p in _primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
            if m < size and sieve[m]:  # the cofactor is a listed prime
                break
    if m >= _COFACTOR_CAP:
        raise ValueError("cannot factor %d: its cofactor %d has no prime factor in the "
                         "prime table (primes below 2^20) and is not below 2^40" % (n, m))
    if m > 1:
        out.append((m, 1))
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1, got %r" % (n,))
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def multiplicative_factorizations(M: int) -> list[list[tuple[int, int]]]:
    """All factorizations of M >= 2 into powers of distinct bases >= 2.

    Each factorization is a list of (base, exponent) with bases strictly
    increasing and product base**exponent over all parts equal to M.  The
    trivial factorization [(M, 1)] is always included.
    """
    if M < 2:
        raise ValueError("multiplicative_factorizations requires M >= 2")
    return [[(m, r) for (m,), r in f] for f in _factorizations((M,), (1,))]


@lru_cache(maxsize=65536)
def pair_factorizations(M: int, N: int) -> tuple[tuple[tuple[tuple[int, int], int], ...], ...]:
    """All factorizations of the index pair (M, N) into powers of distinct
    pairs (m, n) != (1, 1).

    Each factorization is a tuple of ((m, n), r) parts, pairs strictly
    increasing lexicographically, with prod(m**r) == M and prod(n**r) == N.
    Either coordinate of a base pair may be 1, but not both.  (M, N) must
    differ from (1, 1).
    """
    if (M, N) == (1, 1):
        raise ValueError("pair_factorizations requires (M, N) != (1, 1)")
    return tuple(tuple(f) for f in _factorizations((M, N), (1, 1)))


def _factorizations(index: tuple, least: tuple) -> list:
    """Factorizations of an index tuple into powers of distinct base tuples,
    each above `least` lexicographically and none all ones, bases
    increasing."""
    one = (1,) * len(index)
    results = []
    for base in product(*map(divisors, index)):
        if base <= least or base == one:
            continue
        rest, r = tuple(i // b for i, b in zip(index, base)), 1
        while True:
            if rest == one:
                results.append([(base, r)])
            else:
                for tail in _factorizations(rest, base):
                    results.append([(base, r)] + tail)
            if all(i % b == 0 for i, b in zip(rest, base)):
                rest = tuple(i // b for i, b in zip(rest, base))
                r += 1
            else:
                break
    return results
