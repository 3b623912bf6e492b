"""Integer factorization and the factorization enumerations feeding the
coefficient formulas of the monomial-power expansion.

Everything here is exact integer arithmetic.  The smallest-prime-factor
sieve grows on demand, at least doubling each time, and the list of primes
read off it is the table behind the prime positions of the Bohr lift.  The
table stops at _PRIME_CAP = 2^20 (the 82,025 primes below 1,048,576): a
prime or a prime position beyond it raises ValueError instead of growing
the sieve without bound.  All enumeration functions impose a canonical
ordering on the parts so that results are duplicate-free and deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import product

# factorize sieves up to this bound and trial-divides beyond it
_SIEVE_BOUND = 10**6
# the sieve never grows past this many entries, the power of two above
# _SIEVE_BOUND, so the prime table holds exactly the primes below it
_PRIME_CAP = 1 << 20
# smallest prime factor of every i < len(_spf), and the primes below
# len(_spf) in increasing order: the package's one prime table
_spf: list[int] = []
_primes: list[int] = []


def _ensure_sieve(bound: int) -> None:
    """Grow the sieve to the power of two above bound + 1, so that it at
    least doubles whenever it grows; bound must lie below _PRIME_CAP."""
    global _spf, _primes
    if bound < len(_spf):
        return
    size = min(1 << (bound + 1).bit_length(), _PRIME_CAP)
    spf = list(range(size))
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == p:  # p is prime
            for q in range(p * p, size, p):
                if spf[q] == q:
                    spf[q] = p
    _spf = spf
    _primes = [p for p in range(2, size) if spf[p] == p]


def _prime_at(position: int) -> int:
    """The prime at the given 1-based position."""
    while len(_primes) < position:
        if len(_spf) == _PRIME_CAP:
            raise ValueError("prime position %d is beyond the prime table (the %d primes "
                             "below 2^20)" % (position, len(_primes)))
        _ensure_sieve(len(_spf))
    return _primes[position - 1]


def _prime_position(p: int) -> int:
    """The 1-based position of the prime p; grows the sieve to p, up to _PRIME_CAP."""
    if p >= _PRIME_CAP:
        raise ValueError("prime %d is beyond the prime table (primes below 2^20)" % p)
    _ensure_sieve(p)
    i = bisect_left(_primes, p)
    if i == len(_primes) or _primes[i] != p:
        raise ValueError("%d is not prime" % p)
    return i + 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical prime factorization of n >= 1, primes increasing.

    Returns [] for n == 1.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1, got %r" % (n,))
    if n <= _SIEVE_BOUND:
        _ensure_sieve(n)
    out = []
    m = n
    while m > 1:
        if m < len(_spf):
            p = _spf[m]
        else:
            p = _trial_factor(m)
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    out.sort()
    return out


def _trial_factor(m: int) -> int:
    if m % 2 == 0:
        return 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return f
        f += 2
    return m


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
