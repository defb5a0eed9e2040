"""Prime generation and Chebyshev-theta statistics.

A segmented, odd-only sieve produces immutable prime tables; on top of those
sit theta(x), theta(x; q, a), the progression error E(x; q, a) and its
running maximum E*(X, q).  All log-sums go through ``math.fsum`` so results
are exactly rounded and independent of segmentation.  The small-integer
arithmetic the other modules need (primality, factorisation, Euler phi)
lives here too.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import CapacityError, DomainError

# Segment length in sieve entries.  Each segment makes one Python pass over
# the base primes below its length, so fewer segments cost less: on a 2-core
# Xeon VM (2 MiB L2 per core), primes_upto(2e8) took 0.61-0.75 s in 96
# segments of 2**20 (1 MiB of flags), 1.11-1.40 s in 381 segments of 2**18,
# and 0.77-1.1 s with 2**21 or 2**22.
SEGMENT_SIZE = 1 << 20

# Practical ceiling: a full table above this would not fit desk-scale memory.
MAX_SIEVE_HI = 1 << 40

# factorize trial-divides by the sieved primes up to sqrt(n); this bound
# keeps that table at 78498 primes.
MAX_FACTOR_N = 10**12

# Miller-Rabin with the first 13 prime bases is exact below this bound, the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_IS_PRIME_N = 3317044064679887385961981


@dataclass(frozen=True)
class PrimeTable:
    """All primes in [lo, hi], strictly increasing, immutable."""

    lo: int
    hi: int
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.primes.setflags(write=False)

    def __len__(self):
        return int(self.primes.size)

    def __iter__(self):
        return iter(self.primes.tolist())

    def __contains__(self, n: int) -> bool:
        i = int(np.searchsorted(self.primes, n))
        return i < self.primes.size and int(self.primes[i]) == n


def sieve_range(lo: int, hi: int) -> PrimeTable:
    """Exact primes in [lo, hi] via a segmented odd-only sieve."""
    if lo < 0:
        raise DomainError(f"lo must be non-negative, got {lo}")
    if hi < lo:
        raise DomainError(f"empty range: hi={hi} < lo={lo}")
    if hi > MAX_SIEVE_HI:
        raise CapacityError(f"hi={hi} exceeds supported ceiling {MAX_SIEVE_HI}")
    if hi < 2:
        return PrimeTable(lo, hi, np.empty(0, dtype=np.int64))

    # The base primes come from this sieve; isqrt(hi) < hi, so the recursion
    # ends at the hi < 2 case above.
    base = sieve_range(0, math.isqrt(hi)).primes
    chunks = []
    if lo <= 2 <= hi:
        chunks.append(np.array([2], dtype=np.int64))

    # Odd-only segments: entry i of a segment starting at odd `start`
    # represents start + 2*i.
    start = max(lo, 3)
    if start % 2 == 0:
        start += 1
    odd_base = base[base > 2]
    while start <= hi:
        count = min(SEGMENT_SIZE, (hi - start) // 2 + 1)
        flags = np.ones(count, dtype=bool)
        end = start + 2 * (count - 1)
        split = int(np.searchsorted(odd_base, count))
        for p in odd_base[:split].tolist():
            if p * p > end:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            if first % 2 == 0:
                first += p
            if first > end:
                continue
            flags[(first - start) // 2 :: p] = False
        # Odd multiples of p lie 2p apart and the segment spans 2*(count-1),
        # so each p >= count strikes at most one entry: all in one step.
        big = odd_base[split:]
        big = big[big * big <= end]
        first = np.maximum(big * big, (start + big - 1) // big * big)
        first += np.where(first % 2 == 0, big, 0)
        flags[(first[first <= end] - start) // 2] = False
        if start == 1:
            flags[0] = False
        chunks.append(start + 2 * np.flatnonzero(flags).astype(np.int64))
        start = end + 2

    primes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return PrimeTable(lo, hi, primes)


def primes_upto(x: int) -> PrimeTable:
    return sieve_range(0, max(x, 0))


def theta_sum(x: int, table: PrimeTable | None = None) -> float:
    """Chebyshev theta(x) = sum of log p over primes p <= x."""
    return theta_progression(x, 1, 0, table)


def theta_progression(x: int, q: int, a: int, table: PrimeTable | None = None) -> float:
    """theta(x; q, a) = sum of log p over primes p <= x with p = a (mod q)."""
    if q < 1:
        raise DomainError("modulus q must be >= 1")
    if not 0 <= a < q:
        raise DomainError(f"residue a={a} outside [0, {q})")
    if x < 0:
        raise DomainError("x must be non-negative")
    table = _table_for(x, table)
    p = _primes_le(table, x)
    p = p[p % q == a]
    return math.fsum(np.log(p)) if p.size else 0.0


def ap_error(x: int, q: int, a: int, table: PrimeTable | None = None) -> float:
    """E(x; q, a) = theta(x; q, a) - [gcd(a, q) = 1] * x / phi(q)."""
    t = theta_progression(x, q, a, table)
    if gcd(a if a else q, q) == 1:
        return t - x / _phi(q)
    return t


def ap_error_star(X: int, q: int, table: PrimeTable | None = None) -> float:
    """E*(X, q): max over real x <= X and residues a coprime to q of |E(x; q, a)|.

    theta(x; q, a) is a step function, so |E| attains its supremum either at a
    prime jump p (value after the jump) or as x -> p from below (theta without
    p), or at the endpoint x = X; all three families are scanned.
    """
    if q < 1:
        raise DomainError("modulus q must be >= 1")
    if X < 2:
        raise DomainError("X must be >= 2")
    table = _table_for(X, table)
    phi_q = _phi(q)
    best = 0.0
    for pa in coprime_classes(_primes_le(table, X), q):
        if pa.size:
            logs = np.log(pa)
            cum = np.cumsum(logs)
            after = np.abs(cum - pa / phi_q)
            before = np.abs((cum - logs) - pa / phi_q)
            endpoint = abs(cum[-1] - X / phi_q)
            best = max(best, float(after.max()), float(before.max()), endpoint)
        else:
            best = max(best, X / phi_q)
    return best


def coprime_classes(p: np.ndarray, q: int) -> Iterator[np.ndarray]:
    """Yield the primes of p in each residue class a mod q with gcd(a, q) = 1
    that holds one, in increasing a; then one empty array if any such class
    holds none.

    p must be ascending. One stable sort groups p by residue, so each class
    comes out ascending and equal element for element to p[p % q == a].
    Empty classes are not visited one by one: all of them give a caller the
    same value, so one empty array stands for them.
    """
    if p.size == 0:
        yield p  # every class coprime to q is empty
        return
    r = p % q
    if q <= 1 << 16:
        # A stable sort has one result whatever the key dtype; numpy's is a
        # radix sort on 16-bit keys, about 4x faster here than on int64.
        r = r.astype(np.uint16)
    order = np.argsort(r, kind="stable")
    r = r[order]
    grouped = p[order]
    # Where each residue present starts, then the end of the last one.
    bounds = np.flatnonzero(np.r_[True, r[1:] != r[:-1], True])
    coprime = np.flatnonzero(np.gcd(r[bounds[:-1]].astype(np.int64), q) == 1)
    del r, order  # a generator frame would keep them alive through the loop
    for i in coprime.tolist():
        yield grouped[bounds[i] : bounds[i + 1]]
    if coprime.size < _phi(q):
        yield p[:0]


def _prime_divisors(q: int) -> list[int]:
    """The distinct primes dividing q, ascending, by trial division."""
    out = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _phi(q: int) -> int:
    result = q
    for p in _prime_divisors(q):
        result -= result // p
    return result


def _table_for(x: int, table: PrimeTable | None) -> PrimeTable:
    if table is None:
        return primes_upto(x)
    if table.lo > 0 or table.hi < x:
        raise DomainError(f"prime table [{table.lo}, {table.hi}] does not cover [0, {x}]")
    return table


def _primes_le(table: PrimeTable, x: int) -> np.ndarray:
    return table.primes[: int(np.searchsorted(table.primes, x, side="right"))]


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MAX_IS_PRIME_N (Miller-Rabin)."""
    if n >= MAX_IS_PRIME_N:
        raise CapacityError(f"n={n} exceeds primality bound {MAX_IS_PRIME_N}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43^2 has a prime factor below 43
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of 1 <= n <= MAX_FACTOR_N, primes ascending.

    Trial division by the sieved primes up to sqrt(n); what is left over
    after them is 1 or a single prime."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if n > MAX_FACTOR_N:
        raise CapacityError(f"n={n} exceeds factorisation bound {MAX_FACTOR_N}")
    out = {}
    for p in primes_upto(math.isqrt(n)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = 1
    return out
