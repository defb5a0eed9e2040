"""Prime generation and Chebyshev-theta statistics.

A segmented, odd-only sieve produces immutable prime tables.  Each table is
one array, uint32 when its window ends below 2**32 and int64 above, so a
table takes 4 bytes per prime wherever it can.  Readers of a uint32 table
cast before they form x - p or p * p, which would wrap, and keep Python ints
of 2**32 or more out of its arithmetic, where numpy raises OverflowError.
A table is allocated once at a proven upper bound on the number of primes in
its window (prime_count_bound) and trimmed in place; a bound over
MAX_TABLE_BYTES is refused before any work.  A window ending below 2**8 is
copied from integers._TINY_PRIMES, the primes there by trial division,
without a sieve.  Otherwise one flag buffer serves every
segment: it is filled from a wheel pattern for 3*5*7*11*13, then struck by
the base primes above 13, slices of one shared int64 table.  On top of the
tables sit theta(x), theta(x; q, a), the progression error E(x; q, a), its
running maximum E*(X, q) and residues, the remainders of a table mod q by
division by an invariant integer.  Every float sum in the library goes through
exact_sum, the correctly rounded sum (== math.fsum) in a few numpy passes
per block, so results are exactly rounded and independent of segmentation
and order.  Euler phi (from integers.factorize) and the one squarefree sieve
live here too; the sieve yields the squarefree q <= x and omega(q) in blocks
of _OMEGA_BLOCK integers and lists no prime past sqrt(x).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from math import gcd

import numpy as np

from .errors import CapacityError, DomainError
from .integers import _TINY_HI, _TINY_PRIMES, factorize

# Segment length in sieve entries (odd numbers).  Each segment makes one
# Python pass over the base primes below an eighth of its length, so fewer
# segments cost less, while its flags should stay in cache: on a 2-core Xeon
# VM (2 MiB L2 per core), primes_upto(2.01e8) took 0.34-0.44 s in 96 segments
# of 2**20 (1 MiB of flags), 0.47 s with 2**19, 0.44-0.46 s with 2**21 and
# 0.54-0.62 s with 2**18 or 2**22.
SEGMENT_SIZE = 1 << 20

# Ceiling on hi.  It keeps the base primes at or below 2**20 and every
# product the sieve forms (p*p, m*p) far inside int64; memory is bounded by
# MAX_TABLE_BYTES, not by this.
MAX_SIEVE_HI = 1 << 40

# Ceiling on the bytes of one prime table, itemsize * prime_count_bound(lo, hi).
# primes_upto(10**9) needs about 243 MB and sieve_range(10**9 + 1, 2 * 10**9)
# about 386 MB.  Every uint32 window fits (primes_upto(2**32 - 1) needs about
# 972 MB); primes_upto(2**32), an int64 table, needs 1.9 GB and
# primes_upto(10**12) 363 GB.
MAX_TABLE_BYTES = 1 << 30

# The wheel: flags of odd numbers prime to 3*5*7*11*13 repeat every 15015
# odd numbers, so a segment is filled from one pattern instead of struck by
# these five primes.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = 3 * 5 * 7 * 11 * 13

# Entries per block of exact_sum, which holds two float64 buffers of one
# block.  Over the 49 sums of a gpy-moments pass (2.3 M entries) on a 2-core
# Xeon VM (2 MiB L2 per core), best of 15: 14.2 ms in blocks of 2**14,
# 13.2 ms with 2**15, 13.0 ms with 2**16 and 20.8 ms with 2**17.  Smaller
# blocks cost more Python rounds; at 2**17 the buffers and the block read
# no longer fit in L2.
SUM_BLOCK = 1 << 16

# Integers per block of squarefree_omega, which holds a product (int32
# below 2**31), an omega and a flag per integer of the block, and the index
# of each squarefree q in it: with the last block's q and omega, which its
# caller may still hold, about 20 bytes per integer, 2.4 MiB.  On a 2-core
# Xeon VM, best of 9, divisor_mean_check(999 679, 3) took 34 ms in blocks of
# 2**15, 14 ms with 2**16, 11.5 ms with 2**17 and 10.6 ms with 2**18, which
# holds twice the memory; each block makes 3 numpy calls per prime <= sqrt(x).
_OMEGA_BLOCK = 1 << 17


@dataclass(frozen=True)
class PrimeTable:
    """All primes in [lo, hi], strictly increasing, immutable.

    sieve_range makes `primes` uint32 when hi < 2**32 and int64 otherwise.
    On uint32, x - p wraps where p > x and p * p wraps where p >= 2**16, so
    a reader casts to int64 (or float64) first; a Python int >= 2**32 in
    uint32 arithmetic raises OverflowError, so such an operand is kept out
    (theta_progression and ap_error_star take p % q = p where q > x).
    """

    lo: int
    hi: int
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.primes.setflags(write=False)

    def __len__(self):
        return int(self.primes.size)

    def __iter__(self):
        return iter(self.primes.tolist())


def prime_count_bound(lo: int, hi: int) -> int:
    """An upper bound on the number of primes in [lo, hi], for 0 <= lo <= hi.

    The least of three proven bounds: the odd numbers in [lo, hi] plus one
    (for 2); pi(x) < 1.25506 x / log x for x > 1 (Rosser and Schoenfeld,
    1962); and, for lo >= 2, pi(x + y) - pi(x) < 2y / log y for x > 0, y > 1
    (Montgomery and Vaughan, 1973), with x = lo - 1 and y = hi - lo + 1.
    int(b) + 1 exceeds each real bound b, rounding included.
    """
    if hi < 2:
        return 0
    odd = (hi + 1) // 2 - lo // 2
    bound = 1.25506 * hi / math.log(hi)
    y = hi - lo + 1
    if lo >= 2 and y > 1:
        bound = min(bound, 2 * y / math.log(y))
    return min(odd + 1, int(bound) + 1)


def sieve_range(lo: int, hi: int) -> PrimeTable:
    """Exact primes in [lo, hi] via a segmented odd-only sieve.

    The table is one array of prime_count_bound(lo, hi) entries, uint32 if
    hi < 2**32 and int64 otherwise, written once per prime and trimmed in
    place; a window whose bound exceeds MAX_TABLE_BYTES raises CapacityError
    before anything is allocated.
    """
    if lo < 0:
        raise DomainError(f"lo must be non-negative, got {lo}")
    if hi < lo:
        raise DomainError(f"empty range: hi={hi} < lo={lo}")
    if hi > MAX_SIEVE_HI:
        raise CapacityError(f"hi={hi} exceeds supported ceiling {MAX_SIEVE_HI}")
    size = prime_count_bound(lo, hi)
    dtype = np.dtype(np.uint32 if hi < 1 << 32 else np.int64)
    if dtype.itemsize * size > MAX_TABLE_BYTES:
        raise CapacityError(
            f"[{lo}, {hi}] may hold {size} primes, {dtype.itemsize * size} bytes "
            f"over guard {MAX_TABLE_BYTES}"
        )
    if hi < _TINY_HI:
        i, j = bisect_left(_TINY_PRIMES, lo), bisect_right(_TINY_PRIMES, hi)
        return PrimeTable(lo, hi, np.array(_TINY_PRIMES[i:j], dtype=dtype))
    out = np.empty(size, dtype=dtype)
    n = 0
    if lo <= 2 <= hi:
        out[0] = 2
        n = 1
    start = max(lo, 3) | 1
    if start <= hi:
        n = _sieve_odd(out, n, start, hi, _odd_base(math.isqrt(hi)))
    # No view of out outlives _sieve_odd, so out can shrink in place.
    out.resize(n, refcheck=False)
    return PrimeTable(lo, hi, out)


def _sieve_odd(out: np.ndarray, n: int, start: int, hi: int, odd_base: np.ndarray) -> int:
    """Write the primes of the odd numbers start, start + 2, ..., <= hi into
    out[n:], ascending, and return the new fill.

    Entry i of a segment starting at odd s represents s + 2i.  One buffer
    serves every segment: one broadcast copy tiles it with the wheel for
    3*5*7*11*13, the segment's flags are its slice from the segment's phase
    on, and each base prime p > 13 strikes its odd multiples from
    max(p^2, s) on.
    """
    total = (hi - start) // 2 + 1
    seg = min(SEGMENT_SIZE, total)
    # wheel[i] flags the odd number start + 2i: False where a wheel prime
    # divides it, i.e. where (start - 1)/2 + i = (p - 1)/2 (mod p).  It holds
    # one period, or the whole window if that is shorter.
    wheel = np.ones(min(total, _WHEEL_PERIOD), dtype=bool)
    for p in _WHEEL_PRIMES:
        wheel[((p - 1) // 2 - (start - 1) // 2) % p :: p] = False
    # Whole wheels: a segment, one slot past it to take the strikes that fall
    # beyond it, and up to one wheel before it for the segment's phase.
    tiles = np.empty((-(-(seg + 1) // wheel.size) + 1) * wheel.size, dtype=bool)
    squares = odd_base * odd_base
    done = 0
    while done < total:
        count = min(seg, total - done)
        s = start + 2 * done
        end = s + 2 * (count - 1)
        # Entry i is wheel[(done + i) % wheel.size].
        tiles.reshape(-1, wheel.size)[:] = wheel
        flags = tiles[done % wheel.size :]
        ps = odd_base[: int(squares.searchsorted(end, side="right"))]
        if ps.size:
            # First odd multiple m*p >= max(p^2, s), as an entry offset.
            m = np.maximum(ps, (s + ps - 1) // ps | 1)
            off = (m * ps - s) >> 1
            # Odd multiples of p lie 2p apart, so p strikes ceil((count - off)/p)
            # entries: at most 8 once p >= ceil(count/8) (not floor: 17 strikes
            # 9 of [345, 629]'s 143 entries), at most 1 once p >= count.
            few = int(ps.searchsorted(-(-count // 8)))
            one = int(ps.searchsorted(count))
            for p, o in zip(ps[:few].tolist(), off[:few].tolist()):
                flags[o:count:p] = False
            if one > few:
                hits = off[few:one, None] + ps[few:one, None] * np.arange(8)
                flags[np.minimum(hits, count).ravel()] = False
            if one < ps.size:
                flags[np.minimum(off[one:], count)] = False
        if s <= _WHEEL_PRIMES[-1]:
            # The wheel struck its own primes, and 1 is not prime.
            for p in _WHEEL_PRIMES:
                if s <= p <= end:
                    flags[(p - s) // 2] = True
            if s == 1:
                flags[0] = False
        idx = flags[:count].nonzero()[0]
        dst = out[n : n + idx.size]  # never short: size is a proven bound
        # 2 * idx <= hi - s, so a uint32 out takes it exactly.
        np.multiply(idx, 2, out=dst, casting="unsafe")
        dst += s
        n += idx.size
        done += count
        del idx  # before the next segment's indices are allocated
    return n


# The base primes above the wheel, in (13, _base[0]], as int64: the strike
# arithmetic (p * p, m * p, s + p - 1) needs int64 operands.  One table
# serves every sieve call.  It grows on demand to the isqrt(hi) a call needs,
# at least doubling, and never past isqrt(MAX_SIEVE_HI) = 2**20 (82 025
# primes, 656 KB).  Each (top, table) pair is bound whole, so racing threads
# can at worst sieve it twice.
_base = (_WHEEL_PRIMES[-1], np.empty(0, dtype=np.int64))


def _odd_base(x: int) -> np.ndarray:
    """The primes in (13, x], int64, a view of the shared base table."""
    global _base
    top, ps = _base
    if x > top:
        top = min(max(x, 2 * top), math.isqrt(MAX_SIEVE_HI))
        # Its own base primes go up to isqrt(top) < top, so the recursion ends.
        ps = sieve_range(_WHEEL_PRIMES[-1] + 1, top).primes.astype(np.int64)
        ps.setflags(write=False)
        _base = (top, ps)
    return ps[: int(ps.searchsorted(x, side="right"))]


def primes_upto(x: int) -> PrimeTable:
    return sieve_range(0, max(x, 0))


def exact_sum(*arrays: np.ndarray | list[float] | Iterator) -> float:
    """The correctly rounded sum of every entry of every array, == to
    math.fsum over all their entries.  An argument may also be an iterator
    of arrays, such as a generator of a window's chunks: its arrays are
    summed as they come, and none is held once its blocks are done.

    Error-free extraction (Rump, Ogita and Oishi, Accurate floating-point
    summation, part I, SIAM J. Sci. Comput. 31, 2008), one block of
    n <= SUM_BLOCK entries at a time.  With |r| < 2**e over the block,
    n < 2**s and sigma = 2**(e + s), q = (sigma + r) - sigma and r - q are
    exact; every q is a multiple of 2**-53 sigma and sum |q| < sigma, so
    q.sum() is exact in any order.  The remainders r - q are at most
    2**(e + s - 53); they go round again, with e taken from their largest,
    until they are all zero.  A round cap or a subnormal sigma leaves the
    nonzero ones as they are.  One math.fsum over the level sums and those
    remainders rounds the exact total once.  A non-finite entry, or a sigma
    that would overflow, sends the rest of the sum to math.fsum, after the
    parts so far, which are exactly the sum of the blocks before it: its
    value or exception stays the same.  A block costs about 20 us of numpy
    calls whatever its size, so many small arrays are best concatenated
    first.
    """
    flat = map(
        lambda a: np.asarray(a, dtype=np.float64).ravel(),
        chain.from_iterable(a if isinstance(a, Iterator) else (a,) for a in arrays),
    )
    parts = []
    q = r = np.empty(0)
    for a in flat:
        if q.size < min(a.size, SUM_BLOCK):
            q, r = np.empty(min(a.size, SUM_BLOCK)), np.empty(min(a.size, SUM_BLOCK))
        for lo in range(0, a.size, SUM_BLOCK):
            x = a[lo : lo + SUM_BLOCK]
            n = x.size
            s = n.bit_length()
            qb, rb = q[:n], r[:n]
            top = float(np.abs(x, out=qb).max())
            e = math.frexp(top)[1]  # top < 2**e
            if not top < math.inf or e + s > 1023:
                return math.fsum(chain(parts, a[lo:], chain.from_iterable(flat)))
            # Each round takes at least 53 - s bits off the largest remainder.
            # The sums of a gpy-moments and a progressions pass take 2 rounds
            # in 121 of their 125 blocks and at most 5; the cap bounds the
            # passes over a block whose exponents spread wider than that.
            for _ in range(8):
                sigma = math.ldexp(1.0, e + s)
                np.add(x, sigma, out=qb)
                qb -= sigma
                np.subtract(x, qb, out=rb)
                parts.append(float(qb.sum()))
                x = rb
                top = float(np.abs(rb, out=qb).max())
                e = math.frexp(top)[1]
                if top == 0.0 or e + s < -1022:
                    break
            if top != 0.0:
                parts.extend(rb[rb != 0.0].tolist())
        del a  # before the next array is made
    return math.fsum(parts)


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
    # Where q > x, p % q = p, and q may not fit the table's dtype.
    p = p[residues(p, q) == a] if q <= x else p[p == a]
    return exact_sum(np.log(p))


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
    p), or at the endpoint x = X; all three families are scanned.  One stable
    sort groups the primes <= X by residue, so each class is visited once,
    ascending and equal element for element to p[p % q == a], and nothing of
    length q is allocated.  Every coprime class that holds no prime gives the
    same |E(X; q, a)| = X / phi(q).
    """
    if q < 1:
        raise DomainError("modulus q must be >= 1")
    if X < 2:
        raise DomainError("X must be >= 2")
    table = _table_for(X, table)
    phi_q = _phi(q)
    p = _primes_le(table, X)  # never empty: it holds 2
    # Where q > X, p % q = p, and q may not fit the table's dtype.
    r = residues(p, q) if q <= X else p
    if q <= 1 << 16:
        # A stable sort has one result whatever the key dtype; numpy's is a
        # radix sort on 16-bit keys, about 4x faster here than on int64.
        r = r.astype(np.uint16)
    order = np.argsort(r, kind="stable")
    r, p = r[order], p[order]
    # Where each residue present starts, then the end of the last one.
    bounds = np.flatnonzero(np.r_[True, r[1:] != r[:-1], True])
    coprime = np.flatnonzero(np.gcd(r[bounds[:-1]].astype(np.int64), q) == 1)
    del r, order  # before the per-class arrays are allocated
    best = X / phi_q if coprime.size < phi_q else 0.0
    for i in coprime.tolist():
        pa = p[bounds[i] : bounds[i + 1]]
        logs = np.log(pa)
        cum = np.cumsum(logs)
        after = np.abs(cum - pa / phi_q)
        before = np.abs((cum - logs) - pa / phi_q)
        endpoint = abs(float(cum[-1]) - X / phi_q)
        best = max(best, float(after.max()), float(before.max()), endpoint)
    return best


def _phi(q: int) -> int:
    result = q
    for p in factorize(q):
        result -= result // p
    return result


def squarefree_omega(x: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The squarefree q in [1, x], ascending, and omega(q), by sieving, in
    blocks: for each run of _OMEGA_BLOCK consecutive integers (the last one
    shorter), the int64 array of its squarefree q and the int8 array of
    their omega(q).

    Each prime p <= sqrt(x) marks its multiples in the block by slicing:
    omega += 1, and a running product of the distinct primes <= sqrt(x)
    that divide q is multiplied by p; p clears the squarefree flags at the
    multiples of p^2.  A squarefree q is that product times 1 or times one
    prime above sqrt(x), as two of those would exceed x, so omega(q) gains
    1 exactly where the product differs from q.  No prime past sqrt(x) is
    listed.  The product divides q, so it is int32 wherever x < 2**31.
    """
    small = primes_upto(math.isqrt(x)).primes.tolist()
    squares = [p * p for p in small]
    dtype = np.int32 if x < 1 << 31 else np.int64
    for lo in range(1, x + 1, _OMEGA_BLOCK):
        hi = min(lo + _OMEGA_BLOCK, x + 1)
        omega = np.zeros(hi - lo, dtype=np.int8)
        prod = np.ones(hi - lo, dtype=dtype)
        squarefree = np.ones(hi - lo, dtype=bool)
        for p, pp in zip(small, squares):
            omega[-lo % p :: p] += 1
            prod[-lo % p :: p] *= p
            squarefree[-lo % pp :: pp] = False
        q = np.flatnonzero(squarefree)
        omega, prod = omega[q], prod[q]
        q += lo
        omega += prod != q
        yield q, omega


def _table_for(x: int, table: PrimeTable | None) -> PrimeTable:
    if table is None:
        return primes_upto(x)
    if table.lo > 0 or table.hi < x:
        raise DomainError(f"prime table [{table.lo}, {table.hi}] does not cover [0, {x}]")
    return table


def _primes_le(table: PrimeTable, x: int) -> np.ndarray:
    return table.primes[: int(np.searchsorted(table.primes, x, side="right"))]


def residues(p: np.ndarray, q: int, out: np.ndarray | None = None) -> np.ndarray:
    """p % q for a non-negative integer array p and 1 <= q that fits p's
    dtype, in p's dtype or written into out (say an np.intp buffer of
    p.size, which np.bincount reads without a cast copy).

    numpy's floor_divide by a scalar divides by an invariant integer with a
    multiply and a shift (Granlund and Montgomery, PLDI 1994), where its %
    divides in hardware per entry; p - (p // q) * q is the same remainder.
    """
    q = p.dtype.type(q)
    t = np.floor_divide(p, q)
    t *= q
    return np.subtract(p, t, out=t if out is None else out)

