"""Small-integer arithmetic with no numpy: factorisation, which also decides
primality, and the primes up to a small bound.

factorize trial-divides, with no prime table.  The primes below _TINY_HI
are one tuple, made once at import by trial division; small_primes reads
its list off that tuple and decides each m from _TINY_HI on by factorize,
so it needs no sieve at any bound.  The shift-set arithmetic of `tuples`
(primality of a modulus, admissibility, primorials, |A(H)|) and the prime
windows of `primes` below _TINY_HI read their primes here.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import CapacityError, DomainError

# factorize trial-divides by 2 and the odd numbers up to sqrt(n); this bound
# keeps that to about 5 * 10**5 odd divisors: 47-65 ms for a prime just
# below it on a 2-core Xeon VM.
MAX_FACTOR_N = 10**12

# The primes below _TINY_HI, by trial division, made once at import.  Sieving
# a window of them costs 14-25 us of numpy calls, and a gpy-moments pass asks
# for about 580 (primorial, is_admissible, the mask primes at R = 9-108).
# 2**8 covers every V <= tuples.MAX_V and |H| <= 43.  The tuple never grows.
_TINY_HI = 1 << 8
_TINY_PRIMES = tuple(
    n for n in range(2, _TINY_HI) if all(n % p for p in range(2, math.isqrt(n) + 1))
)


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of 1 <= n <= MAX_FACTOR_N, primes ascending.

    Trial division by 2 and then the odd numbers d while d * d <= n, with no
    prime table: a composite d never divides, as its prime factors are gone
    by then.  What is left over after them is 1 or a single prime."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if n > MAX_FACTOR_N:
        raise CapacityError(f"n={n} exceeds factorisation bound {MAX_FACTOR_N}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def small_primes(x: int) -> list[int]:
    """The primes <= x, ascending: those below _TINY_HI read off
    _TINY_PRIMES, and each m in [_TINY_HI, x] kept where factorize(m) is
    {m: 1}.  Meant for small x, such as a tuple's size or V: past _TINY_HI
    each m costs a trial division up to sqrt(m)."""
    out = list(_TINY_PRIMES[: bisect_right(_TINY_PRIMES, x)])
    out.extend(m for m in range(_TINY_HI, x + 1) if factorize(m) == {m: 1})
    return out
