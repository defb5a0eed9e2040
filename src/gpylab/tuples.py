"""Shift-set (tuple) arithmetic.

A tuple here is a finite set of distinct non-negative integer shifts
H = {h_1 < ... < h_K}.  The quantities this module computes all describe
how the polynomial P_H(n) = prod (n + h) sits inside residue classes:
nu_p counts occupied classes mod p, the discriminant controls which primes
see the tuple generically, and the regular classes mod P = prod_{p<=V} p
are the residues a with gcd(P, P_H(a)) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes as prime_engine
from .errors import CapacityError, DomainError

# P = primorial(V) overflows useful exact ranges quickly; V = 43 gives
# P = 13082761331670030 which still fits comfortably in 64 bits.
MAX_V = 43

# regular_classes materializes the class list; cap its size.
MAX_CLASS_MEMBERS = 10**7


@dataclass(frozen=True)
class TupleH:
    """Strictly increasing set of distinct non-negative shifts."""

    shifts: tuple[int, ...]

    def __post_init__(self):
        s = tuple(int(h) for h in self.shifts)
        if len(s) < 1:
            raise DomainError("tuple must have at least one shift")
        if any(h < 0 for h in s):
            raise DomainError(f"negative shift in {s}")
        if len(set(s)) != len(s):
            raise DomainError(f"duplicate shifts in {s}")
        object.__setattr__(self, "shifts", tuple(sorted(s)))

    @property
    def size(self) -> int:
        return len(self.shifts)

    def __contains__(self, h: int) -> bool:
        return h in self.shifts

    def union(self, other: "TupleH | int") -> "TupleH":
        extra = other.shifts if isinstance(other, TupleH) else (int(other),)
        return TupleH(tuple(set(self.shifts) | set(extra)))


def _require_prime(p: int) -> None:
    """Refuse p unless it is prime.  factorize decides, so p above
    MAX_FACTOR_N raises CapacityError; p < 2 is refused first, so that the
    message names p rather than factorize's domain."""
    if p < 2 or prime_engine.factorize(p) != {p: 1}:
        raise DomainError(f"{p} is not prime")


def nu_p(H: TupleH, p: int) -> int:
    """Number of distinct residue classes mod p occupied by H."""
    _require_prime(p)
    return len({h % p for h in H.shifts})


def is_admissible(H: TupleH) -> bool:
    """True iff nu_p(H) < p for every prime; only p <= |H| can fail."""
    return all(nu_p(H, p) < p for p in prime_engine.primes_upto(H.size))


def discriminant(H: TupleH) -> int:
    """|prod_{i<j} (h_i - h_j)| exactly; 1 for singletons (empty product)."""
    s = H.shifts
    delta = 1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            delta *= s[j] - s[i]
    return abs(delta)


def nu_bar_p(H1: TupleH, H2: TupleH, p: int) -> int:
    """|H1(p) ∩ H2(p)|, the classes mod p that both H1 and H2 occupy."""
    _require_prime(p)
    return len({h % p for h in H1.shifts} & {h % p for h in H2.shifts})


def nu_star_p(G: TupleH, h0: int, p: int) -> int:
    """nu_p(G ∪ {h0}) - 1: classes left after pinning the h0 class."""
    _require_prime(p)
    if h0 < 0:
        raise DomainError("h0 must be non-negative")
    return len({h % p for h in G.shifts} | {h0 % p}) - 1


def primorial(V: int) -> int:
    """Product of primes <= V."""
    if V < 2:
        raise DomainError("V must be >= 2")
    if V > MAX_V:
        raise CapacityError(f"V={V} exceeds exact-product ceiling {MAX_V}")
    return math.prod(prime_engine.primes_upto(V))


def regular_class_count(H: TupleH, V: int) -> int:
    """|A(H)| = prod_{p<=V} (p - nu_p(H)), exactly."""
    if V < 2:
        raise DomainError("V must be >= 2")
    if V > MAX_V:
        raise CapacityError(f"V={V} exceeds exact-product ceiling {MAX_V}")
    return math.prod(p - nu_p(H, p) for p in prime_engine.primes_upto(V))


def bezout(a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = gcd(a, u) and s in [0, u) with s a = g (mod u), elementwise, as
    int64 arrays, for integer arrays a >= 0 and 1 <= u < 2^52 (s is 0
    where u = 1 or u | a).

    One extended Euclidean pass over the whole array, in floats of p
    significant bits: float32 (p = 24) where u < 2^22, float64 (p = 53)
    where u < 2^52, so the float32 pass, which holds half the bytes, serves
    every divisor pair of pair_sum_divisor.  The remainders stay in [0, u)
    and the coefficients of a within [-u, u], so every value and product
    is an integer of magnitude at most 2u < 2^(p - 1), and the quotient
    floor(r0 / r1) of r0 < 2^p is exact.  No step branches per pair: a
    pair that is done has r1 = 0, is divided by 2^60 instead and so only
    swaps its two rows.  A pair that takes n steps has u >= F(n + 2), F
    the Fibonacci numbers (Lame), so the steps stop at that bound for the
    largest u, O(log u).
    """
    u = np.asarray(u, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64) % u
    u_max = int(u.max(initial=1))
    if u_max >= 2**52:
        raise CapacityError(f"modulus {u_max} reaches 2^52: float64 Euclid is exact below it")
    steps, fib, nxt = 0, 2, 3
    while fib <= u_max:
        steps, fib, nxt = steps + 1, nxt, fib + nxt
    dtype = np.float32 if u_max < 2**22 else np.float64
    # r0 = s0 a and r1 = s1 a (mod u); Euclid runs on (r0, r1).
    r0, r1 = u.astype(dtype), a.astype(dtype)
    del a
    s0, s1 = np.zeros_like(r1), np.ones_like(r1)
    quot, tmp = np.empty_like(r1), np.empty_like(r1)
    for _ in range(steps):
        np.multiply(r1 == 0, dtype(2.0**60), out=quot)
        quot += r1
        np.divide(r0, quot, out=quot)
        np.floor(quot, out=quot)
        r0 -= np.multiply(quot, r1, out=tmp)
        s0 -= np.multiply(quot, s1, out=tmp)
        r0, r1, s0, s1 = r1, r0, s1, s0
    # One remainder of each pair is 0 and the other g, with its coefficient.
    r0 += r1
    s1 = np.where(r1 == 0, s0, s1).astype(np.int64)
    s1 %= u
    return r0.astype(np.int64), s1


def inverse_mod(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a^{-1} mod u elementwise, in [0, u), for int64 arrays with every
    gcd(a, u) = 1 (an inverse mod 1 is 0): the coefficient of bezout,
    checked a inv = 1 (mod u), which needs u^2 < 2^63.
    """
    u = np.asarray(u, dtype=np.int64)
    u_max = int(u.max(initial=1))
    if u_max * u_max >= 2**63:
        raise CapacityError(f"modulus {u_max} squared does not fit in int64")
    a = np.asarray(a, dtype=np.int64) % u
    inv = bezout(a, u)[1]
    assert (a * inv % u == 1 % u).all(), "inverse_mod needs gcd(a, u) = 1"
    return inv


def crt_lift(a: np.ndarray, m, r: np.ndarray, q, inv) -> np.ndarray:
    """The classes a mod m crossed with the residues r mod q, gcd(m, q) = 1,
    given inv = m^{-1} mod q in [0, q): a + m ((r - a) inv mod q), the class
    mod m q that is a mod m and r mod q, elementwise over the broadcast of
    the int64 arrays or ints a, m, r, q and inv.

    a lies in [0, m) and r in [0, q), so |r - a| < max(m, q) and inv < q:
    every int64 product stays below max(m, q) q, which must fit for each
    pair (m, q) broadcast together; a lift is refused whole if one does not.
    That bound is smallest when m is the larger modulus, so a caller passes
    its larger modulus as m.  The caller brings the inverses, as one pow
    for a single modulus or one inverse_mod pass for many.
    """
    m, q = np.asarray(m, dtype=np.int64), np.asarray(q, dtype=np.int64)
    over = np.maximum(m, q) > (2**63 - 1) // q
    if over.any():
        i = np.unravel_index(np.argmax(over), over.shape)
        m, q = np.broadcast_to(m, over.shape)[i], np.broadcast_to(q, over.shape)[i]
        raise CapacityError(f"lifted modulus {m}*{q} does not fit in int64")
    lift = np.subtract(r, a, dtype=np.int64)
    lift *= inv
    lift %= q
    lift *= m
    lift += a
    return lift


def regular_classes(H: TupleH, V: int) -> np.ndarray:
    """A(H) = {a in [1, P] : gcd(P, P_H(a)) = 1}, P = primorial(V), as an
    ascending read-only int64 array.

    Built as the classes b = a - 1 in [0, P), one prime at a time in mixed
    radix, so the cost is O(|A(H)|) rather than O(P): the classes mod m p are
    b = x + m t for the classes x mod m and t in [0, p), kept where b + 1 + h
    is prime to p for every h.  One % per class x gives x mod p, and row t
    bans the x whose residue is one of nu_p(H) residues: a uint8 comparison
    each, with no % per class b.  With t outer and x ascending the classes
    come out ascending, with no sort.  Every prime but the last is crossed
    in one pass; the last writes its rows t one by one into the result, so
    nothing else as large is held.
    """
    P = primorial(V)
    expected = regular_class_count(H, V)
    if expected > MAX_CLASS_MEMBERS:
        raise CapacityError(
            f"|A(H)| = {expected} exceeds materialization cap {MAX_CLASS_MEMBERS}"
        )
    ps = prime_engine.primes_upto(V).primes.tolist()
    # The classes before the last prime lie below P / ps[-1]: int32 where
    # that fits, which halves what the last prime's rows hold.
    x, m = np.zeros(1, dtype=np.int32 if P // ps[-1] < 2**31 else np.int64), 1
    for p in ps:
        # Row t: b = x + m t is banned mod p where x = r - m t (mod p) for a
        # banned residue r = -1 - h of b.
        banned = np.array(sorted({(-1 - h) % p for h in H.shifts}))
        moved = ((banned[:, None] - (m % p) * np.arange(p)) % p).astype(np.uint8)
        x_mod = prime_engine.residues(x, p).astype(np.uint8)
        if p < ps[-1]:
            keep = np.ones((p, x.size), dtype=bool)
            for r in moved:
                keep &= x_mod != r[:, None]
            x = (x + np.arange(p, dtype=x.dtype)[:, None] * m)[keep]
        else:
            out = np.empty(expected, dtype=np.int64)
            n = 0
            for t, rs in enumerate(moved.T):
                keep = x_mod != rs[0]
                for r in rs[1:]:
                    keep &= x_mod != r
                row = out[n : n + np.count_nonzero(keep)]
                row[:] = x[keep]
                row += m * t
                n += row.size
            assert n == expected
            x = out
        m *= p
    x += 1
    x.setflags(write=False)
    return x


def parse_tuple_line(line: str) -> TupleH:
    """One comma-separated shift list; '#' starts a comment."""
    body = line.split("#", 1)[0].strip()
    if not body:
        raise DomainError("empty tuple line")
    parts = [s.strip() for s in body.split(",")]
    try:
        shifts = [int(s) for s in parts]
    except ValueError as exc:
        raise DomainError(f"bad tuple entry in {line!r}") from exc
    return TupleH(tuple(shifts))
