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


def inverse_mod(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a^{-1} mod u elementwise, in [0, u), for int64 arrays with every
    gcd(a, u) = 1 (an inverse mod 1 is 0).

    One extended Euclidean pass over the whole array: each step divides
    the pairs not yet done, so the number of steps is that of the slowest
    pair, O(log u).  The remainders stay in [0, u) and the coefficients
    of a within (-u, u], so nothing leaves int64; the check a inv = 1
    (mod u) needs u^2 < 2^63.
    """
    u = np.asarray(u, dtype=np.int64)
    u_max = int(u.max(initial=1))
    if u_max * u_max >= 2**63:
        raise CapacityError(f"modulus {u_max} squared does not fit in int64")
    a = np.asarray(a, dtype=np.int64) % u
    # r0 = s0 a and r1 = s1 a (mod u); Euclid runs on (r0, r1).
    r0, r1 = u, a
    s0, s1 = np.zeros_like(a), np.ones_like(a)
    while r1.any():
        live = r1 != 0
        quot = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - quot * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - quot * s1, 0)
    inv = s0 % u
    assert (a * inv % u == 1 % u).all(), "inverse_mod needs gcd(a, u) = 1"
    return inv


def crt_lift(x: np.ndarray, m: int, res: np.ndarray, q: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Classes x mod m crossed with each residue res[j] mod q[j], gcd(m, q[j]) = 1,
    given inv[j] = m^{-1} mod q[j] in [0, q[j]).

    x = a (mod m), x = r (mod q) -> x = a + m * ((r - a) * inv mod q);
    returns the (len(res), len(x)) array whose row j holds x lifted by
    res[j] mod m*q[j].  Classes lie in [0, m) and residues in [0, q[j]), so
    |r - a| < max(m, q) and inv < q: every int64 product stays below
    max(m, q) * q, which must fit.  That bound is smallest when m is the
    larger modulus, so a caller passes its larger modulus as m.  The caller
    brings the inverses, as one pow for a single modulus or one inverse_mod
    pass for many.  numpy runs fastest along the inner axis, so where res is
    the longer the lift is computed as (len(x), len(res)) and returned
    transposed.
    """
    # An empty res lifts to no classes.
    q_max = int(q.max(initial=1))
    if max(m, q_max) * q_max >= 2**63:
        raise CapacityError(f"lifted modulus {m}*{q_max} does not fit in int64")
    outer = res.size > x.size
    if outer:
        a, b = x[:, None], res
    else:
        a, b, inv, q = x, res[:, None], inv[:, None], q[:, None]
    lift = np.subtract(b, a, dtype=np.int64)
    lift *= inv
    lift %= q
    lift *= m
    lift += a
    return lift.T if outer else lift


def crt_product(residues: list, moduli: list) -> np.ndarray:
    """The classes c in [0, prod(moduli)) with c mod moduli[i] in residues[i]
    for every i, the moduli pairwise coprime: one crt_lift per modulus, each
    based on the product of the moduli before it, with one pow for its
    inverse."""
    x, m = np.zeros(1, dtype=np.int64), 1
    for r, q in zip(residues, moduli):
        x = crt_lift(x, m, r, np.full(r.size, q), np.full(r.size, pow(m % q, -1, q))).ravel()
        m *= q
    return x


def regular_classes(H: TupleH, V: int) -> np.ndarray:
    """A(H) = {a in [1, P] : gcd(P, P_H(a)) = 1}, P = primorial(V), as an
    ascending read-only int64 array.

    Built per prime then combined by CRT lifting, so the cost is
    O(|A(H)|) rather than O(P).
    """
    P = primorial(V)
    expected = regular_class_count(H, V)
    if expected > MAX_CLASS_MEMBERS:
        raise CapacityError(
            f"|A(H)| = {expected} exceeds materialization cap {MAX_CLASS_MEMBERS}"
        )
    ps = prime_engine.primes_upto(V).primes.tolist()
    # Residues allowed mod p: those avoiding every -h mod p.
    allowed = []
    for p in ps:
        banned = {(-h) % p for h in H.shifts}
        allowed.append(np.array([r for r in range(p) if r not in banned], dtype=np.int64))
    classes = crt_product(allowed, ps)
    assert classes.size == expected
    # Map representative 0 to P so members sit in [1, P], in place: a copy
    # would double the peak.
    classes[classes == 0] = P
    classes.sort()
    classes.setflags(write=False)
    return classes


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
