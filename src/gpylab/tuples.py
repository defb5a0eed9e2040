"""Shift-set (tuple) arithmetic.

A tuple here is a finite set of distinct non-negative integer shifts
H = {h_1 < ... < h_K}.  The quantities this module computes all describe
how the polynomial P_H(n) = prod (n + h) sits inside residue classes:
nu_p counts occupied classes mod p, the discriminant controls which primes
see the tuple generically, and the regular classes mod P = prod_{p<=V} p
are the residues a with gcd(P, P_H(a)) = 1.

Only regular_classes builds an array, and it alone imports numpy and the
sieve of `primes`; everything else here is integer arithmetic on the small
primes of `integers`, so a caller that builds no class list loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError, DomainError
from .integers import factorize, small_primes

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
        for h, v in zip(self.shifts, s):
            if v != h:
                raise DomainError(f"non-integral shift {h!r}")
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
        extra = other.shifts if isinstance(other, TupleH) else (other,)
        return TupleH(tuple(set(self.shifts) | set(extra)))


def _require_prime(p: int) -> None:
    """Refuse p unless it is prime.  factorize decides, so p above
    MAX_FACTOR_N raises CapacityError; p < 2 is refused first, so that the
    message names p rather than factorize's domain."""
    if p < 2 or factorize(p) != {p: 1}:
        raise DomainError(f"{p} is not prime")


def nu_p(H: TupleH, p: int) -> int:
    """Number of distinct residue classes mod p occupied by H."""
    _require_prime(p)
    return len({h % p for h in H.shifts})


def is_admissible(H: TupleH) -> bool:
    """True iff nu_p(H) < p for every prime; only p <= |H| can fail."""
    return all(nu_p(H, p) < p for p in small_primes(H.size))


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
    return math.prod(small_primes(V))


def regular_class_count(H: TupleH, V: int) -> int:
    """|A(H)| = prod_{p<=V} (p - nu_p(H)), exactly."""
    if V < 2:
        raise DomainError("V must be >= 2")
    if V > MAX_V:
        raise CapacityError(f"V={V} exceeds exact-product ceiling {MAX_V}")
    return math.prod(p - nu_p(H, p) for p in small_primes(V))


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
    import numpy as np

    from . import primes as prime_engine

    P = primorial(V)
    expected = regular_class_count(H, V)
    if expected > MAX_CLASS_MEMBERS:
        raise CapacityError(
            f"|A(H)| = {expected} exceeds materialization cap {MAX_CLASS_MEMBERS}"
        )
    ps = small_primes(V)
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
