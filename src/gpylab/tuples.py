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
from dataclasses import dataclass, field

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
        object.__setattr__(self, "_nu_cache", {})

    @property
    def size(self) -> int:
        return len(self.shifts)

    def __len__(self):
        return len(self.shifts)

    def __iter__(self):
        return iter(self.shifts)

    def __contains__(self, h: int) -> bool:
        return h in self.shifts

    def union(self, other: "TupleH | int") -> "TupleH":
        extra = other.shifts if isinstance(other, TupleH) else (int(other),)
        return TupleH(tuple(set(self.shifts) | set(extra)))


@dataclass(frozen=True)
class ResidueSet:
    """Sorted residues in [1, modulus]."""

    modulus: int
    members: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.members.setflags(write=False)

    def __len__(self):
        return int(self.members.size)

    def __iter__(self):
        return iter(self.members.tolist())


def _require_prime(p: int) -> None:
    if not prime_engine.is_prime(p):
        raise DomainError(f"{p} is not prime")


def nu_p(H: TupleH, p: int) -> int:
    """Number of distinct residue classes mod p occupied by H."""
    cache = H._nu_cache
    if p not in cache:
        _require_prime(p)
        cache[p] = len({h % p for h in H.shifts})
    return cache[p]


def nu_d(H: TupleH, d: int) -> int:
    """nu extended multiplicatively to squarefree d (roots of P_H mod d)."""
    if d < 1:
        raise DomainError("d must be positive")
    if d == 1:
        return 1
    fac = prime_engine.factorize(d)
    if any(e > 1 for e in fac.values()):
        raise DomainError(f"{d} is not squarefree")
    result = 1
    for p in fac:
        result *= nu_p(H, p)
    return result


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
    """|H1(p) ∩ H2(p)| = nu_p(H1) + nu_p(H2) - nu_p(H1 ∪ H2)."""
    _require_prime(p)
    return nu_p(H1, p) + nu_p(H2, p) - nu_p(H1.union(H2), p)


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


def crt_lift(
    x: np.ndarray, m: int, res: np.ndarray, q: int | np.ndarray
) -> tuple[np.ndarray, int | np.ndarray]:
    """Classes x mod m crossed with residues res mod q, gcd(m, q) = 1.

    x = a (mod m), x = r (mod q) -> x = a + m * ((r - a) * m^{-1} mod q);
    returns the len(x) * len(res) lifted classes mod m*q, and m*q.
    Classes lie in [0, m) and residues in [0, q).  The lift is based on the
    larger modulus, so |r - a| < max(m, q) and the inverse is below
    min(m, q): every int64 product stays below m*q, which must fit.

    q may instead be an int64 array aligned with res, each residue with its
    own modulus.  The lift then returns a (len(res), len(x)) array, row j
    holding x lifted by res[j] mod m*q[j], and the array m*q.  It is based
    on m: |r - a| < max(m, q) and the inverse of m is below q, so every
    product stays below max(m, q) * q, which must fit for each element.
    """
    if isinstance(q, np.ndarray):
        q_max = int(q.max())
        if max(m, q_max) * q_max >= 2**63:
            raise CapacityError(f"lifted modulus {m}*{q_max} does not fit in int64")
        # One inverse of m per distinct modulus.
        qs = q.tolist()
        inverse = {u: pow(m % u, -1, u) for u in set(qs)}
        inv = np.array([inverse[u] for u in qs], dtype=np.int64)
        a, b = x[None, :], res[:, None]
        return a + m * ((b - a) * inv[:, None] % q[:, None]), m * q
    if m * q >= 2**63:
        raise CapacityError(f"lifted modulus {m}*{q} does not fit in int64")
    a, b = x[:, None], res[None, :]
    if m < q:
        (a, m), (b, q) = (b, q), (a, m)
    lift = a + m * (((b - a) * pow(m % q, -1, q)) % q)
    return lift.reshape(-1), m * q


def regular_classes(H: TupleH, V: int) -> ResidueSet:
    """A(H) = {a in [1, P] : gcd(P, P_H(a)) = 1}, P = primorial(V).

    Built per prime then combined by CRT lifting, so the cost is
    O(|A(H)|) rather than O(P).
    """
    P = primorial(V)
    expected = regular_class_count(H, V)
    if expected > MAX_CLASS_MEMBERS:
        raise CapacityError(
            f"|A(H)| = {expected} exceeds materialization cap {MAX_CLASS_MEMBERS}"
        )
    if expected == 0:
        return ResidueSet(P, np.empty(0, dtype=np.int64))

    # Residues allowed mod p: those avoiding every -h mod p.
    classes = np.array([0], dtype=np.int64)
    mod = 1
    for p in prime_engine.primes_upto(V):
        banned = {(-h) % p for h in H.shifts}
        allowed = np.array([r for r in range(p) if r not in banned], dtype=np.int64)
        classes, mod = crt_lift(classes, mod, allowed, p)
    assert mod == P and classes.size == expected
    # Map representative 0 to P so members sit in [1, P].
    classes = np.where(classes == 0, P, classes)
    classes.sort()
    return ResidueSet(P, classes)


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
    if len(set(shifts)) != len(shifts):
        raise DomainError(f"duplicate shifts in {line!r}")
    return TupleH(tuple(shifts))


def read_tuple_file(path) -> list[TupleH]:
    """Tuple file: UTF-8, one tuple per line, '#' comments, blank lines ok."""
    tuples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            body = raw.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                tuples.append(parse_tuple_line(body))
            except DomainError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
    return tuples


def write_tuple_file(path, tuples, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for H in tuples:
            fh.write(",".join(str(h) for h in H.shifts) + "\n")
