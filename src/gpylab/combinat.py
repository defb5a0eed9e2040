"""Exact combinatorial kernels in rational arithmetic.

Three families: the Z(d, u, y) sums with their closed product form, the
residue coefficients A_{j, nu} (two independent evaluation routes plus the
normalized ratio bounds A'' <= 1 and A'' < 2^nu), and the generalized
divisor function d_m(q) = m^omega(q) with its mean-value inequality.
Everything runs in Fraction arithmetic: these are exact identities, not
approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, log

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SuitableTriplet:
    """Parameters (d, u, y) with d >= 0, u >= 0, y + u >= 0."""

    d: int
    u: int
    y: int

    def __post_init__(self):
        if self.d < 0 or self.u < 0 or self.y + self.u < 0:
            raise DomainError(f"triplet ({self.d},{self.u},{self.y}) not suitable")


@lru_cache(maxsize=4096)
def _fact(n: int) -> int:
    return factorial(n)


def _rising(d: int, m: int) -> int:
    """d (d+1) ... (d+m-1); empty product is 1."""
    out = 1
    for i in range(m):
        out *= d + i
    return out


def Z_sum(t: SuitableTriplet) -> Fraction:
    """Defining sum of Z(d, u, y), term by term.

    Z = (1/u!) sum_{m=0}^{u} C(u, m) (-1)^m d(d+1)...(d+m-1) / (y+m)!,
    where terms with (y+m) < 0 are dropped (the 1/n! = 0 convention for
    negative n).
    """
    d, u, y = t.d, t.u, t.y
    total = Fraction(0)
    for m in range(u + 1):
        if y + m < 0:
            continue
        term = Fraction(comb(u, m) * (-1) ** m * _rising(d, m), _fact(y + m))
        total += term
    return total / _fact(u)


def Z_closed(t: SuitableTriplet) -> Fraction:
    """Closed form (y-d+1)(y-d+2)...(y-d+u) / (u! (y+u)!)."""
    d, u, y = t.d, t.u, t.y
    num = 1
    for i in range(1, u + 1):
        num *= y - d + i
    return Fraction(num, _fact(u) * _fact(y + u))


def Z_identity_scan(bound: int) -> tuple[int, list]:
    """Z_sum against Z_closed on 0 <= d, u <= bound, -u <= y <= bound.

    Returns the number of triplets checked and each mismatching (d, u, y).
    """
    checked, bad = 0, []
    for d in range(bound + 1):
        for u in range(bound + 1):
            for y in range(-u, bound + 1):
                t = SuitableTriplet(d, u, y)
                checked += 1
                if Z_sum(t) != Z_closed(t):
                    bad.append((d, u, y))
    return checked, bad


def Z_induction_check(t: SuitableTriplet) -> bool:
    """Z(d, u, y) = ((y + 1 - d)/u) Z(d, u-1, y+1) for u >= 1, exactly."""
    if t.u < 1:
        raise DomainError("induction relation needs u >= 1")
    lhs = Z_sum(t)
    rhs = Fraction(t.y + 1 - t.d, t.u) * Z_sum(SuitableTriplet(t.d, t.u - 1, t.y + 1))
    return lhs == rhs


def _check_coeff_domain(j: int, nu: int, d: int, u: int, v: int) -> None:
    if d < 0 or u < 0 or v < 0:
        raise DomainError("d, u, v must be non-negative")
    if not 0 <= j <= u:
        raise DomainError(f"j={j} outside [0, {u}]")
    if not 0 <= nu <= v + d + u - j:
        raise DomainError(f"nu={nu} outside [0, {v + d + u - j}]")


def coeff_A_closed(j: int, nu: int, d: int, u: int, v: int) -> Fraction:
    """A_{j,nu} via the closed form Z(d, u-j, v+d-nu)."""
    _check_coeff_domain(j, nu, d, u, v)
    return Z_closed(SuitableTriplet(d, u - j, v + d - nu))


def coeff_A_sum(j: int, nu: int, d: int, u: int, v: int) -> Fraction:
    """A_{j,nu} via its defining sum:

    (j! nu! / u!) sum_{m=0, m>=-y}^{u-j}
        C(u, m+j) (-1)^m C(m+j, j) d(d+1)...(d+m-1) / ((v+d+m-nu)! nu!)
    with y = v + d - nu.
    """
    _check_coeff_domain(j, nu, d, u, v)
    y = v + d - nu
    total = Fraction(0)
    for m in range(max(0, -y), u - j + 1):
        term = Fraction(
            comb(u, m + j) * (-1) ** m * comb(m + j, j) * _rising(d, m),
            _fact(v + d + m - nu) * _fact(nu),
        )
        total += term
    return total * Fraction(_fact(j) * _fact(nu), _fact(u))


def coeff_identity_scan(bound: int) -> list:
    """coeff_A_sum against coeff_A_closed on 0 <= d, u, v <= bound and every
    admissible (j, nu); returns each mismatching (j, nu, d, u, v)."""
    bad = []
    for d in range(bound + 1):
        for u in range(bound + 1):
            for v in range(bound + 1):
                for j in range(u + 1):
                    for nu in range(v + d + u - j + 1):
                        if coeff_A_sum(j, nu, d, u, v) != coeff_A_closed(j, nu, d, u, v):
                            bad.append((j, nu, d, u, v))
    return bad


def coeff_A_double_prime(j: int, nu: int, u: int, v: int) -> Fraction:
    """A''_{j,nu} = |(v-nu+1)...(v-nu+u-j)| / ((v+1)...(v+u-j))."""
    num = 1
    den = 1
    for i in range(1, u - j + 1):
        num *= v - nu + i
        den *= v + i
    return Fraction(abs(num), den)


def coeff_ratio_check(d: int, u: int, v: int) -> dict:
    """Exact scan of A''_{j,nu} over all admissible (j, nu).

    Checks A'' <= 1 whenever nu <= 2(v+1), and A'' < 2^nu for nu > 2(v+1)
    (where the bound's derivation needs u <= v).  Returns the violations
    and the largest observed A'' * 2^{-nu}.
    """
    if d < 0 or u < 0 or v < 0:
        raise DomainError("d, u, v must be non-negative")
    if u > v:
        raise DomainError("ratio bound requires u <= v")
    violations = []
    max_ratio = Fraction(0)
    for j in range(u + 1):
        for nu in range(v + d + u - j + 1):
            app = coeff_A_double_prime(j, nu, u, v)
            scaled = app / 2**nu
            max_ratio = max(max_ratio, scaled)
            if nu <= 2 * (v + 1):
                if app > 1:
                    violations.append({"j": j, "nu": nu, "value": str(app)})
            elif app >= 2**nu:
                violations.append({"j": j, "nu": nu, "value": str(app)})
    return {
        "check": "coeff_ratio",
        "grid": {"d": d, "u": u, "v": v},
        "violations": violations,
        "max_ratio": str(max_ratio),
    }


def _squarefree_omega(x: int) -> tuple[np.ndarray, np.ndarray]:
    """For q in [1, x]: squarefree flags and omega(q), by sieving."""
    omega = np.zeros(x + 1, dtype=np.int8)
    squarefree = np.ones(x + 1, dtype=bool)
    squarefree[0] = False
    for p in range(2, x + 1):
        if omega[p] == 0:  # p is prime (untouched so far)
            omega[p::p] += 1
            if p <= isqrt(x):
                squarefree[p * p :: p * p] = False
    return squarefree, omega


def divisor_mean_check(x: int, m: int) -> dict:
    """Exact sum_{q <= x squarefree} d_m(q) against the bound x(1+log x)^ceil(m)."""
    if x < 1:
        raise DomainError("x must be >= 1")
    if x > 10**7:
        raise DomainError("x limited to 10^7")
    if m < 1:
        raise DomainError("m must be >= 1")
    squarefree, omega = _squarefree_omega(x)
    counts = np.bincount(omega[squarefree].astype(np.int64))
    lhs = sum(int(c) * m**w for w, c in enumerate(counts.tolist()))
    rhs = x * (1.0 + log(x)) ** int(np.ceil(m))
    return {
        "check": "divisor_mean",
        "grid": {"x": x, "m": m},
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs,
        "violations": [] if lhs <= rhs else [{"x": x, "m": m}],
        "max_ratio": str(Fraction(lhs) / Fraction(rhs)),
    }
