"""Exact combinatorial kernels in integer arithmetic.

Three families: the Z(d, u, y) sums with their closed product form, the
residue coefficients A_{j, nu} (two independent evaluation routes plus the
normalized ratio bounds A'' <= 1 and A'' < 2^nu), and the generalized
divisor function d_m(q) = m^omega(q) with its mean-value inequality.
Only divisor_mean_check reads an array, the blocks of the squarefree
sieve, so it alone imports numpy and `primes`; the Z and A kernels are
pure integer work and load neither.
Each Z and A route is one integer numerator kernel over a factorial
denominator: the defining sums add their terms by Horner's rule, each term
moved from the last by exact integer ratios, and the closed forms are one
perm.  The public functions build one Fraction from their kernel; the
identity scans compare the integer numerators and build none.  These are
exact identities, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, inf, isfinite, log, perm

from .errors import CapacityError, DomainError

# Largest x of divisor_mean_check, a bound on its time: its sieve holds one
# block of primes._OMEGA_BLOCK integers at a time, whatever x.  On a 2-core
# Xeon VM, divisor_mean_check(10**8, 2) took 3.0-3.1 s, at 2.5 MiB traced.
MAX_DIVISOR_MEAN_X = 10**8

# Grid points of one identity scan, each 2-5 microseconds of integer
# kernels on a 2-core Xeon VM: bound 25 of Z_identity_scan has 26 026
# (0.09-0.10 s), bound 12 of coeff_identity_scan 261 443 (0.42-0.57 s).
MAX_SCAN_POINTS = 5 * 10**5


@dataclass(frozen=True)
class SuitableTriplet:
    """Parameters (d, u, y) with d >= 0, u >= 0, y + u >= 0."""

    d: int
    u: int
    y: int

    def __post_init__(self):
        if self.d < 0 or self.u < 0 or self.y + self.u < 0:
            raise DomainError(f"triplet ({self.d},{self.u},{self.y}) not suitable")


def _rising(d: int, m: int) -> int:
    """d (d+1) ... (d+m-1), which is 1 at m = 0 and 0 at d = 0 < m."""
    return perm(d + m - 1, m) if m else 1


def _z_sum_num(d: int, u: int, y: int) -> int:
    """Numerator of Z_sum over u! (y+u)!: the sum over m >= max(0, -y) of
    C(u, m) (-1)^m d(d+1)...(d+m-1) (y+m+1)...(y+u), by Horner in m.

    The term moves from m-1 to m by the exact ratio -(u-m+1)(d+m-1)/m:
    C(u, m-1)(u-m+1) is divisible by m.
    """
    m0 = max(0, -y)
    term = comb(u, m0) * _rising(d, m0)
    acc = term = -term if m0 & 1 else term
    for m in range(m0 + 1, u + 1):
        term = -term * (u - m + 1) // m * (d + m - 1)
        acc = acc * (y + m) + term
    return acc


def _coeff_sum_num(j: int, d: int, u: int, y: int) -> int:
    """The sum over max(0, -y) <= m <= u-j of
    C(u, m+j) (-1)^m C(m+j, j) d(d+1)...(d+m-1) (y+m+1)...(y+u-j),
    by Horner in m.  With k = m+j, each factor of the term moves from m-1
    to m by its own exact ratio: C(u, k) = C(u, k-1)(u-k+1)/k,
    C(k, j) = C(k-1, j) k/m, and the signed rising factorial by -(d+m-1).
    """
    m0 = max(0, -y)
    term = comb(u, m0 + j) * comb(m0 + j, j) * _rising(d, m0)
    acc = term = -term if m0 & 1 else term
    for m in range(m0 + 1, u - j + 1):
        k = m + j
        term = -term * (u - k + 1) // k * k // m * (d + m - 1)
        acc = acc * (y + m) + term
    return acc


def _closed_num(c: int, u: int) -> int:
    """The product (c+1)(c+2)...(c+u), from one perm."""
    if c >= 0:
        return perm(c + u, u)
    if c + u >= 0:  # one factor is 0
        return 0
    return (-1) ** u * perm(-c - 1, u)


def Z_sum(t: SuitableTriplet) -> Fraction:
    """Defining sum of Z(d, u, y), term by term.

    Z = (1/u!) sum_{m=0}^{u} C(u, m) (-1)^m d(d+1)...(d+m-1) / (y+m)!,
    where terms with (y+m) < 0 are dropped (the 1/n! = 0 convention for
    negative n).  Each term is put over (y+u)!, so 1/(y+m)! becomes the
    integer (y+m+1)...(y+u); the numerators add as integers and one
    Fraction is built at the end.
    """
    return Fraction(_z_sum_num(t.d, t.u, t.y), factorial(t.u) * factorial(t.y + t.u))


def Z_closed(t: SuitableTriplet) -> Fraction:
    """Closed form (y-d+1)(y-d+2)...(y-d+u) / (u! (y+u)!)."""
    return Fraction(_closed_num(t.y - t.d, t.u), factorial(t.u) * factorial(t.y + t.u))


def _check_scan(bound: int, points: int) -> None:
    """Refuse a negative grid bound, whose empty grid would pass vacuously,
    and a grid of more than MAX_SCAN_POINTS points."""
    if bound < 0:
        raise DomainError(f"grid bound {bound} is negative")
    if points > MAX_SCAN_POINTS:
        raise CapacityError(f"{points} grid points exceed guard {MAX_SCAN_POINTS}")


def Z_identity_scan(bound: int) -> tuple[int, list]:
    """Z_sum against Z_closed on 0 <= d, u <= bound, -u <= y <= bound.

    Both share the denominator u! (y+u)!, so the scan compares the two
    integer numerators.  Returns the number of triplets checked and each
    mismatching (d, u, y).  The (b+1)^2 (3b+2)/2 triplets of bound b are
    counted before any work.
    """
    _check_scan(bound, (bound + 1) ** 2 * (3 * bound + 2) // 2)
    checked, bad = 0, []
    for d in range(bound + 1):
        for u in range(bound + 1):
            for y in range(-u, bound + 1):
                checked += 1
                if _z_sum_num(d, u, y) != _closed_num(y - d, u):
                    bad.append((d, u, y))
    return checked, bad


def _check_coeff_domain(j: int, nu: int, d: int, u: int, v: int) -> None:
    if d < 0 or u < 0 or v < 0:
        raise DomainError("d, u, v must be non-negative")
    if not 0 <= j <= u:
        raise DomainError(f"j={j} outside [0, {u}]")
    if not 0 <= nu <= v + d + u - j:
        raise DomainError(f"nu={nu} outside [0, {v + d + u - j}]")


def coeff_A_closed(j: int, nu: int, d: int, u: int, v: int) -> Fraction:
    """A_{j,nu} via the closed form Z(d, u-j, v+d-nu):
    (v-nu+1)...(v-nu+u-j) / ((u-j)! top!) with top = v + d - nu + u - j."""
    _check_coeff_domain(j, nu, d, u, v)
    return Fraction(_closed_num(v - nu, u - j), factorial(u - j) * factorial(v + d - nu + u - j))


def coeff_A_sum(j: int, nu: int, d: int, u: int, v: int) -> Fraction:
    """A_{j,nu} via its defining sum:

    (j! nu! / u!) sum_{m=0, m>=-y}^{u-j}
        C(u, m+j) (-1)^m C(m+j, j) d(d+1)...(d+m-1) / ((v+d+m-nu)! nu!)
    with y = v + d - nu.  The nu! of every term cancels the prefactor's;
    each term is then put over top! with top = y + u - j, so
    1/(y+m)! becomes the integer (y+m+1)...top, and the numerators add
    as integers into one Fraction.
    """
    _check_coeff_domain(j, nu, d, u, v)
    y = v + d - nu
    return Fraction(_coeff_sum_num(j, d, u, y) * factorial(j), factorial(u) * factorial(y + u - j))


def coeff_identity_scan(bound: int) -> list:
    """coeff_A_sum against coeff_A_closed on 0 <= d, u, v <= bound and every
    admissible (j, nu); returns each mismatching (j, nu, d, u, v).

    coeff_A_sum is total j! / (u! top!) and coeff_A_closed is
    closed / ((u-j)! top!), so the two agree exactly when the integers
    total and closed C(u, j) do.  Each (d, u, v) has
    sum_{t <= u} (v + d + t + 1) points; over the grid, with n = b + 1,
    S1 = sum of 0..b and S2 = sum of their squares, that is
    (S1 + n)(2 n S1 + n^2) + n^2 (S1 + S2)/2, counted before any work.
    """
    n, s1, s2 = bound + 1, bound * (bound + 1) // 2, bound * (bound + 1) * (2 * bound + 1) // 6
    _check_scan(bound, (s1 + n) * (2 * n * s1 + n * n) + n * n * (s1 + s2) // 2)
    bad = []
    for d in range(bound + 1):
        for u in range(bound + 1):
            for v in range(bound + 1):
                for j in range(u + 1):
                    binom = comb(u, j)
                    for nu in range(v + d + u - j + 1):
                        total = _coeff_sum_num(j, d, u, v + d - nu)
                        if total != _closed_num(v - nu, u - j) * binom:
                            bad.append((j, nu, d, u, v))
    return bad


def _double_prime_terms(j: int, nu: int, u: int, v: int) -> tuple[int, int]:
    """A''_{j,nu} as the integers |(v-nu+1)...(v-nu+u-j)| and (v+1)...(v+u-j)."""
    num = 1
    den = 1
    for i in range(1, u - j + 1):
        num *= v - nu + i
        den *= v + i
    return abs(num), den


def coeff_ratio_check(d: int, u: int, v: int) -> dict:
    """Exact scan of A''_{j,nu} over all admissible (j, nu).

    Checks A'' <= 1 whenever nu <= 2(v+1), and A'' < 2^nu for nu > 2(v+1)
    (where the bound's derivation needs u <= v).  Returns the violations
    and the largest observed A'' * 2^{-nu}.  Every comparison
    cross-multiplies integers; a Fraction is built only for the reported
    values.
    """
    if d < 0 or u < 0 or v < 0:
        raise DomainError("d, u, v must be non-negative")
    if u > v:
        raise DomainError("ratio bound requires u <= v")
    violations = []
    best_num, best_den = 0, 1  # the largest A'' 2^{-nu}, unreduced
    for j in range(u + 1):
        for nu in range(v + d + u - j + 1):
            num, den = _double_prime_terms(j, nu, u, v)
            if num * best_den > best_num * (den << nu):
                best_num, best_den = num, den << nu
            if (num > den) if nu <= 2 * (v + 1) else (num >= den << nu):
                violations.append({"j": j, "nu": nu, "value": str(Fraction(num, den))})
    return {
        "check": "coeff_ratio",
        "grid": {"d": d, "u": u, "v": v},
        "violations": violations,
        "max_ratio": str(Fraction(best_num, best_den)),
    }


def divisor_mean_check(x: int, m: int) -> dict:
    """Exact sum_{q <= x squarefree} d_m(q) against the bound x(1+log x)^ceil(m),
    which must be a finite float."""
    if x < 1:
        raise DomainError("x must be >= 1")
    if x > MAX_DIVISOR_MEAN_X:
        raise CapacityError(f"x={x} exceeds guard {MAX_DIVISOR_MEAN_X}")
    if m < 1:
        raise DomainError("m must be >= 1")
    import numpy as np

    from .primes import squarefree_omega

    power = ceil(m)
    try:
        rhs = x * (1.0 + log(x)) ** power
    except OverflowError:
        rhs = inf
    if not isfinite(rhs):
        raise CapacityError(f"bound x(1 + log x)^{power} at x={x} overflows a float")
    lhs = 0
    for _, omega in squarefree_omega(x):
        lhs += sum(c * m**w for w, c in enumerate(np.bincount(omega).tolist()))
    return {
        "check": "divisor_mean",
        "grid": {"x": x, "m": m},
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs,
        "violations": [] if lhs <= rhs else [{"x": x, "m": m}],
        "max_ratio": str(Fraction(lhs) / Fraction(rhs)),
    }
