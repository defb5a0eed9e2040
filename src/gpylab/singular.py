"""Singular series and tuple-density averages.

The singular series S(H) = prod_p (1 - 1/p)^{-K} (1 - nu_p(H)/p) is the
arithmetic correction factor attached to a K-element shift set.  The product
converges slowly, so values are returned as certified intervals: an exact
truncated product over p <= cutoff plus a rigorous enclosure of the tail.

Also here: the subset averages B_A(k) and S*(k), the z-quasi-prime density
R(H) in exact rationals, and a quasi-monotonicity report for the S*(k)
sequence.  Since S(H + t) = S(H), the average over an interval A sums one
row per shape {0 < d_1 < ... < d_{k-1} <= h - 1}, weighted by its number of
translates inside A; any other A sums every k-subset.  Both give the
correctly rounded sum over all k-subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import primes as prime_engine
from . import tuples as tc
from .errors import CapacityError, DomainError

# Guard for average_B, in ordered subsets C(h, k) k! whatever rows it sums.
MAX_ORDERED_SUBSETS = 10**8

# quasiprime_density needs the full prime list below z only; keep z modest.
MAX_QUASIPRIME_Z = 100

# The histogram fallback in check_monotone counts residues modulo
# Z = primorial(z) = Z1 * Z2 (CRT) from a Z1- and a Z2-row float32 table, one
# column per shift: 4 (Z1 + Z2) bytes per shift, 150 KB at z = 23 (Z1 = 30030,
# Z2 = 7429), so past ~1500 shifts they outgrow a Z-byte table (Z = 223092870).
HISTOGRAM_Z = 23

# Residues mod Z per chunk of the histogram's count matrix.
HISTOGRAM_CHUNK = 1 << 20


@dataclass(frozen=True)
class SingularValue:
    """Certified enclosure [mid - rad, mid + rad] of a truncated Euler product."""

    mid: float
    rad: float
    cutoff: int


def _delta_prime_factors(H: tc.TupleH) -> set:
    """Primes dividing the discriminant, found from the pairwise differences."""
    out = set()
    s = H.shifts
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            out |= set(prime_engine.factorize(s[j] - s[i]))
    return out


def _tail_log_bound(k: int, cutoff: int) -> float:
    """Upper bound on |sum_{p > cutoff} log[(1 - k/p)(1 - 1/p)^{-k}]|.

    Each log-factor expands to -sum_{m >= 2} (k^m - k)/(m p^m); the m >= 2
    terms are dominated by a geometric series, and sum_{p > z} 1/p^2 is
    majorized by the sum over odd integers above z.
    """
    if cutoff <= k:
        raise DomainError(f"cutoff {cutoff} must exceed tuple size {k}")
    per_p2 = (k * k - k) / (2.0 * (1.0 - k / cutoff))
    sum_inv_p2 = 1.0 / (2.0 * cutoff) + 1.0 / (cutoff * cutoff)
    return per_p2 * sum_inv_p2


def _generic_log(k: int, gp: np.ndarray) -> float:
    """sum over the primes gp of log[(1 - k/p)(1 - 1/p)^{-k}], the generic
    Euler factors (nu_p = k)."""
    return prime_engine.exact_sum(np.log1p(-k / gp) - k * np.log1p(-1.0 / gp))


def singular_series(H: tc.TupleH, cutoff: int | None = None) -> SingularValue:
    """S(H) as exact product over p <= cutoff plus certified tail interval.

    Above the cutoff every prime misses the discriminant, so nu_p = |H| and
    each factor is the generic (1 - K/p)(1 - 1/p)^{-K}; the tail enclosure
    is one-sided (generic log-factors are negative).
    """
    K = H.size
    dprimes = _delta_prime_factors(H)
    lpf = max(dprimes, default=2)
    if cutoff is None:
        cutoff = max(10**5, 10 * K * K, lpf)
    if cutoff < 100:
        raise DomainError("cutoff must be at least 100")
    if cutoff < max(K, lpf):
        raise DomainError(
            f"cutoff {cutoff} below largest discriminant prime {lpf} or size {K}"
        )

    table = prime_engine.primes_upto(cutoff)
    ps = table.primes.astype(np.float64)
    pint = table.primes

    # Special primes (p <= K or p | discriminant) get their exact nu_p.
    special = np.isin(pint, np.array(sorted(dprimes), dtype=np.int64)) | (pint <= K)
    special_factor = 1.0
    for p in pint[special].tolist():
        nu = tc.nu_p(H, p)
        if nu == p:
            return SingularValue(0.0, 0.0, cutoff)
        special_factor *= (1.0 - nu / p) * (1.0 - 1.0 / p) ** (-K)

    gp = ps[~special]
    exact = special_factor * math.exp(_generic_log(K, gp))

    # True value lies in [exact * e^{-T}, exact]; add float slack to rad.
    T = _tail_log_bound(K, cutoff)
    lo = exact * math.exp(-T)
    mid = 0.5 * (exact + lo)
    rad = 0.5 * (exact - lo) + abs(mid) * 1e-12
    return SingularValue(mid, rad, cutoff)


def singular_series_extended(H: tc.TupleH, h0: int, cutoff: int | None = None) -> SingularValue:
    """S(H ∪ {h0}); reduces to S(H) when h0 already belongs to H."""
    if h0 < 0:
        raise DomainError("h0 must be non-negative")
    H0 = H.union(h0)
    return singular_series(H0, cutoff)


def _index_rows(n: int, k: int, first: int = 0) -> np.ndarray:
    """The k-subsets of range(first, n) as a (k, C(n - first, k)) array of
    indices, one column per subset in lexicographic order.

    Built from the last position back: the (j + 1)-subsets with smallest
    index f are f above each j-subset of range(f + 1, n), a suffix of the
    j-subsets built before.  So each step writes its output once.
    """
    dtype = np.min_scalar_type(n)
    rows = np.arange(first + k - 1, n, dtype=dtype)[None, :]
    for j in range(1, k):
        s = first + k - 1 - j
        out = np.empty((j + 1, math.comb(n - s, j + 1)), dtype=dtype)
        pos = 0
        for f in range(s, n - j):
            tail = rows[:, rows.shape[1] - math.comb(n - f - 1, j) :]
            out[0, pos : pos + tail.shape[1]] = f
            out[1:, pos : pos + tail.shape[1]] = tail
            pos += tail.shape[1]
        rows = out
    return rows


def _weighted_rows(A: tc.TupleH, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows of k indices into A's shifts (a (k, rows) array) whose weighted
    sum over any translation-invariant f equals the sum of f over all
    k-subsets of A, and the weight of each row (None: every weight is 1).

    S(H + t) = S(H).  So if A is an interval [a, a + h - 1], each shape
    {0 < d_1 < ... < d_{k-1} <= h - 1} stands for its h - d_{k-1}
    translates inside A: C(h - 1, k - 1) rows in place of C(h, k).  Any
    other A gets its C(h, k) subsets, each of weight 1.
    """
    h = A.size
    if A.shifts[-1] - A.shifts[0] != h - 1:
        return _index_rows(h, k), None
    tails = _index_rows(h, k - 1, first=1)
    shapes = np.vstack([np.zeros((1, tails.shape[1]), dtype=tails.dtype), tails])
    return shapes, h - shapes[-1].astype(np.float64)


def _two_product(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact product of integer weights w < 2**26 and floats v:
    hi = fl(w * v) and hi + lo == w * v exactly.

    Veltkamp's split cuts v into two halves of at most 26 bits; w needs no
    split, so each partial product below is exact.
    """
    hi = w * v
    c = 134217729.0 * v  # 2**27 + 1
    v1 = c - (c - v)
    lo = (w * v1 - hi) + w * (v - v1)
    return hi, lo


def _subset_sum(A: tc.TupleH, k: int, cutoff: int) -> tuple[float, float]:
    """Sum of the float S(H) over the k-subsets H of A, correctly rounded,
    and a relative tail bound.

    Each row of _weighted_rows gets its product over the primes up to the
    largest pairwise difference, one prime at a time in increasing p.  The
    residues of A mod p are taken once and gathered by row; nu_p counts the
    entries whose residue no earlier entry of the row has, and the row is
    multiplied by the factor of that nu_p.  So each row's float is the
    product every one of its translates would get.  Above the largest
    difference every subset is generic, contributing one shared constant.
    exact_sum of the exact weight * value pairs (hi, lo) rounds the sum over
    every subset once, whatever the rows.
    """
    idx, weight = _weighted_rows(A, k)
    shifts = np.array(A.shifts, dtype=np.int64)
    pmax = max(A.shifts[-1] - A.shifts[0], k, 2)
    prod = np.ones(idx.shape[1], dtype=np.float64)
    for p in prime_engine.primes_upto(pmax):
        res = (shifts % p).astype(np.min_scalar_type(p))
        r = [res[i] for i in idx]
        nu = np.ones(prod.size, dtype=np.uint8)
        for j in range(1, k):
            unseen = r[j] != r[0]
            for i in range(1, j):
                unseen &= r[j] != r[i]
            nu += unseen
        fac = np.array([(1.0 - v / p) * (1.0 - 1.0 / p) ** (-k) for v in range(k + 1)])
        prod *= fac[nu]

    # Shared generic factor over pmax < p <= cutoff.
    table = prime_engine.primes_upto(cutoff)
    prod *= math.exp(_generic_log(k, table.primes[table.primes > pmax].astype(np.float64)))
    tail_rel = math.exp(_tail_log_bound(k, cutoff)) - 1.0
    if weight is None:
        return prime_engine.exact_sum(prod), tail_rel
    hi, lo = _two_product(weight, prod)
    return prime_engine.exact_sum(hi, lo), tail_rel


def _within_budget(h: int, k: int) -> bool:
    """Whether average_B takes the k-subsets of an h-set: at most
    MAX_ORDERED_SUBSETS ordered ones, C(h, k) k! = perm(h, k)."""
    return math.perm(h, k) <= MAX_ORDERED_SUBSETS


def average_B(A: tc.TupleH, k: int, cutoff: int = 10**5) -> tuple[float, float]:
    """B_A(k): sum of S(H) over ordered k-subsets of A, with certified radius.

    k! times the correctly rounded sum over the unordered k-subsets, taken
    over one weighted row per shape when A is an interval (_weighted_rows).
    MAX_ORDERED_SUBSETS bounds C(h, k) k! either way.
    """
    if not 1 <= k <= A.size:
        raise DomainError(f"k={k} outside [1, {A.size}]")
    if not _within_budget(A.size, k):
        raise CapacityError(
            f"enumeration needs {math.perm(A.size, k)} ordered subsets (budget {MAX_ORDERED_SUBSETS})"
        )
    if k == 1:
        return float(A.size), 0.0
    total, tail_rel = _subset_sum(A, k, cutoff)
    B = math.factorial(k) * total
    rad = abs(B) * (tail_rel + 1e-9)
    return B, rad


def s_star(A: tc.TupleH, k: int, cutoff: int = 10**5) -> float:
    """S*(k) = B_A(k) / h^k with h = |A|."""
    B, _ = average_B(A, k, cutoff)
    return B / A.size**k


def quasiprime_density(H: tc.TupleH, z: int) -> Fraction:
    """R(H) = prod_{p <= z} (1 - nu_p(H)/p), exactly."""
    if z < 2:
        raise DomainError("z must be >= 2")
    if z > MAX_QUASIPRIME_Z:
        raise CapacityError(f"z={z} exceeds supported ceiling {MAX_QUASIPRIME_Z}")
    r = Fraction(1)
    for p in prime_engine.primes_upto(z):
        r *= Fraction(p - tc.nu_p(H, p), p)
    return r


def quasiprime_count(H: tc.TupleH, z: int) -> int:
    """#{1 <= i <= Z : gcd(P_H(i), P(z)) = 1} with Z = primorial(z).

    Direct count, used as the independent oracle for quasiprime_density.
    """
    if z > 13:
        raise CapacityError("direct count limited to z <= 13")
    good = np.ones(tc.primorial(z), dtype=bool)  # index i - 1 represents i
    for p in prime_engine.primes_upto(z).primes.tolist():
        for h in H.shifts:
            good[-(1 + h) % p :: p] = False  # the i with p | i + h
    return int(np.count_nonzero(good))


def _coprime_table(ps: list, shifts) -> np.ndarray:
    """[gcd(i + a, m) = 1] as float32 for m = prod(ps), the residues i mod m
    by rows and the shifts a by columns."""
    table = np.ones((math.prod(ps), len(shifts)), dtype=np.float32)
    for j, a in enumerate(shifts):
        for p in ps:
            table[-a % p :: p, j] = 0  # rows i with p | i + a
    return table


def _s_star_histogram(A: tc.TupleH, k_values, cutoff: int) -> dict:
    """Estimate S*(k) for all requested k via the quasi-prime histogram.

    For z = HISTOGRAM_Z and Z = primorial(z), count the residues i mod Z by
    f_i = #{a in A : i + a coprime to all p <= z}; then the sum over ordered
    k-subsets of R(H) equals Z^{-1} sum_i f_i^{(k)} (falling factorial), and
    each S(H) is approximated by R(H) * Y_z^k * T(k) with
    Y_z = prod_{p<=z}(1-1/p)^{-1} and T(k) the generic continuation of the
    Euler product above z.

    Z = Z1 Z2, with Z2 the product of the largest primes <= z while
    Z2^2 <= Z.  By CRT, i is the pair (i mod Z1, i mod Z2), and i + a is
    coprime to Z when it is coprime to Z1 and to Z2; so f = u v^T for the
    _coprime_table u of Z1 and v of Z2, exact in float32 as |A| < 2^24.

    Every prime above z is treated as generic, so the estimate is exact
    only while no difference of two elements of A has a prime factor
    above z.  For A = [1, h] that holds for h <= 58; from [1, 59] on
    (58 = 2 * 29) it runs low, by 1.42% at S*(5) on [1, 100].
    """
    z = HISTOGRAM_Z
    Z = tc.primorial(z)
    small = list(prime_engine.primes_upto(z))
    ps1, ps2 = small[:], []
    while ps1 and (ps1[-1] * math.prod(ps2)) ** 2 <= Z:
        ps2.append(ps1.pop())
    u, vT = _coprime_table(ps1, A.shifts), _coprime_table(ps2, A.shifts).T

    # hist[f] = #{i mod Z : f_i = f}, from blocks of rows of f = u v^T.
    hist = np.zeros(A.size + 1, dtype=np.int64)
    rows = max(1, HISTOGRAM_CHUNK // vT.shape[1])
    for lo in range(0, len(u), rows):
        f = (u[lo : lo + rows] @ vT).astype(np.intp)
        hist += np.bincount(f.ravel(), minlength=A.size + 1)

    Y_z = 1.0
    for p in small:
        Y_z /= 1.0 - 1.0 / p

    gp = prime_engine.primes_upto(cutoff).primes[len(small) :].astype(np.float64)

    out = {}
    for k in k_values:
        # Exact sum of the falling factorials f^(k); over Z, the ordered-subset sum of R(H).
        r_avg = sum(cnt * math.perm(fv, k) for fv, cnt in enumerate(hist.tolist())) / Z
        out[k] = r_avg * (Y_z**k) * math.exp(_generic_log(k, gp)) / A.size**k
    return out


def check_monotone(
    A: tc.TupleH, k_max: int, cutoff: int = 10**5, floor: float = 0.95
) -> dict:
    """S*(1..k_max) and the minimum consecutive ratio S*(k+1)/S*(k).

    Exact values from average_B (one weighted row per shape on an
    interval, every subset otherwise) wherever it takes k, and the
    quasi-prime histogram estimate where its MAX_ORDERED_SUBSETS budget
    refuses k; the report records which method produced each value.  The
    histogram treats every prime above HISTOGRAM_Z = 23 as generic, so it
    is exact only while no difference in A has a larger prime factor: for
    A = [1, h] up to h = 58, and low from [1, 59] on (1.42% low at S*(5)
    on [1, 100]).
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if k_max > 8:
        raise DomainError("k_max must be <= 8")
    if not math.isfinite(floor):
        raise DomainError(f"floor must be finite, got {floor}")

    values: dict[int, float] = {}
    methods: dict[int, str] = {}
    need_histogram = []
    for k in range(1, k_max + 1):
        if _within_budget(A.size, k):
            values[k] = s_star(A, k, cutoff)
            methods[k] = "exact"
        else:
            need_histogram.append(k)
    if need_histogram:
        est = _s_star_histogram(A, need_histogram, cutoff)
        for k, v in est.items():
            values[k] = v
            methods[k] = "histogram"

    s_values = [values[k] for k in range(1, k_max + 1)]
    ratios = []
    skipped = []
    for k in range(1, k_max):
        if s_values[k - 1] == 0.0:
            skipped.append(k)
            continue
        ratios.append(s_values[k] / s_values[k - 1])
    min_ratio = min(ratios) if ratios else None
    violations = [r for r in ratios if r < floor]
    return {
        "s_star": s_values,
        "methods": [methods[k] for k in range(1, k_max + 1)],
        "ratios": ratios,
        "min_ratio": min_ratio,
        "floor": floor,
        "violations": violations,
        "skipped_zero": skipped,
    }
