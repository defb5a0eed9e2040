"""Singular series and tuple-density averages.

The singular series S(H) = prod_p (1 - 1/p)^{-K} (1 - nu_p(H)/p) is the
arithmetic correction factor attached to a K-element shift set.  The product
converges slowly, so values are returned as certified intervals: an exact
truncated product over p <= cutoff plus a rigorous enclosure of the tail.

Also here: the subset averages B_A(k) and S*(k), the z-quasi-prime density
R(H) in exact rationals, and a quasi-monotonicity report for the S*(k)
sequence.  Both S*(k) routes read one row generator.  For k >= 2 a subset
with both parities has nu_2 = 2, a zero factor, so only the subsets of
each parity half are rows.  Since S(H + t) = S(H), a half that is an
arithmetic progression sums one row per shape {0 < i_1 < ... < i_{k-1}},
weighted by its number of translates inside the half; any other half sums
its k-subsets.  The exact route gives the correctly rounded sum of the
float S(H) over all k-subsets; the z = 23 estimate sums the integers
prod_{p<=23} (p - nu_p(H)) exactly over the same rows.
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

# The estimate in check_monotone (reported as "histogram") treats the
# primes above z = HISTOGRAM_Z as generic.
HISTOGRAM_Z = 23

# Rows the estimate may sum: 2 C(28, 7) = 2.37 M for k = 8 on [1, 58], the
# largest interval it is exact on, and 2 C(49, 5) = 3.81 M for k = 6 on
# [1, 100]; k = 7 there needs 2 C(49, 6) = 28 M.
MAX_ESTIMATE_ROWS = 1 << 22


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


def _index_rows(n: int, k: int, first: int = 0):
    """Yield the k-subsets of range(first, n) as (k, rows) arrays of indices,
    one column per subset in lexicographic order, in chunks by smallest index
    (the 1-subsets in one chunk; no subsets, one empty chunk).

    The (j + 1)-subsets with smallest index f are f above each j-subset of
    range(f + 1, n), a suffix of the j-subsets built before.  So the
    (k - 1)-subsets of range(first + 1, n) are built once, from the last
    position back, and each chunk is one suffix of them under its f.
    """

    def above(rows, j, start):
        for f in range(start, n - j):
            tail = rows[:, rows.shape[1] - math.comb(n - f - 1, j) :]
            out = np.empty((j + 1, tail.shape[1]), dtype=rows.dtype)
            out[0] = f
            out[1:] = tail
            yield out

    if n - first < k:
        yield np.empty((k, 0), dtype=np.min_scalar_type(n))
        return
    rows = np.arange(first + k - 1, n, dtype=np.min_scalar_type(n))[None, :]
    if k == 1:
        yield rows
        return
    for j in range(1, k - 1):
        rows = np.concatenate(list(above(rows, j, first + k - 1 - j)), axis=1)
    yield from above(rows, k - 1, first)


def _halves(A: tc.TupleH, k: int):
    """Yield the positions in A of the shifts of each parity and whether the
    half's k-subsets are taken as shapes: for k >= 2, when its shifts are
    an arithmetic progression a + s i."""
    s = np.array(A.shifts, dtype=np.int64)
    for pos in (np.flatnonzero(s % 2 == 0), np.flatnonzero(s % 2 == 1)):
        if pos.size:
            gaps = np.diff(s[pos])
            yield pos.astype(np.min_scalar_type(A.size)), k >= 2 and bool((gaps == gaps[:1]).all())


def _row_count(A: tc.TupleH, k: int) -> int:
    """The number of rows _rows yields for A and k."""
    return sum(math.comb(pos.size - 1, k - 1) if shapes else math.comb(pos.size, k)
               for pos, shapes in _halves(A, k))


def _rows(A: tc.TupleH, k: int):
    """Yield (idx, weight) chunks of rows whose weighted sum of any
    translation-invariant f with f = 0 at nu_2 = 2 equals the sum of f over
    all k-subsets of A: idx is a (k, rows) array of positions in A.shifts
    and weight the int64 weight of each row.

    A k-subset with both parities has nu_2 = 2, so only the subsets of
    each parity half are rows.  A half that is a progression a + s i has
    the same nu_p on a shape {0 < i_1 < ... < i_{k-1} <= n - 1} as on its
    n - i_{k-1} translates by multiples of s: C(n - 1, k - 1) rows in place
    of C(n, k).  Any other half gives its k-subsets, each of weight 1.
    Chunks follow _index_rows, by first index (of the shape's tail).
    """
    for pos, shapes in _halves(A, k):
        n = pos.size
        if shapes:
            for tails in _index_rows(n, k - 1, first=1):
                yield pos[np.vstack([np.zeros_like(tails[:1]), tails])], n - tails[-1].astype(np.int64)
        else:
            for idx in _index_rows(n, k):
                yield pos[idx], np.ones(idx.shape[1], dtype=np.int64)


def _nu(res: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """nu_p of each row of idx, from the residues res of A.shifts mod p:
    the entries whose residue no earlier entry of the row has."""
    r = [res[i] for i in idx]
    nu = np.ones(idx.shape[1], dtype=np.uint8)
    for j in range(1, len(r)):
        unseen = r[j] != r[0]
        for i in range(1, j):
            unseen &= r[j] != r[i]
        nu += unseen
    return nu


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

    Each row of _rows gets its product over the primes up to A's largest
    pairwise difference, multiplied in increasing p, of the factor of its
    nu_p.  So each row's float is the product every subset it stands for
    would get, and a subset with both parities gets exactly 0.0, from
    (1 - 2/2).  Above the largest difference every subset is generic,
    contributing one shared constant.  exact_sum of the exact
    weight * value pairs (hi, lo) rounds the sum over every subset once,
    whatever the rows.
    """
    idx, weight = (np.concatenate(part, axis=-1) for part in zip(*_rows(A, k)))
    shifts = np.array(A.shifts, dtype=np.int64)
    pmax = max(A.shifts[-1] - A.shifts[0], k, 2)
    prod = np.ones(idx.shape[1], dtype=np.float64)
    for p in prime_engine.primes_upto(pmax):
        res = (shifts % p).astype(np.min_scalar_type(p))
        fac = np.array([(1.0 - v / p) * (1.0 - 1.0 / p) ** (-k) for v in range(k + 1)])
        prod *= fac[_nu(res, idx)]

    # Shared generic factor over pmax < p <= cutoff.
    table = prime_engine.primes_upto(cutoff)
    prod *= math.exp(_generic_log(k, table.primes[table.primes > pmax].astype(np.float64)))
    tail_rel = math.exp(_tail_log_bound(k, cutoff)) - 1.0
    hi, lo = _two_product(weight, prod)
    return prime_engine.exact_sum(hi, lo), tail_rel


def _within_budget(h: int, k: int) -> bool:
    """Whether average_B takes the k-subsets of an h-set: at most
    MAX_ORDERED_SUBSETS ordered ones, C(h, k) k! = perm(h, k)."""
    return math.perm(h, k) <= MAX_ORDERED_SUBSETS


def average_B(A: tc.TupleH, k: int, cutoff: int = 10**5) -> tuple[float, float]:
    """B_A(k): sum of S(H) over ordered k-subsets of A, with certified radius.

    k! times the correctly rounded sum over the unordered k-subsets, taken
    over the weighted same-parity rows of _rows.  MAX_ORDERED_SUBSETS
    bounds C(h, k) k! whatever the rows.
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


def _s_star_truncated(A: tc.TupleH, k_values, cutoff: int) -> dict:
    """Estimate S*(k) for all requested k from the z-quasi-prime densities.

    For z = HISTOGRAM_Z and Z = primorial(z), each S(H) is approximated by
    R(H) * Y_z^k * T(k), with R(H) = prod_{p<=z} (1 - nu_p(H)/p) the
    quasi-prime density, Y_z = prod_{p<=z}(1-1/p)^{-1} and T(k) the generic
    continuation of the Euler product above z.  Z R(H) = prod_{p<=z}
    (p - nu_p(H)) is an integer, summed exactly over the rows of _rows:
    p = 2 gives 2 - 1 = 1 on every row, so only the odd primes are
    multiplied.  By CRT, k! times that sum counts the pairs (i mod Z,
    ordered k-subset H) with every i + h coprime to Z.

    Every prime above z is treated as generic, so the estimate is exact
    only while no difference of two elements of A has a prime factor
    above z.  For A = [1, h] that holds for h <= 58; from [1, 59] on
    (58 = 2 * 29) it runs low, by 1.42% at S*(5) on [1, 100].  Refuses any
    k with more than MAX_ESTIMATE_ROWS rows, before any work.
    """
    for k in k_values:
        rows = _row_count(A, k)
        if rows > MAX_ESTIMATE_ROWS:
            raise CapacityError(f"S*({k}) estimate needs {rows} rows (budget {MAX_ESTIMATE_ROWS})")
    z = HISTOGRAM_Z
    Z = tc.primorial(z)
    small = list(prime_engine.primes_upto(z))
    Y_z = 1.0
    for p in small:
        Y_z /= 1.0 - 1.0 / p

    gp = prime_engine.primes_upto(cutoff).primes[len(small) :].astype(np.float64)

    shifts = np.array(A.shifts, dtype=np.int64)
    res = [(shifts % p).astype(np.min_scalar_type(p)) for p in small[1:]]
    out = {}
    for k in k_values:
        # g = Z R(H) < 2^27.  Within MAX_ESTIMATE_ROWS a chunk has at most
        # 2^22 rows and its weights sum to at most C(2^22 + 1, 2) < 2^43 (the
        # shapes of k = 2), so each dot with a 14-bit half of g stays below
        # 2^63.
        total = 0
        for idx, weight in _rows(A, k):
            g = np.ones(idx.shape[1], dtype=np.int64)
            for r, p in zip(res, small[1:]):
                g *= p - _nu(r, idx)  # nu_p <= p: no wrap in nu's uint8
            lo = g & ((1 << 14) - 1)
            g >>= 14
            total += (int(weight @ g) << 14) + int(weight @ lo)
        r_avg = math.factorial(k) * total / Z
        out[k] = r_avg * (Y_z**k) * math.exp(_generic_log(k, gp)) / A.size**k
    return out


def check_monotone(
    A: tc.TupleH, k_max: int, cutoff: int = 10**5, floor: float = 0.95
) -> dict:
    """S*(1..k_max) and the minimum consecutive ratio S*(k+1)/S*(k).

    Exact values from average_B wherever its MAX_ORDERED_SUBSETS budget
    takes k; where it refuses k, the z = 23 truncated estimate (method
    "histogram"), computed exactly from the same rows.  The report records
    which method produced each value.  The estimate treats every prime
    above HISTOGRAM_Z = 23 as generic, so it is exact only while no
    difference in A has a larger prime factor: for A = [1, h] up to
    h = 58, and low from [1, 59] on (1.42% low at S*(5) on [1, 100]).
    Past MAX_ESTIMATE_ROWS rows it raises CapacityError before any work.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if k_max > 8:
        raise DomainError("k_max must be <= 8")
    if not math.isfinite(floor):
        raise DomainError(f"floor must be finite, got {floor}")

    need = [k for k in range(1, k_max + 1) if not _within_budget(A.size, k)]
    values = _s_star_truncated(A, need, cutoff) if need else {}
    methods = {k: "histogram" for k in values}
    for k in range(1, k_max + 1):
        if k not in values:
            values[k] = s_star(A, k, cutoff)
            methods[k] = "exact"

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
