"""Truncated-divisor sieve weights and their empirical sums.

The weight Lambda_R(n; H, ell) is a Mobius-weighted sum over squarefree
divisors d <= R of the tuple polynomial P_H(n), normalized by (K + ell)!.
Three window statistics are built on it: the plain pair sum, the
theta-weighted pair sum (each weight pair multiplied by log(n + h0) when
n + h0 is prime), and the prime-pair detector.

The pair sum has two independent evaluation routes that must agree:
iterating n over the window (factoring P_H(n) by sieving), and expanding
into divisor pairs with exact residue-class counting.  Their agreement is
the module's main correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import primes as prime_engine
from . import tuples as tc
from .errors import CapacityError, DomainError

# Bitmask fast path: per-window lambda lookup tables up to 2^16 entries.
MAX_MASK_PRIMES = 16

# Divisor-pair expansion guards.
MAX_ROUGH_VALUES = 4000
MAX_TRIPLES = 10**7

# Detector subset-enumeration guard.
MAX_DETECTOR_SUBSETS = 5000


@dataclass(frozen=True)
class WeightParams:
    """Parameter bundle: tuple size K, shift ell, level R, prime cut V, range N."""

    K: int
    ell: int
    R: float
    V: int
    N: int

    def __post_init__(self):
        if self.K < 1:
            raise DomainError("K must be >= 1")
        if self.ell < 0:
            raise DomainError("ell must be >= 0")
        if not self.R > 1:
            raise DomainError("R must exceed 1")
        if self.V < 2:
            raise DomainError("V must be >= 2")
        if self.N < 1:
            raise DomainError("N must be >= 1")

    @classmethod
    def recipe(cls, N: int, ell: int, xi: float = 0.05) -> tuple["WeightParams", int]:
        """Preset shapes R = (3N)^(1/4 - xi), K = 16(ell+1)^2, h = 100 log R / K.

        Returns the params and the window size h (rounded up).
        """
        if not 0 < xi < 0.25:
            raise DomainError("xi must lie in (0, 1/4)")
        K = 16 * (ell + 1) ** 2
        R = (3.0 * N) ** (0.25 - xi)
        h = math.ceil(100.0 * math.log(R) / K)
        return cls(K=K, ell=ell, R=R, V=5, N=N), h


def polynomial_value(n: int, H: tc.TupleH) -> int:
    """P_H(n) = prod_{h in H} (n + h), exactly."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out = 1
    for h in H.shifts:
        out *= n + h
    return out


def _lambda_terms(primes: list, a: int, log_R: float) -> float:
    """Sum of mu(d) (log R/d)^a over squarefree d <= R built from `primes`.

    Depth-first over the sorted prime list, pruning once the partial
    product exceeds R; returns the sum already divided by a!.
    """
    terms = []

    def walk(idx: int, log_prod: float, sign: int) -> None:
        terms.append(sign * (log_R - log_prod) ** a)
        for i in range(idx, len(primes)):
            lp = log_prod + math.log(primes[i])
            # Tolerate rounding at the d = R boundary.
            if lp > log_R + 1e-12:
                break
            walk(i + 1, lp, -sign)

    walk(0, 0.0, 1)
    return math.fsum(terms) / math.factorial(a)


def lambda_R(n: int, H: tc.TupleH, ell: int, R: float) -> float:
    """Lambda_R(n; H, ell) for a single n, from the primes p <= R dividing P_H(n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not R > 1:
        raise DomainError("R must exceed 1")
    small = [
        p for p in prime_engine.primes_upto(int(R)) if any((n + h) % p == 0 for h in H.shifts)
    ]
    return _lambda_terms(small, H.size + ell, math.log(R))


def _regular_flags(H: tc.TupleH, V: int) -> tuple[int, np.ndarray]:
    """(P, bool table) with table[a mod P] marking regular classes."""
    classes = tc.regular_classes(H, V)
    P = classes.modulus
    flags = np.zeros(P, dtype=bool)
    flags[classes.members % P] = True
    return P, flags


def _window_candidates(
    Hu: tc.TupleH, params: WeightParams, per_class: int | None
) -> np.ndarray:
    P, flags = _regular_flags(Hu, params.V)
    N = params.N
    n = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    if per_class is not None:
        a = per_class % P
        if not flags[a]:
            raise DomainError(f"{per_class} is not a regular class mod {P}")
        return n[n % P == a]
    return n[flags[n % P]]


def _mask_primes(params: WeightParams) -> list:
    """Primes q with V < q <= R: the only possible divisors of P_H(n) for
    regular n, up to the sieve level."""
    table = prime_engine.primes_upto(int(params.R))
    return [int(q) for q in table.primes if q > params.V]


def _lambda_table(Q: list, a: int, R: float) -> np.ndarray:
    """Lookup table over prime subsets: entry at bitmask m is
    Lambda's inner sum for an n whose prime support (within Q) is m."""
    B = len(Q)
    log_R = math.log(R)
    logs = [math.log(q) for q in Q]
    table = np.zeros(1 << B, dtype=np.float64)

    # Deposit each squarefree product d <= R at its support mask.
    def walk(idx: int, mask: int, log_prod: float, sign: int) -> None:
        table[mask] += sign * (log_R - log_prod) ** a
        for i in range(idx, B):
            lp = log_prod + logs[i]
            if lp > log_R + 1e-12:
                break
            walk(i + 1, mask | (1 << i), lp, -sign)

    walk(0, 0, 0.0, 1)

    # Subset-sum (zeta) transform: each mask accumulates all its subsets.
    for b in range(B):
        s = 1 << b
        view = table.reshape(-1, 2, s)
        view[:, 1, :] += view[:, 0, :]
    return table / math.factorial(a)


def _support_masks(cands: np.ndarray, H: tc.TupleH, Q: list) -> np.ndarray:
    masks = np.zeros(cands.size, dtype=np.uint32)
    for bi, q in enumerate(Q):
        hit = np.zeros(cands.size, dtype=bool)
        for h in H.shifts:
            hit |= (cands + h) % q == 0
        masks[hit] |= np.uint32(1 << bi)
    return masks


def _prime_lists(cands: np.ndarray, H: tc.TupleH, Q: list, N: int) -> list:
    """Per-candidate sorted lists of primes q in Q dividing P_H(n)."""
    pos = np.full(N, -1, dtype=np.int64)
    pos[cands - (N + 1)] = np.arange(cands.size)
    lists: list = [[] for _ in range(cands.size)]
    for q in Q:
        hit = np.zeros(cands.size, dtype=bool)
        for h in H.shifts:
            lo = N + 1 + h
            first = lo + (-lo) % q
            m = np.arange(first, 2 * N + h + 1, q, dtype=np.int64)
            idx = pos[m - h - (N + 1)]
            hit[idx[idx >= 0]] = True
        for i in np.flatnonzero(hit).tolist():
            lists[i].append(q)
    return lists


def lambda_window(
    cands: np.ndarray, H: tc.TupleH, ell: int, params: WeightParams
) -> np.ndarray:
    """Lambda_R(n; H, ell) for every candidate n, vectorized.

    With few enough primes in (V, R] the weights come from a lookup table
    indexed by each n's prime-support bitmask; otherwise each candidate's
    prime list is walked depth-first.
    """
    Q = _mask_primes(params)
    a = H.size + ell
    if len(Q) <= MAX_MASK_PRIMES:
        table = _lambda_table(Q, a, params.R)
        return table[_support_masks(cands, H, Q)]
    log_R = math.log(params.R)
    cache: dict = {}
    lists = _prime_lists(cands, H, Q, params.N)
    out = np.empty(cands.size, dtype=np.float64)
    for i, lst in enumerate(lists):
        key = tuple(lst)
        if key not in cache:
            cache[key] = _lambda_terms(lst, a, log_R)
        out[i] = cache[key]
    return out


def _check_pair_inputs(H1: tc.TupleH, H2: tc.TupleH) -> tc.TupleH:
    Hu = H1.union(H2)
    for H in (H1, H2, Hu):
        if not tc.is_admissible(H):
            raise DomainError(f"tuple {tuple(H.shifts)} is not admissible")
    return Hu


def pair_sum_direct(
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    params: WeightParams,
    per_class: int | None = None,
) -> float:
    """Sum of Lambda_R(n;H1,ell1) Lambda_R(n;H2,ell2) over regular n in (N, 2N]."""
    Hu = _check_pair_inputs(H1, H2)
    cands = _window_candidates(Hu, params, per_class)
    if cands.size == 0:
        return 0.0
    lam1 = lambda_window(cands, H1, ell1, params)
    lam2 = lambda_window(cands, H2, ell2, params)
    return math.fsum(lam1 * lam2)


def pair_sum_theta(
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    h0: int,
    params: WeightParams,
    per_class: int | None = None,
) -> float:
    """Theta-weighted pair sum: the same product times log(n + h0) at primes."""
    if h0 < 1:
        raise DomainError("h0 must be >= 1")
    Hu = _check_pair_inputs(H1, H2)
    cands = _window_candidates(Hu, params, per_class)
    if cands.size == 0:
        return 0.0
    N = params.N
    table = prime_engine.sieve_range(N + 1 + h0, 2 * N + h0)
    if len(table) == 0:
        return 0.0
    shifted = cands + h0
    idx = np.searchsorted(table.primes, shifted)
    hit = (idx < table.primes.size) & (
        table.primes[np.minimum(idx, table.primes.size - 1)] == shifted
    )
    if not np.any(hit):
        return 0.0
    sel = cands[hit]
    lam1 = lambda_window(sel, H1, ell1, params)
    lam2 = lambda_window(sel, H2, ell2, params)
    return math.fsum(lam1 * lam2 * np.log((sel + h0).astype(np.float64)))


def _rough_squarefree(Q: list, R: float) -> list:
    """Squarefree products of primes in Q, value <= R, as
    (value, support_mask, num_factors) sorted by value; includes 1."""
    out = [(1, 0, 0)]

    def walk(idx: int, val: int, mask: int, k: int) -> None:
        for i in range(idx, len(Q)):
            v = val * Q[i]
            if v > R:
                break
            out.append((v, mask | (1 << i), k + 1))
            walk(i + 1, v, mask | (1 << i), k + 1)

    walk(0, 1, 0, 0)
    if len(out) > MAX_ROUGH_VALUES:
        raise CapacityError(
            f"{len(out)} squarefree values <= R (budget {MAX_ROUGH_VALUES})"
        )
    out.sort()
    return out


def pair_sum_divisor(
    H1: tc.TupleH, H2: tc.TupleH, ell1: int, ell2: int, params: WeightParams
) -> float:
    """Pair sum by divisor-pair expansion with exact residue counting.

    Writes d = a1 a12, e = a2 a12 with a1, a2, a12 squarefree, pairwise
    coprime and coprime to P; each triple contributes its Mobius-weighted
    factor times the exact count of window n in the matching residue
    classes (intersected with the regular classes mod P).
    """
    Hu = _check_pair_inputs(H1, H2)
    if params.R * params.R > 10**7:
        raise CapacityError(f"R^2 = {params.R**2:.3g} exceeds expansion budget 10^7")
    Q = _mask_primes(params)
    roughs = _rough_squarefree(Q, params.R)
    N = params.N
    a1_exp = H1.size + ell1
    a2_exp = H2.size + ell2
    log_R = math.log(params.R)
    fact1 = math.factorial(a1_exp)
    fact2 = math.factorial(a2_exp)

    P = tc.primorial(params.V)
    reg = tc.regular_classes(Hu, params.V).members % P

    # Residues mod q hitting each tuple, and their intersection.
    res1 = {q: np.array(sorted({(-h) % q for h in H1.shifts}), dtype=np.int64) for q in Q}
    res2 = {q: np.array(sorted({(-h) % q for h in H2.shifts}), dtype=np.int64) for q in Q}
    res12 = {
        q: np.intersect1d(res1[q], res2[q]) for q in Q
    }

    def count_for(mask1: int, mask2: int, mask12: int, m: int) -> int:
        x = np.zeros(1, dtype=np.int64)
        mod = 1
        for role_mask, res in ((mask1, res1), (mask2, res2), (mask12, res12)):
            mm = role_mask
            while mm:
                bi = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                q = Q[bi]
                r = res[q]
                if r.size == 0:
                    return 0
                x, mod = tc.crt_lift(x, mod, r, q)
        x, mod = tc.crt_lift(x, mod, reg, P)
        assert mod == m * P
        hi = (2 * N - x) // mod
        lo = (N - x) // mod
        return int((hi - lo).sum())

    terms = []
    triples = 0
    for v12, m12, k12 in roughs:
        lim = params.R / v12
        for v1, m1, k1 in roughs:
            if v1 > lim:
                break
            if m1 & m12:
                continue
            f1 = (-1.0) ** (k1 + k12) * (log_R - math.log(v1 * v12)) ** a1_exp / fact1
            for v2, m2, k2 in roughs:
                if v2 > lim:
                    break
                if (m2 & m12) or (m2 & m1):
                    continue
                triples += 1
                if triples > MAX_TRIPLES:
                    raise CapacityError("divisor-pair triple budget exceeded")
                cnt = count_for(m1, m2, m12, v1 * v2 * v12)
                if cnt == 0:
                    continue
                f2 = (
                    (-1.0) ** (k2 + k12)
                    * (log_R - math.log(v2 * v12)) ** a2_exp
                    / fact2
                )
                terms.append(f1 * f2 * cnt)
    return math.fsum(terms)


def detector_sum(A: tc.TupleH, params: WeightParams) -> dict:
    """Prime-pair detector S'_R over the window, report form.

    For each n in (N, 2N] the inner weight is the sum of Lambda_R(n; H, ell)
    over K-subsets H of A for which n is regular; its square is weighted by
    (sum of log p over primes p = n + a, a in A, p <= 3N) - log 3N, and the
    total is normalized by N h^{2K+1} with h = max(A).  Positivity would
    certify a prime pair inside some length-h window; at desk scale the
    value is negative and reported, not asserted.
    """
    K, ell = params.K, params.ell
    if K > A.size:
        raise DomainError(f"K={K} exceeds |A|={A.size}")
    n_subsets = math.comb(A.size, K)
    if n_subsets > MAX_DETECTOR_SUBSETS:
        raise CapacityError(
            f"{n_subsets} K-subsets of A (budget {MAX_DETECTOR_SUBSETS})"
        )
    N = params.N
    n_all = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    psi = np.zeros(N, dtype=np.float64)
    for combo in combinations(A.shifts, K):
        H = tc.TupleH(combo)
        if not tc.is_admissible(H):
            continue
        P, flags = _regular_flags(H, params.V)
        sel = flags[n_all % P]
        if not np.any(sel):
            continue
        psi[sel] += lambda_window(n_all[sel], H, ell, params)

    h = max(A.shifts)
    # n + a runs from N + 1 + min(A): a shift 0 reaches n = N + 1 itself.
    table = prime_engine.sieve_range(min(N + 1 + A.shifts[0], 3 * N), 3 * N)
    inner = np.full(N, -math.log(3 * N), dtype=np.float64)
    for a in A.shifts:
        shifted = n_all + a
        hit = np.isin(shifted, table.primes)
        inner[hit] += np.log(shifted[hit].astype(np.float64))

    value = math.fsum(inner * psi * psi) / (N * float(h) ** (2 * K + 1))
    return {
        "value": value,
        "K": K,
        "ell": ell,
        "h": h,
        "N": N,
        "R": params.R,
        "subsets": n_subsets,
        "positive": value > 0,
    }
