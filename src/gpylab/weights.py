"""Truncated-divisor sieve weights and their empirical sums.

The weight Lambda_R(n; H, ell) is a Mobius-weighted sum over squarefree
divisors d <= R of the tuple polynomial P_H(n), normalized by (K + ell)!.
Three window statistics are built on it: the plain pair sum, the
theta-weighted pair sum (each weight pair multiplied by log(n + h0) when
n + h0 is prime), and the prime-pair detector.

The pair sum has two independent evaluation routes that must agree.  The
direct route sieves the window (N, 2N] by the primes p <= V to find the
regular n, then the primes in (V, R] to factor P_H(n); it shares no class
code with the divisor route, which expands into divisor pairs and counts
them exactly over the regular classes mod P by CRT lifting.  Their
agreement is the module's main correctness oracle.
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
MAX_DIVISOR_PAIRS = 10**7

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


def polynomial_value(n: int, H: tc.TupleH) -> int:
    """P_H(n) = prod_{h in H} (n + h), exactly."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out = 1
    for h in H.shifts:
        out *= n + h
    return out


def _divisor_terms(logs: list, a: int, log_R: float) -> tuple[list, list]:
    """Support masks and terms mu(d) (log R/d)^a of every squarefree d <= R.

    d runs over products of the primes whose logs are given, ascending;
    bit i of a mask marks the i-th prime.  Depth-first, pruning once the
    partial product exceeds R.
    """
    masks, terms = [], []

    def walk(idx: int, mask: int, log_prod: float, sign: int) -> None:
        masks.append(mask)
        terms.append(sign * (log_R - log_prod) ** a)
        for i in range(idx, len(logs)):
            lp = log_prod + logs[i]
            # Tolerate rounding at the d = R boundary.
            if lp > log_R + 1e-12:
                break
            walk(i + 1, mask | (1 << i), lp, -sign)

    walk(0, 0, 0.0, 1)
    return masks, terms


def _lambda_terms(primes: list, a: int, log_R: float) -> float:
    """Sum of mu(d) (log R/d)^a over squarefree d <= R built from the
    ascending `primes`, already divided by a!."""
    _, terms = _divisor_terms([math.log(p) for p in primes], a, log_R)
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


def _divides(H: tc.TupleH, q: int, N: int) -> np.ndarray:
    """Flags over the window (N, 2N]: offset i is set iff q divides P_H(N + 1 + i)."""
    hit = np.zeros(N, dtype=bool)
    for h in H.shifts:
        hit[(-(N + 1 + h)) % q :: q] = True
    return hit


def _window_candidates(
    Hu: tc.TupleH, params: WeightParams, per_class: int | None
) -> np.ndarray:
    """The n in (N, 2N] with gcd(P_Hu(n), P) = 1 (or in one given regular
    class mod P), found by sieving the window with the primes p <= V."""
    P = tc.primorial(params.V)
    N = params.N
    if per_class is not None:
        a = per_class % P
        if any(math.gcd(a + h, P) != 1 for h in Hu.shifts):
            raise DomainError(f"{per_class} is not a regular class mod {P}")
        return np.arange((a - (N + 1)) % P, N, P) + (N + 1)
    ok = np.ones(N, dtype=bool)
    for p in prime_engine.primes_upto(params.V).primes.tolist():
        ok &= ~_divides(Hu, p, N)
    return np.flatnonzero(ok) + (N + 1)


def _mask_primes(params: WeightParams) -> list:
    """Primes q with V < q <= R: the only possible divisors of P_H(n) for
    regular n, up to the sieve level."""
    table = prime_engine.primes_upto(int(params.R))
    return [int(q) for q in table.primes if q > params.V]


def _lambda_table(Q: list, a: int, R: float) -> np.ndarray:
    """Lookup table over prime subsets: entry at bitmask m is
    Lambda's inner sum for an n whose prime support (within Q) is m."""
    B = len(Q)
    table = np.zeros(1 << B, dtype=np.float64)
    # Deposit each squarefree product d <= R at its support mask.
    for mask, term in zip(*_divisor_terms([math.log(q) for q in Q], a, math.log(R))):
        table[mask] += term

    # Subset-sum (zeta) transform: each mask accumulates all its subsets.
    for b in range(B):
        s = 1 << b
        view = table.reshape(-1, 2, s)
        view[:, 1, :] += view[:, 0, :]
    return table / math.factorial(a)


def _support_masks(cands: np.ndarray, H: tc.TupleH, Q: list, N: int) -> np.ndarray:
    """Per-candidate bitmasks: bit i is set iff Q[i] divides P_H(n)."""
    masks = np.zeros(cands.size, dtype=np.uint32)
    offsets = cands - (N + 1)
    for bi, q in enumerate(Q):
        masks[_divides(H, q, N)[offsets]] |= np.uint32(1 << bi)
    return masks


def _prime_lists(cands: np.ndarray, H: tc.TupleH, Q: list, N: int) -> list:
    """Per-candidate sorted lists of primes q in Q dividing P_H(n)."""
    lists: list = [[] for _ in range(cands.size)]
    offsets = cands - (N + 1)
    for q in Q:
        for i in np.flatnonzero(_divides(H, q, N)[offsets]).tolist():
            lists[i].append(q)
    return lists


def lambda_window(
    cands: np.ndarray, H: tc.TupleH, ell: int, params: WeightParams
) -> np.ndarray:
    """Lambda_R(n; H, ell) for every candidate n, vectorized.

    The candidates are regular n in the window (N, 2N] of `params`.  With
    few enough primes in (V, R] the weights come from a lookup table
    indexed by each n's prime-support bitmask; otherwise each candidate's
    prime list is walked depth-first.
    """
    Q = _mask_primes(params)
    a = H.size + ell
    if len(Q) <= MAX_MASK_PRIMES:
        table = _lambda_table(Q, a, params.R)
        return table[_support_masks(cands, H, Q, params.N)]
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


def _pair_sum(
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    params: WeightParams,
    per_class: int | None,
    h0: int | None,
) -> float:
    """Sum of Lambda_R(n;H1,ell1) Lambda_R(n;H2,ell2) over regular n in (N, 2N];
    with h0 given, only over n with n + h0 prime, each product times log(n + h0)."""
    Hu = _check_pair_inputs(H1, H2)
    N = params.N
    cands = _window_candidates(Hu, params, per_class)
    if h0 is not None:
        # Flag, at each window offset, whether n + h0 is prime.
        prime = np.zeros(N, dtype=bool)
        prime[prime_engine.sieve_range(N + 1 + h0, 2 * N + h0).primes - (N + 1 + h0)] = True
        cands = cands[prime[cands - (N + 1)]]
    if cands.size == 0:
        return 0.0
    terms = lambda_window(cands, H1, ell1, params) * lambda_window(cands, H2, ell2, params)
    if h0 is not None:
        terms = terms * np.log((cands + h0).astype(np.float64))
    return math.fsum(terms)


def pair_sum_direct(
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    params: WeightParams,
    per_class: int | None = None,
) -> float:
    """Sum of Lambda_R(n;H1,ell1) Lambda_R(n;H2,ell2) over regular n in (N, 2N]."""
    return _pair_sum(H1, H2, ell1, ell2, params, per_class, None)


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
    return _pair_sum(H1, H2, ell1, ell2, params, per_class, h0)


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

    Each pair (d, e) of squarefree values <= R coprime to P contributes
    mu(d) (log R/d)^a1 / a1! times mu(e) (log R/e)^a2 / a2! times the exact
    count of regular window n with d | P_H1(n) and e | P_H2(n).  Counting
    lifts by CRT, per prime of d or e, the roots of P_H1, of P_H2, or (for a
    prime of gcd(d, e)) of both, then the regular classes mod P.
    """
    Hu = _check_pair_inputs(H1, H2)
    if params.R * params.R > 10**7:
        raise CapacityError(f"R^2 = {params.R**2:.3g} exceeds expansion budget 10^7")
    Q = _mask_primes(params)
    roughs = _rough_squarefree(Q, params.R)
    if len(roughs) ** 2 > MAX_DIVISOR_PAIRS:
        raise CapacityError(f"{len(roughs)}^2 divisor pairs (budget {MAX_DIVISOR_PAIRS})")
    N = params.N
    log_R = math.log(params.R)

    def weights_for(a: int) -> list:
        fact = math.factorial(a)
        return [(-1.0) ** k * (log_R - math.log(v)) ** a / fact for v, _, k in roughs]

    w1 = weights_for(H1.size + ell1)
    w2 = weights_for(H2.size + ell2)

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
    for (d, md, _), f1 in zip(roughs, w1):
        for (e, me, _), f2 in zip(roughs, w2):
            cnt = count_for(md & ~me, me & ~md, md & me, math.lcm(d, e))
            if cnt:
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
    h = max(A.shifts)
    if h == 0:
        raise DomainError("max(A) must be positive: h = max(A) normalizes the sum")
    if K > A.size:
        raise DomainError(f"K={K} exceeds |A|={A.size}")
    n_subsets = math.comb(A.size, K)
    if n_subsets > MAX_DETECTOR_SUBSETS:
        raise CapacityError(
            f"{n_subsets} K-subsets of A (budget {MAX_DETECTOR_SUBSETS})"
        )
    N = params.N
    psi = np.zeros(N, dtype=np.float64)
    for combo in combinations(A.shifts, K):
        H = tc.TupleH(combo)
        if not tc.is_admissible(H):
            continue
        cands = _window_candidates(H, params, None)
        psi[cands - (N + 1)] += lambda_window(cands, H, ell, params)

    # n + a runs from N + 1 + min(A): a shift 0 reaches n = N + 1 itself.
    primes = prime_engine.sieve_range(min(N + 1 + A.shifts[0], 3 * N), 3 * N).primes
    inner = np.full(N, -math.log(3 * N), dtype=np.float64)
    for a in A.shifts:
        # The primes n + a with n in the window, at their offsets n - (N + 1).
        p = primes[(primes >= N + 1 + a) & (primes <= 2 * N + a)]
        inner[p - (N + 1 + a)] += np.log(p.astype(np.float64))

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
