"""Truncated-divisor sieve weights and their empirical sums.

The weight Lambda_R(n; H, ell) is a Mobius-weighted sum over squarefree
divisors d <= R of the tuple polynomial P_H(n), normalized by (K + ell)!.
Three window statistics are built on it: the plain pair sum, the
theta-weighted pair sum (each weight pair multiplied by log(n + h0) when
n + h0 is prime), and the prime-pair detector.

The pair sum has two independent evaluation routes that must agree.  The
direct route finds the regular n of the window (N, 2N] from one sieved
period: regularity depends on n mod P, P = primorial(V), so the first
min(P, N) offsets are sieved by the primes p <= V and their regular offsets
tiled by P.  It then evaluates every weight of the window in one
depth-first walk over the squarefree d <= R built from the primes in
(V, R], carrying at each d the window entries n with d | P_H(n).  With m
candidates per period, entry j + q m is entry j plus q P, so the top
level flags the entries divisible by each prime q on the first q m
candidates and tiles the flags every q periods; deeper levels reduce
their own entries.  lambda_R runs the same walk on a single n over the
primes p <= R that divide P_H(n).  The direct route
shares no class code with the divisor route, which lists those squarefree
d once, then for each pair (d, e) counts the window n with d | P_H1(n) and
e | P_H2(n) exactly, by residue classes.  The roots of P_H2 mod every e are
lifted once.  For each d, the roots of P_H1 mod d are lifted by the
regular classes mod P once; for each g | d, the rows of that lift whose
root is also a root of P_H2 mod g are counted as they are for e' = 1 and
crossed with the roots mod every other e' coprime to d with g e' <= R, so
e = g e', and the counts of each d are tallied in one vector over e.  The divisor route calls no window code.
Their agreement is the module's main correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import primes as prime_engine
from . import tuples as tc
from .errors import CapacityError, DomainError

# Selects nothing: the benchmark alone reads it, to label its walk items.
MAX_MASK_PRIMES = 16

# Lifted classes per crt_lift call of pair_sum_divisor: 512 KiB per int64 temporary.
_MAX_RUN_CLASSES = 2**16

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
        if not 1 < self.R < math.inf:
            raise DomainError("R must be finite and exceed 1")
        if self.V < 2:
            raise DomainError("V must be >= 2")
        if self.N < 1:
            raise DomainError("N must be >= 1")
        # The window's largest arrays, detector_sum's float64 psi and inner,
        # hold 8 bytes per n in (N, 2N]; the candidates are a fraction of that.
        if 8 * self.N > prime_engine.MAX_TABLE_BYTES:
            raise CapacityError(
                f"window N={self.N} needs {8 * self.N}-byte arrays, "
                f"over guard {prime_engine.MAX_TABLE_BYTES}"
            )


def polynomial_value(n: int, H: tc.TupleH) -> int:
    """P_H(n) = prod_{h in H} (n + h), exactly."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out = 1
    for h in H.shifts:
        out *= n + h
    return out


def _lambda_walk(
    n: np.ndarray, m: int, H: tc.TupleH, primes: list, a: int, log_R: float
) -> np.ndarray:
    """Sum of mu(d) (log R/d)^a / a! over squarefree d <= R with d | P_H(n),
    for every entry of n, where d runs over products of the ascending `primes`.

    Depth-first over d, pruning once the product exceeds R.  Each stack entry
    is (indices, next prime, log d, mu(d)): the indices are the entries of n
    with d | P_H(n), and a child d*q keeps those whose n mod q is a root -h of
    P_H mod q.  Each term is added on its own entries only.  n must advance
    by one fixed period P every m entries (m >= n.size claims none): the
    root's flags for q are then computed on n[:q m] and tiled, while deeper
    entries reduce their own subsets.
    """
    logs = [math.log(q) for q in primes]
    roots = [sorted({(-h) % q for h in H.shifts}) for q in primes]
    out = np.zeros(n.size, dtype=np.float64)
    # The root d = 1 holds every entry, as a slice: nothing is gathered.
    stack = [(slice(None), 0, 0.0, 1)]
    while stack:
        idx, start, log_d, mu = stack.pop()
        out[idx] += mu * (log_R - log_d) ** a
        top = start == 0
        vals = n[idx]
        children = []
        for i in range(start, len(primes)):
            log_dq = log_d + logs[i]
            # Tolerate rounding at the d = R boundary.
            if log_dq > log_R + 1e-12:
                break
            q = primes[i]
            # At the top, n[j + q m] = n[j] + q P: the flags repeat every q periods.
            r = vals[: q * m] % q if top else vals % q
            hit = r == roots[i][0]
            for root in roots[i][1:]:
                hit |= r == root
            if top and hit.size < n.size:
                hit = np.tile(hit, -(-n.size // hit.size))[: n.size]
            if hit.any():
                children.append((np.flatnonzero(hit) if top else idx[hit], i + 1, log_dq, -mu))
        # Reversed, so the smallest prime is visited first.
        stack.extend(reversed(children))
    return out / math.factorial(a)


def lambda_R(n: int, H: tc.TupleH, ell: int, R: float) -> float:
    """Lambda_R(n; H, ell) for a single n >= 1 (any Python int), walked over
    the primes p <= R dividing P_H(n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 1 < R < math.inf:
        raise DomainError("R must be finite and exceed 1")
    # Other primes open no branch; walking them costs numpy calls per prime.
    primes = [
        p for p in prime_engine.primes_upto(int(R)).primes.tolist()
        if any((n + h) % p == 0 for h in H.shifts)
    ]
    # Beyond int64, np.array holds n as uint64 or as a Python int object.
    return float(_lambda_walk(np.array([n]), 1, H, primes, H.size + ell, math.log(R))[0])


def _window_candidates(
    Hu: tc.TupleH, params: WeightParams, per_class: int | None
) -> tuple[np.ndarray, int]:
    """The n in (N, 2N] with gcd(P_Hu(n), P) = 1 (or in one given regular
    class mod P), ascending, and m, their number per period P.

    Regularity depends on n mod P only: one strided write per (p <= V, h)
    sieves the first min(P, N) offsets, and their regular offsets are tiled
    by P and cut at 2N.  Where P >= N that is the whole window, and m is
    its size.
    """
    P = tc.primorial(params.V)
    N = params.N
    if per_class is not None:
        a = per_class % P
        if any(math.gcd(a + h, P) != 1 for h in Hu.shifts):
            raise DomainError(f"{per_class} is not a regular class mod {P}")
        return np.arange((a - (N + 1)) % P, N, P) + (N + 1), 1
    M = min(P, N)
    ok = np.ones(M, dtype=bool)
    for p in prime_engine.primes_upto(params.V).primes.tolist():
        for h in Hu.shifts:
            ok[(-(N + 1 + h)) % p :: p] = False
    base = np.flatnonzero(ok)
    cands = (np.arange(N + 1, 2 * N + 1, M)[:, None] + base).ravel()
    return cands[: np.searchsorted(cands, 2 * N, side="right")], base.size


def _mask_primes(params: WeightParams) -> list:
    """Primes q with V < q <= R: the only possible divisors of P_H(n) for
    regular n, up to the sieve level."""
    table = prime_engine.primes_upto(int(params.R))
    return [int(q) for q in table.primes if q > params.V]


def lambda_window(
    cands: np.ndarray, m: int, H: tc.TupleH, ell: int, params: WeightParams
) -> np.ndarray:
    """Lambda_R(n; H, ell) for every candidate n, vectorized.

    The candidates are regular n in the window (N, 2N] of `params`, so only
    the primes in (V, R] can divide P_H(n); one divisor walk over them
    evaluates the whole array.  Every m entries they advance by P =
    primorial(V), as `_window_candidates` returns them; m = cands.size
    claims no period.
    """
    assert (cands[m:] - cands[: cands.size - m] == tc.primorial(params.V)).all()
    return _lambda_walk(cands, m, H, _mask_primes(params), H.size + ell, math.log(params.R))


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
    cands, m = _window_candidates(Hu, params, per_class)
    if h0 is not None:
        # Flag, at each window offset, whether n + h0 is prime.
        prime = np.zeros(N, dtype=bool)
        prime[prime_engine.sieve_range(N + 1 + h0, 2 * N + h0).primes - (N + 1 + h0)] = True
        # The n kept follow no period, but walking them alone costs less than
        # a tiled walk over every candidate.
        cands = cands[prime[cands - (N + 1)]]
        m = cands.size
    if cands.size == 0:
        return 0.0
    terms = lambda_window(cands, m, H1, ell1, params) * lambda_window(cands, m, H2, ell2, params)
    if h0 is not None:
        terms = terms * np.log((cands + h0).astype(np.float64))
    return prime_engine.exact_sum(terms)


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
) -> float:
    """Theta-weighted pair sum: the same product times log(n + h0) at primes."""
    if h0 < 1:
        raise DomainError("h0 must be >= 1")
    return _pair_sum(H1, H2, ell1, ell2, params, None, h0)


def pair_sum_divisor(
    H1: tc.TupleH, H2: tc.TupleH, ell1: int, ell2: int, params: WeightParams
) -> float:
    """Pair sum by divisor-pair expansion with exact residue counting.

    Each pair (d, e) of squarefree values <= R built from the primes in (V, R]
    contributes mu(d) (log R/d)^a1 / a1! times mu(e) (log R/e)^a2 / a2! times
    the exact count of regular window n with d | P_H1(n) and e | P_H2(n).
    The count lifts by CRT.  The roots of P_H2 mod each e are lifted once,
    and so are the roots of P_H1 mod each d, which are then lifted by the
    regular classes mod P once per d, one row per root.  A pair is written
    e = g e' with g = gcd(d, e): for each squarefree g | d, the rows of the
    roots of d that are also roots of P_H2 mod g are crossed with the roots
    of P_H2 mod every e' > 1 coprime to d with g e' <= R, a step of root rows
    per crt_lift call, so that one call holds at most
    max(_MAX_RUN_CLASSES, lifted classes) classes; e' = 1 counts those rows
    as they are.  The window is counted over the classes mod
    lcm(d, e) P = d e' P, and each row's count is added into one count
    vector per d, indexed by e.  The R^2 <= 10^7 guard also bounds the
    pairs: the d are distinct integers in [1, R], so there are at most 3162
    of them.
    """
    Hu = _check_pair_inputs(H1, H2)
    if params.R * params.R > 10**7:
        raise CapacityError(f"R^2 = {params.R**2:.3g} exceeds expansion budget 10^7")
    Q = _mask_primes(params)
    # Every squarefree d <= R over Q, with the indices of its primes in Q.
    ds = []
    stack = [(1, ())]
    while stack:
        d, idx = stack.pop()
        ds.append((d, idx))
        for i in range(idx[-1] + 1 if idx else 0, len(Q)):
            if d * Q[i] > params.R:
                break
            stack.append((d * Q[i], idx + (i,)))
    # Ascending, so the e' <= R/g coprime to d are a prefix of those coprime to d.
    ds.sort()
    N = params.N
    log_R = math.log(params.R)
    w1, w2 = (
        np.array([
            (-1.0) ** len(idx) * (log_R - math.log(d)) ** a / math.factorial(a) for d, idx in ds
        ])
        for a in (H1.size + ell1, H2.size + ell2)
    )
    roots1, roots2 = (
        [np.array(sorted({(-h) % q for h in H.shifts}), dtype=np.int64) for q in Q]
        for H in (H1, H2)
    )
    P = tc.primorial(params.V)
    reg = tc.regular_classes(Hu, params.V) % P

    vals = np.array([d for d, _ in ds], dtype=np.int64)
    y = [tc.crt_product([roots2[i] for i in idx], [Q[i] for i in idx]) for _, idx in ds]
    sizes = np.array([r.size for r in y])
    # The roots of P_H2 mod every e, concatenated, each beside its e.
    y_all, e_all = np.concatenate(y), np.repeat(vals, sizes)
    terms = []
    for j, (d, idx_d) in enumerate(ds):
        x_d = tc.crt_product([roots1[i] for i in idx_d], [Q[i] for i in idx_d])
        # Row i: the root x_d[i] lifted by every regular class, mod d P.
        lifted = tc.crt_lift(reg, P, x_d, np.full(x_d.size, d))
        keep_y = np.repeat(np.gcd(vals, d) == 1, sizes)
        ys, qs = y_all[keep_y], e_all[keep_y]
        # The count of each pair (d, e), e = vals[i], at index i.
        count = np.zeros(vals.size, dtype=np.int64)
        for i_g in np.flatnonzero(d % vals == 0).tolist():
            g = ds[i_g][0]
            keep = ((x_d % g)[:, None] == y[i_g]).any(axis=1)
            if not keep.any():
                continue
            # g = 1 keeps every row, and needs no copy.
            X = lifted.ravel() if keep.all() else lifted[keep].ravel()
            # The window count (2N - c) // M - (N - c) // M of each class c,
            # 0 <= c < M: (kN - c) // M is kN // M, less 1 where c > kN % M.
            # One division per modulus, then one comparison per class.  The
            # first e' is 1, whose classes are X itself, mod M = d P.
            (k1, r1), (k2, r2) = divmod(N, d * P), divmod(2 * N, d * P)
            count[i_g] += (k2 - k1) * X.size + np.count_nonzero(X > r1) - np.count_nonzero(X > r2)
            n_y = int(np.count_nonzero(g * qs <= params.R))
            step = max(1, _MAX_RUN_CLASSES // X.size)
            for lo in range(1, n_y, step):
                hi = min(lo + step, n_y)
                ye, qe = ys[lo:hi], qs[lo:hi]
                lift = tc.crt_lift(X, d * P, ye, qe)
                mods = d * P * qe
                assert (mods == np.lcm(d, g * qe) * P).all()
                (k1, r1), (k2, r2) = np.divmod(N, mods), np.divmod(2 * N, mods)
                cnt = (
                    (k2 - k1) * X.size
                    + np.add.reduce(lift > r1[:, None], axis=1)
                    - np.add.reduce(lift > r2[:, None], axis=1)
                )
                np.add.at(count, np.searchsorted(vals, g * qe), cnt)
        nz = count != 0
        terms.append(w1[j] * w2[nz] * count[nz])
    return prime_engine.exact_sum(np.concatenate(terms))


def detector_sum(A: tc.TupleH, params: WeightParams) -> dict:
    """Prime-pair detector S'_R over the window, report form.

    For each n in (N, 2N] the inner weight is the sum of Lambda_R(n; H, ell)
    over K-subsets H of A for which n is regular; its square is weighted by
    (sum of log p over primes p = n + a, a in A, p <= 3N) - log 3N, and the
    total is normalized by N h^{2K+1} with h = max(A).  Positivity would
    certify a prime pair inside some length-h window.  At desk scale the
    sign depends on A and R (at N = 1e5, K = 2, ell = 1, V = 5 it is
    positive for A = {2, 6, 8, 12, 14} and negative for A = [1, 10] at
    R = (3N)^0.2), so it is reported, not asserted.
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
        cands, m = _window_candidates(H, params, None)
        psi[cands - (N + 1)] += lambda_window(cands, m, H, ell, params)

    # n + a runs from N + 1 + min(A): a shift 0 reaches n = N + 1 itself.
    primes = prime_engine.sieve_range(min(N + 1 + A.shifts[0], 3 * N), 3 * N).primes
    inner = np.full(N, -math.log(3 * N), dtype=np.float64)
    for a in A.shifts:
        # The primes n + a with n in the window, at their offsets n - (N + 1).
        p = primes[(primes >= N + 1 + a) & (primes <= 2 * N + a)]
        inner[p - (N + 1 + a)] += np.log(p.astype(np.float64))

    value = prime_engine.exact_sum(inner * psi * psi) / (N * float(h) ** (2 * K + 1))
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
