"""Empirical error statistics for primes in arithmetic progressions.

Three desk-scale statistics: the classical sum over moduli q <= Q of the
worst-residue deviation |theta(N; q, a) - N/phi(q)|, the variant restricted
to moduli Pq with q coprime to a fixed base P (primes counted over the
dyadic window (N, 2N]), and the aggregate of the running maxima E*(X, Mq).
Each statistic sieves the primes it counts, so its only input is a BVConfig.

The two worst-residue sums build their class tables by folding: a few base
moduli b <= FOLD_BASE, each divisible by the moduli it covers, get one
weighted bincount each, and the table mod m | b is that table folded.  The
endpoint-only form of the E* aggregate keeps one bincount per modulus in
increasing p, so that E* >= endpoint holds exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import primes as prime_engine
from .errors import CapacityError, DomainError
from .integers import factorize

MAX_N = 10**9

# Each modulus Mq, q <= Q, costs at most one pass over the primes a statistic
# counts (the per-modulus routes of estar_aggregate take one remainder and
# one bincount over them, the folded sums fewer) and one pass over its class
# table of Mq entries.  So Q * P + M*Q(Q+1)/2 bounds the entries all moduli
# touch, where P = prime_count_bound of the primes <= N or of (N, 2N],
# whichever is larger: one config serves all three statistics.  perfbench's
# largest, bv_sum at N = 1.01e7, Q = 300, comes to 3.8e8; N = 1e5, Q = 2e4 to
# 5.5e8 (2.4 s for the endpoint-only aggregate on a 2-core Xeon VM).
MAX_BV_WORK = 10**9

# Largest fold base.  On a 2-core Xeon VM, bv_sum at N = 1e7, Q = 300 took
# 0.16-0.18 s with bases up to 2**12 or 2**14 (83 or 76 bincounts), 0.13-0.15 s
# with 2**16 (49) and 0.14-0.16 s with 2**18 (40) (best and median of 5); the
# cover's hits table has FOLD_BASE + 1 entries, so take 2**16.
FOLD_BASE = 1 << 16


@dataclass(frozen=True)
class BVConfig:
    """N: range; Q: modulus ceiling; M: fixed base modulus (1 = classical);
    use_estar: max over all x <= N instead of the endpoint only."""

    N: int
    Q: int
    M: int = 1
    use_estar: bool = False

    def __post_init__(self):
        if self.N < 100:
            raise DomainError("N must be >= 100")
        if self.Q < 1 or self.M < 1:
            raise DomainError("Q and M must be >= 1")
        if self.M * self.Q > self.N:
            raise DomainError("M*Q must not exceed N (progressions degenerate)")
        if self.N > MAX_N:
            raise CapacityError(f"N={self.N} exceeds guard {MAX_N}")
        N, Q = self.N, self.Q
        primes = max(prime_engine.prime_count_bound(0, N), prime_engine.prime_count_bound(N + 1, 2 * N))
        work = Q * primes + self.M * Q * (Q + 1) // 2
        if work > MAX_BV_WORK:
            raise CapacityError(
                f"Q*P + M*Q(Q+1)/2 = {work} entries of work (P = {primes} primes) "
                f"exceed guard {MAX_BV_WORK}"
            )
        # The largest class table: a modulus above FOLD_BASE is its own base,
        # so M*Q gets a bincount of M*Q float64 entries (every table of the
        # endpoint-only aggregate is one too); the tables below fit in FOLD_BASE.
        if 8 * self.M * Q > prime_engine.MAX_TABLE_BYTES:
            raise CapacityError(
                f"class table mod M*Q = {self.M * Q} needs {8 * self.M * Q} bytes, "
                f"over guard {prime_engine.MAX_TABLE_BYTES}"
            )


def _deviation_sum(tables: Iterable[np.ndarray], N: int) -> float:
    """Sum over class tables theta_by_a, one per modulus m = len(theta_by_a),
    of max over a coprime to m of |theta_by_a[a] - N/phi(m)|.

    exact_sum rounds the exact sum, so the order of the tables does not matter.
    """
    terms = []
    for theta_by_a in tables:
        mod = theta_by_a.size
        coprime = np.ones(mod, dtype=bool)
        for p in factorize(mod):
            coprime[::p] = False
        target = N / np.count_nonzero(coprime)  # phi(mod) residues are coprime
        terms.append(float(np.abs(theta_by_a[coprime] - target).max()))
    return prime_engine.exact_sum(terms)


def _moduli(M: int, Q: int) -> list[int]:
    """The moduli Mq, q <= Q with gcd(q, M) = 1, ascending."""
    return [M * q for q in range(1, Q + 1) if gcd(q, M) == 1]


def _divisors(n: int) -> list[int]:
    """All divisors of n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return divs


def _fold_cover(moduli: list[int]) -> list[tuple[int, list[int]]]:
    """Greedy cover of the ascending moduli by (base, covered) pairs.

    Each modulus is covered once and divides its base.  The largest modulus
    m not yet covered takes as base the multiple of m <= FOLD_BASE that the
    most uncovered moduli divide (the smallest on a tie); a modulus above
    FOLD_BASE is its own base and covers only itself.  hits[b] counts the
    uncovered moduli that divide b, and a base's moduli come from its
    divisors, so each modulus enters and leaves hits once: the cover costs
    O(FOLD_BASE log Q) in all, not a scan of the moduli left per base.
    """
    left = {m for m in moduli if m <= FOLD_BASE}
    hits = np.zeros(FOLD_BASE + 1, dtype=np.int64)
    for m in left:
        hits[m::m] += 1
    cover = []
    for m in reversed(moduli):
        if m > FOLD_BASE:
            cover.append((m, [m]))
        elif m in left:
            base = m * (1 + int(np.argmax(hits[m::m])))
            covered = sorted(d for d in _divisors(base) if d in left)
            for d in covered:
                hits[d::d] -= 1
            left.difference_update(covered)
            cover.append((base, covered))
    return cover


def _folded_tables(p: np.ndarray, moduli: list[int]) -> Iterator[np.ndarray]:
    """Yield the table of sum of log p by class mod m for each modulus m,
    in the order of _fold_cover's bases.

    If m divides b, the class table mod m is the table mod b folded:
    table_b.reshape(-1, m).sum(axis=0).  So one weighted bincount per base
    serves every modulus the base covers.  The fold adds partial sums in
    another order than increasing p, so an entry can differ from a
    per-modulus bincount in its last bits.
    """
    logs = np.log(p.astype(np.float64))
    # p <= 2N <= 2 * MAX_N < 2**32, so the sieve's table is uint32.  Its
    # remainders by each base divide by an invariant integer (residues) and
    # land in one intp buffer, which bincount reads without a cast copy.
    index = np.empty(p.size, dtype=np.intp)
    for base, covered in _fold_cover(moduli):
        table = np.bincount(prime_engine.residues(p, base, index), weights=logs, minlength=base)
        for m in covered:
            yield table.reshape(-1, m).sum(axis=0)


def _moduli_sum(p: np.ndarray, M: int, Q: int, N: int) -> float:
    """Sum over q <= Q with gcd(q, M) = 1 of the worst-residue deviation mod
    Mq, from the folded class tables."""
    return _deviation_sum(_folded_tables(p, _moduli(M, Q)), N)


def bv_sum(cfg: BVConfig) -> float:
    """Classical sum: Sum_{q <= Q} max_{(a,q)=1} |theta(N; q, a) - N/phi(q)|."""
    if cfg.M != 1:
        raise DomainError("classical sum requires M = 1")
    return _moduli_sum(prime_engine.primes_upto(cfg.N).primes, 1, cfg.Q, cfg.N)


def bv_sum_restricted(cfg: BVConfig) -> float:
    """P-restricted dyadic sum.

    Sum over q <= Q with gcd(q, M) = 1 of the worst-residue deviation
    |sum_{N < p <= 2N, p = a (mod Mq)} log p - N/phi(Mq)|, a coprime to Mq.
    """
    N = cfg.N
    p = prime_engine.sieve_range(N + 1, 2 * N).primes
    return _moduli_sum(p, cfg.M, cfg.Q, N)


def estar_aggregate(cfg: BVConfig) -> float:
    """Sum over q <= Q with gcd(q, M) = 1 of E*(N, Mq).

    With use_estar off, each term degrades to the endpoint deviation
    max_{(a, Mq)=1} |E(N; Mq, a)|, the worst-residue term of bv_sum over
    all primes <= N.  This path does not fold: one weighted bincount per
    modulus adds each class's logs in increasing p, as the cumulative sums
    of ap_error_star do, so E* >= endpoint holds term by term with no
    slack.  A folded table adds them in another order and can exceed E*
    by rounding: E*(3000, 6) is 4.5e-13 below its folded endpoint term.
    """
    X = cfg.N
    table = prime_engine.primes_upto(X)
    moduli = _moduli(cfg.M, cfg.Q)
    if not cfg.use_estar:
        p = table.primes
        logs = np.log(p.astype(np.float64))
        index = np.empty(p.size, dtype=np.intp)
        tables = (
            np.bincount(prime_engine.residues(p, m, index), weights=logs, minlength=m)
            for m in moduli
        )
        return _deviation_sum(tables, X)
    return prime_engine.exact_sum([prime_engine.ap_error_star(X, m, table) for m in moduli])
