"""Empirical error statistics for primes in arithmetic progressions.

Three desk-scale statistics: the classical sum over moduli q <= Q of the
worst-residue deviation |theta(N; q, a) - N/phi(q)|, the variant restricted
to moduli Pq with q coprime to a fixed base P (primes counted over the
dyadic window (N, 2N]), and the aggregate of the running maxima E*(X, Mq).
Each statistic sieves the primes it counts, so its only input is a BVConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import primes as prime_engine
from .errors import CapacityError, DomainError

MAX_N = 10**9


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


def _worst_residue(p: np.ndarray, logs: np.ndarray, mod: int, N: int) -> float:
    """max over a coprime to mod of |sum of log p over p = a (mod mod) - N/phi(mod)|."""
    theta_by_a = np.bincount(p % mod, weights=logs, minlength=mod)
    target = N / prime_engine._phi(mod)
    coprime = np.gcd(np.arange(mod), mod) == 1
    return float(np.abs(theta_by_a[coprime] - target).max())


def _moduli_sum(p: np.ndarray, M: int, Q: int, N: int) -> float:
    """Sum over q <= Q with gcd(q, M) = 1 of the worst-residue deviation mod Mq."""
    logs = np.log(p.astype(np.float64))
    return math.fsum(
        _worst_residue(p, logs, M * q, N) for q in range(1, Q + 1) if gcd(q, M) == 1
    )


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
    max_{(a, Mq)=1} |E(N; Mq, a)|, which is the worst-residue sum of
    bv_sum over all primes <= N: one weighted bincount per modulus, so
    O(Mq) memory each.  It adds each class's logs in increasing p, as the
    cumulative sums of ap_error_star do, so E* >= endpoint term by term.
    """
    X, M = cfg.N, cfg.M
    table = prime_engine.primes_upto(X)
    if not cfg.use_estar:
        return _moduli_sum(table.primes, M, cfg.Q, X)
    return math.fsum(
        prime_engine.ap_error_star(X, M * q, table)
        for q in range(1, cfg.Q + 1) if gcd(q, M) == 1
    )
