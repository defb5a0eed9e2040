"""Independent reference routes used to check gpylab's outputs.

Standard library only, and sharing no code with gpylab, so a check that
passes means two separate implementations agree.  None of this runs inside
a timed section.
"""

from __future__ import annotations

import itertools
import math

# Deterministic Miller-Rabin bases for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_upto(n: int) -> list:
    """Sieve of Eratosthenes on a bytearray."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), flags))


def is_admissible(shifts) -> bool:
    """True when no prime p <= |H| sees every residue class mod p."""
    return all(len({h % p for h in shifts}) < p for p in primes_upto(len(shifts)))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def window_primes(lo: int, hi: int, small: list) -> list:
    """Primes in [lo, hi]: strike multiples of `small`, Miller-Rabin the rest.

    `small` must be every prime up to some bound B.  Survivors are prime
    outright when B^2 >= hi; otherwise each one is tested.
    """
    flags = bytearray([1]) * (hi - lo + 1)
    for p in small:
        first = max(p * p, (lo + p - 1) // p * p)
        if first <= hi:
            flags[first - lo :: p] = bytes(len(range(first, hi + 1, p)))
    survivors = [n for n in itertools.compress(range(lo, hi + 1), flags) if n >= 2]
    if small and small[-1] ** 2 >= hi:
        return survivors
    return [n for n in survivors if is_prime(n)]


def prime_pi_and_sum(n: int) -> tuple[int, int]:
    """(pi(n), sum of primes <= n) by Lucy Hedgehog's recursion, exactly."""
    r = math.isqrt(n)
    vals = [n // i for i in range(1, r + 1)]
    vals += list(range(vals[-1] - 1, 0, -1))
    count = {v: v - 1 for v in vals}
    total = {v: v * (v + 1) // 2 - 1 for v in vals}
    for p in range(2, r + 1):
        if count[p] == count[p - 1]:
            continue
        c0, s0, p2 = count[p - 1], total[p - 1], p * p
        for v in vals:
            if v < p2:
                break
            q = v // p
            count[v] -= count[q] - c0
            total[v] -= p * (total[q] - s0)
    return count[n], total[n]


def phi(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def endpoint_error(X: int, q: int, primes: list) -> float:
    """max over a coprime to q of |theta(X; q, a) - X/phi(q)|."""
    logs = [[] for _ in range(q)]
    for p in primes:
        if p > X:
            break
        logs[p % q].append(math.log(p))
    target = X / phi(q)
    return max(abs(math.fsum(logs[a]) - target) for a in range(q) if math.gcd(a, q) == 1)


def _worst_deviations(primes: list, lo: int, hi: int, moduli: list, N: int) -> list:
    """For each modulus m: max over a coprime to m of
    |sum of log p over lo < p <= hi, p = a (mod m)  -  N / phi(m)|."""
    logs = {m: [[] for _ in range(m)] for m in moduli}
    for p in primes:
        if p > hi:
            break
        if p > lo:
            lp = math.log(p)
            for m in moduli:
                logs[m][p % m].append(lp)
    return [max(abs(math.fsum(logs[m][a]) - N / phi(m)) for a in range(m) if math.gcd(a, m) == 1)
            for m in moduli]


def bv_sum(N: int, Q: int, primes: list) -> float:
    """Sum over q <= Q of the endpoint error of theta(N; q, a)."""
    return math.fsum(_worst_deviations(primes, 0, N, list(range(1, Q + 1)), N))


def bv_sum_restricted(N: int, Q: int, M: int, primes: list) -> float:
    """The same over N < p <= 2N and moduli Mq, q <= Q coprime to M."""
    moduli = [M * q for q in range(1, Q + 1) if math.gcd(q, M) == 1]
    return math.fsum(_worst_deviations(primes, N, 2 * N, moduli, N))


def theta(x: int, primes: list, q: int = 1, a: int = 0) -> float:
    return math.fsum(math.log(p) for p in primes if p <= x and p % q == a)


def j_product(t: float, primes: list, X: int) -> float:
    """prod_{p <= X} |1 - p^(-1-it)| / (1 - 1/p), summed in log space."""
    terms = []
    for p in primes:
        if p > X:
            break
        c = math.cos(t * math.log(p)) / p
        terms.append(0.5 * math.log1p(-2.0 * c + 1.0 / (p * p)) - math.log1p(-1.0 / p))
    return math.exp(math.fsum(terms))


def _lambda(support: tuple, a: int, log_R: float) -> float:
    """(1/a!) sum over squarefree d <= R made of `support` of mu(d) (log R/d)^a."""
    terms = []

    def walk(idx: int, log_d: float, sign: int) -> None:
        terms.append(sign * (log_R - log_d) ** a)
        for i in range(idx, len(support)):
            nxt = log_d + math.log(support[i])
            if nxt <= log_R + 1e-12:
                walk(i + 1, nxt, -sign)

    walk(0, 0.0, 1)
    return math.fsum(terms) / math.factorial(a)


def theta_pair_sum(H1, H2, ell1: int, ell2: int, h0: int, N: int, R: float, V: int) -> float:
    """Brute-force theta-weighted pair sum over regular n in (N, 2N]."""
    small = primes_upto(V)
    Q = [q for q in primes_upto(int(R)) if q > V]
    union = sorted(set(H1) | set(H2))
    base = primes_upto(math.isqrt(2 * N + h0) + 1)
    log_R = math.log(R)
    cache: dict = {}
    terms = []
    for p in window_primes(N + 1 + h0, 2 * N + h0, base):
        n = p - h0
        if any((n + h) % s == 0 for s in small for h in union):
            continue
        lam = []
        for H, ell in ((H1, ell1), (H2, ell2)):
            support = tuple(q for q in Q if any((n + h) % q == 0 for h in H))
            key = (support, len(H) + ell)
            if key not in cache:
                cache[key] = _lambda(support, len(H) + ell, log_R)
            lam.append(cache[key])
        terms.append(lam[0] * lam[1] * math.log(p))
    return math.fsum(terms)


def rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)
