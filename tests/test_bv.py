"""Progression error statistics: classical, base-restricted, running-max."""

import math

import numpy as np
import pytest
import sympy

from gpylab import bv
from gpylab import primes as prime_engine
from gpylab.errors import CapacityError, DomainError


def brute_bv_sum(N, Q):
    ps = list(sympy.primerange(2, N + 1))
    total = []
    for q in range(1, Q + 1):
        phi = sympy.totient(q)
        best = 0.0
        for a in range(q):
            if math.gcd(a if a else q, q) != 1:
                continue
            theta = math.fsum(math.log(p) for p in ps if p % q == a)
            best = max(best, abs(theta - N / phi))
        total.append(best)
    return math.fsum(total)


def test_config_validation():
    with pytest.raises(DomainError):
        bv.BVConfig(N=50, Q=1)
    with pytest.raises(DomainError):
        bv.BVConfig(N=1000, Q=0)
    with pytest.raises(DomainError):
        bv.BVConfig(N=1000, Q=600, M=2)
    with pytest.raises(CapacityError):
        bv.BVConfig(N=bv.MAX_N * 10, Q=1)


def test_bv_sum_matches_brute_force():
    N, Q = 2000, 8
    got = bv.bv_sum(bv.BVConfig(N=N, Q=Q))
    assert got == pytest.approx(brute_bv_sum(N, Q), rel=1e-12)


def test_bv_sum_bit_identical_to_per_residue_gcd_loop():
    N, Q = 20000, 40
    p = prime_engine.primes_upto(N).primes
    logs = np.log(p.astype(np.float64))
    terms = []
    for q in range(1, Q + 1):
        theta_by_a = np.bincount(p % q, weights=logs, minlength=q)
        target = N / int(sympy.totient(q))
        best = 0.0
        for a in range(q):
            if math.gcd(a if a else q, q) != 1:
                continue
            best = max(best, abs(float(theta_by_a[a]) - target))
        terms.append(best)
    assert bv.bv_sum(bv.BVConfig(N=N, Q=Q)) == math.fsum(terms)


def test_bv_sum_requires_classical_base():
    with pytest.raises(DomainError):
        bv.bv_sum(bv.BVConfig(N=1000, Q=5, M=6))


def test_restricted_sum_matches_brute_force():
    N, Q, M = 1500, 4, 6
    cfg = bv.BVConfig(N=N, Q=Q, M=M)
    ps = list(sympy.primerange(N + 1, 2 * N + 1))
    total = []
    for q in range(1, Q + 1):
        if math.gcd(q, M) != 1:
            continue
        mod = M * q
        phi = sympy.totient(mod)
        best = 0.0
        for a in range(mod):
            if math.gcd(a if a else mod, mod) != 1:
                continue
            theta = math.fsum(math.log(p) for p in ps if p % mod == a)
            best = max(best, abs(theta - N / phi))
        total.append(best)
    assert bv.bv_sum_restricted(cfg) == pytest.approx(math.fsum(total), rel=1e-12)


def test_estar_dominates_endpoint_version():
    N, Q = 3000, 5
    star = bv.estar_aggregate(bv.BVConfig(N=N, Q=Q, use_estar=True))
    endpoint = bv.estar_aggregate(bv.BVConfig(N=N, Q=Q, use_estar=False))
    assert star >= endpoint - 1e-9


def test_estar_endpoint_equals_max_ap_error():
    N = 3000
    table = prime_engine.primes_upto(N)
    for Q, M in ((12, 1), (8, 6)):
        terms = []
        for q in range(1, Q + 1):
            if math.gcd(q, M) != 1:
                continue
            mod = M * q
            terms.append(max(
                abs(prime_engine.ap_error(N, mod, a, table))
                for a in range(mod) if math.gcd(a if a else mod, mod) == 1
            ))
        cfg = bv.BVConfig(N=N, Q=Q, M=M, use_estar=False)
        assert bv.estar_aggregate(cfg) == math.fsum(terms)


def test_normalized_classical_sum_decays():
    vals = []
    for N in (10**4, 10**5):
        vals.append(bv.bv_sum(bv.BVConfig(N=N, Q=1)) / N)
    assert vals[1] < vals[0]
