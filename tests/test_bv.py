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
    # Both add each class's logs in increasing p, so the bound needs no slack.
    N, Q = 3000, 5
    for M in (1, 6):
        star = bv.estar_aggregate(bv.BVConfig(N=N, Q=Q, M=M, use_estar=True))
        endpoint = bv.estar_aggregate(bv.BVConfig(N=N, Q=Q, M=M, use_estar=False))
        assert star >= endpoint


def test_estar_endpoint_equals_max_ap_error():
    N = 3000
    table = prime_engine.primes_upto(N)
    p = table.primes
    logs = np.log(p.astype(np.float64))
    for Q, M in ((12, 1), (8, 6)):
        by_ap_error, by_bincount = [], []
        for q in range(1, Q + 1):
            if math.gcd(q, M) != 1:
                continue
            mod = M * q
            coprime = [a for a in range(mod) if math.gcd(a if a else mod, mod) == 1]
            by_ap_error.append(max(abs(prime_engine.ap_error(N, mod, a, table)) for a in coprime))
            theta_by_a = np.bincount(p % mod, weights=logs, minlength=mod)
            target = N / int(sympy.totient(mod))
            by_bincount.append(max(abs(float(theta_by_a[a]) - target) for a in coprime))
        cfg = bv.BVConfig(N=N, Q=Q, M=M, use_estar=False)
        got = bv.estar_aggregate(cfg)
        assert got == pytest.approx(math.fsum(by_ap_error), rel=1e-12)
        assert got == math.fsum(by_bincount)
        if M == 1:
            assert got == bv.bv_sum(cfg)


def test_normalized_classical_sum_decays():
    vals = []
    for N in (10**4, 10**5):
        vals.append(bv.bv_sum(bv.BVConfig(N=N, Q=1)) / N)
    assert vals[1] < vals[0]
