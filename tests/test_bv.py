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


def test_work_guard_at_its_limit(monkeypatch):
    # N = 1000 bounds 182 primes <= N and 290 in (N, 2N]; Q = 5, M = 6 gives
    # Q*P + M*Q(Q+1)/2 = 5 * 290 + 90 = 1540 entries of work.  No sum is run.
    monkeypatch.setattr(bv, "MAX_BV_WORK", 1540)
    bv.BVConfig(N=1000, Q=5, M=6)
    monkeypatch.setattr(bv, "MAX_BV_WORK", 1539)
    with pytest.raises(CapacityError):
        bv.BVConfig(N=1000, Q=5, M=6)


def test_work_guard_admits_benchmark_sizes_and_refuses_large_q():
    # perfbench's largest sums (3.8e8) and N = 1e5, Q = 2e4 (5.5e8) pass;
    # N = 1e8, Q = 2e4 (2.2e11) ran past 45 s before the guard.
    bv.BVConfig(N=10_099_999, Q=300)
    bv.BVConfig(N=10_099_999, Q=300, M=6)
    bv.BVConfig(N=10**5, Q=2 * 10**4)
    with pytest.raises(CapacityError):
        bv.BVConfig(N=10**8, Q=2 * 10**4)


def test_class_table_guard_at_its_limit(monkeypatch):
    # The largest class table has M*Q = 30 * 5 = 150 float64 entries: 1200
    # bytes.  No table is built.
    monkeypatch.setattr(prime_engine, "MAX_TABLE_BYTES", 1200)
    bv.BVConfig(N=1000, Q=5, M=30)
    monkeypatch.setattr(prime_engine, "MAX_TABLE_BYTES", 1199)
    with pytest.raises(CapacityError, match="class table"):
        bv.BVConfig(N=1000, Q=5, M=30)


def test_class_table_guard_refuses_a_primorial_base_past_the_fold():
    # M = 23# = 223092870 passes the work guard at N = 3e8, Q = 1, but its one
    # table would take 1.8 GB.
    with pytest.raises(CapacityError, match="class table"):
        bv.BVConfig(N=3 * 10**8, Q=1, M=223092870)


def test_bv_sum_matches_brute_force():
    N, Q = 2000, 8
    got = bv.bv_sum(bv.BVConfig(N=N, Q=Q))
    assert got == pytest.approx(brute_bv_sum(N, Q), rel=1e-12)


def p_order_terms(p, moduli, N):
    """Worst-residue term per modulus from one bincount of all of p per
    modulus, which adds each class's logs in increasing p."""
    logs = np.log(p.astype(np.float64))
    terms = {}
    for m in moduli:
        theta_by_a = np.bincount(p % m, weights=logs, minlength=m)
        target = N / int(sympy.totient(m))
        terms[m] = max(abs(float(theta_by_a[a]) - target) for a in range(m) if math.gcd(a, m) == 1)
    return terms


def folded_terms(p, moduli, N):
    """Worst-residue term per modulus from the folded class tables."""
    return {t.size: bv._deviation_sum([t], N) for t in bv._folded_tables(p, moduli)}


def coprime_moduli(M, Q):
    return [M * q for q in range(1, Q + 1) if math.gcd(q, M) == 1]


# (M, Q, FOLD_BASE): each cover has several bases.  Each patched FOLD_BASE
# leaves moduli above it (their own bases) and in (FOLD_BASE/2, FOLD_BASE].
PATCHED_FOLD_CASES = ((1, 40, 32), (6, 20, 64), (30, 12, 256))
FOLD_CASES = ((1, 40, bv.FOLD_BASE), *PATCHED_FOLD_CASES)


def test_folded_terms_match_per_modulus_bincount(monkeypatch):
    N = 20000
    for M, Q, fold_base in FOLD_CASES:
        monkeypatch.setattr(bv, "FOLD_BASE", fold_base)
        moduli = coprime_moduli(M, Q)
        # bv_sum counts primes <= N, bv_sum_restricted those in (N, 2N].
        p = prime_engine.primes_upto(N).primes if M == 1 else prime_engine.sieve_range(N + 1, 2 * N).primes
        expected = p_order_terms(p, moduli, N)
        got = folded_terms(p, moduli, N)
        assert sorted(got) == moduli
        for m in moduli:
            assert got[m] == pytest.approx(expected[m], rel=0, abs=1e-12 * N), (M, Q, fold_base, m)
        cfg = bv.BVConfig(N=N, Q=Q, M=M)
        total = bv.bv_sum(cfg) if M == 1 else bv.bv_sum_restricted(cfg)
        assert total == math.fsum(got.values())


def test_folded_tables_equal_a_fold_of_remainders(monkeypatch):
    # The class tables take their remainders by divide-multiply-subtract;
    # a fold of bincounts of p % base is the same table entry for entry.
    N = 20000
    for M, Q, fold_base in FOLD_CASES:
        monkeypatch.setattr(bv, "FOLD_BASE", fold_base)
        moduli = coprime_moduli(M, Q)
        p = prime_engine.primes_upto(N).primes if M == 1 else prime_engine.sieve_range(N + 1, 2 * N).primes
        logs = np.log(p.astype(np.float64))
        want = []
        for base, covered in bv._fold_cover(moduli):
            table = np.bincount(p % base, weights=logs, minlength=base)
            want += [table.reshape(-1, m).sum(axis=0) for m in covered]
        got = list(bv._folded_tables(p, moduli))
        assert len(got) == len(want) == len(moduli)
        for g, w in zip(got, want):
            assert g.size == w.size and np.array_equal(g, w), (M, Q, fold_base, w.size)


def test_fold_cover_covers_each_modulus_once(monkeypatch):
    for M, Q, fold_base in FOLD_CASES:
        monkeypatch.setattr(bv, "FOLD_BASE", fold_base)
        moduli = coprime_moduli(M, Q)
        cover = bv._fold_cover(moduli)
        assert len(cover) > 1
        assert sorted(m for _, covered in cover for m in covered) == moduli
        for base, covered in cover:
            assert all(base % m == 0 for m in covered)
            assert base <= fold_base or covered == [base]
        if (M, Q, fold_base) in PATCHED_FOLD_CASES:
            assert any(base > fold_base for base, _ in cover)
            assert any(fold_base < 2 * base <= 2 * fold_base for base, _ in cover)


def test_divisors_match_sympy():
    for n in [*range(1, 3001), *(2**32 + d for d in range(-5, 6))]:
        assert sorted(bv._divisors(n)) == sympy.divisors(n), n


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
            # bv_sum folds its class tables; compare it term by term.
            folded = folded_terms(p, list(range(1, Q + 1)), N)
            assert sorted(folded) == list(range(1, Q + 1))
            for q, term in zip(range(1, Q + 1), by_bincount):
                assert folded[q] == pytest.approx(term, rel=0, abs=1e-12 * N)
            assert bv.bv_sum(cfg) == math.fsum(folded.values())


def test_normalized_classical_sum_decays():
    vals = []
    for N in (10**4, 10**5):
        vals.append(bv.bv_sum(bv.BVConfig(N=N, Q=1)) / N)
    assert vals[1] < vals[0]
