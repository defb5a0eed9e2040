"""Prime sieve, theta statistics, and the primality and factorisation helpers."""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gpylab import primes
from gpylab import tuples as tc
from gpylab.errors import CapacityError, DomainError


def test_primes_upto_counts():
    assert len(primes.primes_upto(10)) == 4
    assert len(primes.primes_upto(1000)) == 168
    assert len(primes.primes_upto(10**5)) == 9592


def test_sieve_range_matches_sympy_on_windows():
    for lo, hi in [(0, 100), (90, 150), (10**6 - 50, 10**6 + 50), (2, 2)]:
        got = primes.sieve_range(lo, hi).primes.tolist()
        want = list(sympy.primerange(max(lo, 2), hi + 1))
        assert got == want


def test_sieve_range_crosses_segment_boundary():
    lo = primes.SEGMENT_SIZE - 100
    hi = primes.SEGMENT_SIZE + 100
    got = primes.sieve_range(lo, hi).primes.tolist()
    assert got == list(sympy.primerange(lo, hi + 1))


@settings(max_examples=30, deadline=None)
@given(lo=st.integers(0, 50000), width=st.integers(0, 2000))
def test_sieve_range_random_windows(lo, width):
    hi = lo + width
    got = primes.sieve_range(lo, hi).primes.tolist()
    assert got == list(sympy.primerange(max(lo, 2), hi + 1))


def test_sieve_range_rejects_bad_bounds():
    with pytest.raises(DomainError):
        primes.sieve_range(10, 5)
    with pytest.raises(CapacityError):
        primes.sieve_range(0, primes.MAX_SIEVE_HI + 1)


def test_contains_uses_binary_search():
    t = primes.primes_upto(100)
    assert 97 in t
    assert 91 not in t
    assert 1 not in t


def test_theta_sum_against_direct_log_sum():
    for x in (10, 100, 1229):
        want = math.fsum(math.log(p) for p in sympy.primerange(2, x + 1))
        assert primes.theta_sum(x) == pytest.approx(want, rel=1e-12)


def test_theta_progression_partitions_theta():
    x, q = 5000, 12
    total = primes.theta_sum(x)
    parts = math.fsum(primes.theta_progression(x, q, a) for a in range(q))
    assert parts == pytest.approx(total, rel=1e-12)


def test_ap_error_by_hand():
    # theta(50; 4, 1) covers 5, 13, 17, 29, 37, 41; phi(4) = 2.
    want = math.fsum(math.log(p) for p in (5, 13, 17, 29, 37, 41)) - 50 / 2
    assert primes.ap_error(50, 4, 1) == pytest.approx(want, rel=1e-12)


def test_ap_error_star_dominates_endpoint_error():
    X, q = 2000, 7
    table = primes.primes_upto(X)
    endpoint = max(
        abs(primes.ap_error(X, q, a, table)) for a in range(1, q) if math.gcd(a, q) == 1
    )
    star = primes.ap_error_star(X, q, table)
    assert star >= endpoint - 1e-9


def test_ap_error_star_brute_force_small():
    X, q = 300, 5
    table = primes.primes_upto(X)
    best = 0.0
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        for x in range(1, X + 1):
            best = max(best, abs(primes.theta_progression(x, q, a, table) - x / 4))
    assert primes.ap_error_star(X, q, table) == pytest.approx(best, rel=1e-9)


def test_is_prime_matches_sympy_on_a_dense_range():
    got = [n for n in range(2 * 10**5 + 1) if primes.is_prime(n)]
    assert got == list(sympy.primerange(0, 2 * 10**5 + 1))


def test_is_prime_rejects_pseudoprimes():
    # 561 is a Carmichael number; the other two are strong pseudoprimes to
    # bases 2, 3, 5, 7 and to every prime base up to 23, respectively.
    for n in (561, 3215031751, 3825123056546413051):
        assert not sympy.isprime(n)
        assert not primes.is_prime(n)
    assert primes.is_prime(2**61 - 1)


def test_is_prime_capacity_bound():
    assert not primes.is_prime(primes.MAX_IS_PRIME_N - 1)  # even
    with pytest.raises(CapacityError):
        primes.is_prime(primes.MAX_IS_PRIME_N)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**9))
def test_factorize_matches_sympy(n):
    assert primes.factorize(n) == sympy.factorint(n)


def test_factorize_at_its_bound():
    bound = primes.MAX_FACTOR_N
    largest_prime = sympy.prevprime(bound)
    for n in (1, 2, bound - 1, bound, largest_prime, 999983 * 999979):
        assert primes.factorize(n) == sympy.factorint(n)
    with pytest.raises(CapacityError):
        primes.factorize(bound + 1)
    with pytest.raises(DomainError):
        primes.factorize(0)


def test_nu_p_rejects_composite_modulus():
    with pytest.raises(DomainError):
        tc.nu_p(tc.TupleH((0, 2)), 4)
