"""Sieve weights: single values, vectorized windows, and the pair sums."""

import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpylab import tuples as tc
from gpylab import weights
from gpylab.errors import CapacityError, DomainError

H1 = tc.TupleH((0, 2))
H2 = tc.TupleH((0, 6))


def brute_lambda(n, H, ell, R):
    """Divisor-sum definition, term by term over squarefree d <= R."""
    value = math.prod(n + h for h in H.shifts)
    a = H.size + ell
    terms = []
    for d in range(1, int(R) + 1):
        mu = sympy.mobius(d)
        if mu == 0 or value % d != 0:
            continue
        terms.append(mu * math.log(R / d) ** a)
    return math.fsum(terms) / math.factorial(a)


def brute_pair_sum(Ha, Hb, e1, e2, params, h0=None):
    Hu = Ha.union(Hb)
    P = tc.primorial(params.V)
    total = []
    for n in range(params.N + 1, 2 * params.N + 1):
        if any(math.gcd(n + h, P) != 1 for h in Hu.shifts):
            continue
        w = brute_lambda(n, Ha, e1, params.R) * brute_lambda(n, Hb, e2, params.R)
        if h0 is None:
            total.append(w)
        elif sympy.isprime(n + h0):
            total.append(w * math.log(n + h0))
    return math.fsum(total)


def test_polynomial_value():
    assert weights.polynomial_value(5, H1) == 5 * 7
    assert weights.polynomial_value(1, tc.TupleH((0, 2, 6))) == 1 * 3 * 7


def test_lambda_R_matches_divisor_sum():
    for n in (7, 11, 29, 101, 210):
        for ell in (0, 1):
            got = weights.lambda_R(n, H1, ell, 30.0)
            want = brute_lambda(n, H1, ell, 30.0)
            assert got == pytest.approx(want, abs=1e-10)


def regular_candidates(H, params):
    # lambda_window assumes candidates free of prime factors up to V.
    return weights._window_candidates(H, params, None)


def test_lambda_window_bitmask_path_matches_lambda_R():
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=500)
    cands = regular_candidates(H1, params)
    vals = weights.lambda_window(cands, H1, 1, params)
    for i in (0, 7, len(cands) - 1):
        assert vals[i] == pytest.approx(weights.lambda_R(int(cands[i]), H1, 1, 30.0), abs=1e-10)


def test_lambda_window_list_path_matches_lambda_R():
    # More than 16 primes in (V, R] forces the per-candidate list path.
    params = weights.WeightParams(K=2, ell=0, R=200.0, V=5, N=300)
    assert len(weights._mask_primes(params)) > weights.MAX_MASK_PRIMES
    cands = regular_candidates(H1, params)
    vals = weights.lambda_window(cands, H1, 0, params)
    for i in (0, 11, len(cands) - 1):
        assert vals[i] == pytest.approx(weights.lambda_R(int(cands[i]), H1, 0, 200.0), abs=1e-9)


@pytest.mark.parametrize("R, size", [(67.0, 16), (71.0, 17)])
def test_lambda_window_at_mask_prime_guard(R, size):
    # |Q| = MAX_MASK_PRIMES = 16 keeps the bitmask table; one more prime walks.
    assert weights.MAX_MASK_PRIMES == 16
    params = weights.WeightParams(K=2, ell=1, R=R, V=5, N=3000)
    assert len(weights._mask_primes(params)) == size
    cands = regular_candidates(H1, params)
    vals = weights.lambda_window(cands, H1, 1, params)
    want = [weights.lambda_R(int(n), H1, 1, R) for n in cands]
    assert vals.tolist() == pytest.approx(want, abs=1e-9)


def test_window_is_the_gcd_filter_at_v29():
    N = 10**6
    Hu = tc.TupleH((0, 2, 6, 8))
    params = weights.WeightParams(K=4, ell=0, R=60.0, V=29, N=N)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    P = tc.primorial(29)
    regular = np.ones(N, dtype=bool)
    for h in Hu.shifts:
        regular &= np.gcd(n + h, P) == 1
    assert np.array_equal(weights._window_candidates(Hu, params, None), n[regular])


def test_window_memory_at_v31_is_a_few_bytes_per_n():
    # A table indexed by n mod P would take primorial(31) ~ 2e11 bytes.
    H14 = tc.TupleH((0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50))
    N = 10**6
    params = weights.WeightParams(K=14, ell=0, R=60.0, V=31, N=N)
    tracemalloc.start()
    try:
        cands = weights._window_candidates(H14, params, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * N
    P = tc.primorial(31)
    assert cands.size > 0
    assert all(math.gcd(int(n) + h, P) == 1 for n in cands for h in H14.shifts)


def test_pair_sum_direct_matches_brute_force():
    params = weights.WeightParams(K=2, ell=1, R=20.0, V=3, N=400)
    got = weights.pair_sum_direct(H1, H2, 1, 1, params)
    want = brute_pair_sum(H1, H2, 1, 1, params)
    assert got == pytest.approx(want, rel=1e-12)


def test_pair_sum_strategies_agree():
    for R, V in ((30.0, 5), (100.0, 5), (60.0, 3)):
        params = weights.WeightParams(K=2, ell=1, R=R, V=V, N=2000)
        direct = weights.pair_sum_direct(H1, H2, 1, 1, params)
        divisor = weights.pair_sum_divisor(H1, H2, 1, 1, params)
        assert divisor == pytest.approx(direct, rel=1e-9)


def test_divisor_pair_budget_at_its_boundary(monkeypatch):
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=2000)
    pairs = len(weights._rough_squarefree(weights._mask_primes(params), params.R)) ** 2
    monkeypatch.setattr(weights, "MAX_DIVISOR_PAIRS", pairs)
    assert weights.pair_sum_divisor(H1, H2, 1, 1, params) > 0
    monkeypatch.setattr(weights, "MAX_DIVISOR_PAIRS", pairs - 1)
    with pytest.raises(CapacityError):
        weights.pair_sum_divisor(H1, H2, 1, 1, params)


def test_per_class_sums_add_up_to_aggregate():
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    Hu = H1.union(H2)
    classes = tc.regular_classes(Hu, 5)
    total = math.fsum(
        weights.pair_sum_direct(H1, H2, 1, 1, params, per_class=int(a)) for a in classes
    )
    agg = weights.pair_sum_direct(H1, H2, 1, 1, params)
    assert total == pytest.approx(agg, rel=1e-12)


def test_per_class_rejects_irregular_class_and_reduces_mod_P():
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    with pytest.raises(DomainError):
        weights.pair_sum_direct(H1, H2, 1, 1, params, per_class=3)  # 3 + 0 is divisible by 3
    for a in (11, 17):
        one = weights.pair_sum_direct(H1, H2, 1, 1, params, per_class=a)
        assert one > 0
        assert weights.pair_sum_direct(H1, H2, 1, 1, params, per_class=a + 30) == one


@st.composite
def admissible_pairs(draw):
    # Shifts = 0 or 2 mod 6 leave a class free mod 2 and mod 3.
    ks = st.sets(st.integers(0, 11), min_size=1, max_size=4)
    Ha, Hb = (tc.TupleH(tuple(6 * (k // 2) + 2 * (k % 2) for k in draw(ks))) for _ in "ab")
    assume(tc.is_admissible(Ha.union(Hb)))
    return Ha, Hb


@settings(max_examples=60, deadline=None)
@given(
    pair=admissible_pairs(),
    ells=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    R=st.floats(2.0, 80.0),
    V=st.integers(2, 13),
    N=st.integers(1, 4000),
)
def test_pair_sum_routes_agree_on_random_inputs(pair, ells, R, V, N):
    Ha, Hb = pair
    params = weights.WeightParams(K=max(Ha.size, Hb.size), ell=ells[0], R=R, V=V, N=N)
    direct = weights.pair_sum_direct(Ha, Hb, *ells, params)
    divisor = weights.pair_sum_divisor(Ha, Hb, *ells, params)
    assert divisor == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_pair_sum_routes_at_v29():
    # 561 330 classes: the divisor route answers, lifting through
    # P = primorial(29), where a lift based on the smaller modulus wraps int64.
    Ha, Hb = tc.TupleH((0, 2, 6, 8)), tc.TupleH((12, 18, 20, 26))
    params = weights.WeightParams(K=4, ell=0, R=35.0, V=29, N=10**6)
    direct = weights.pair_sum_direct(Ha, Hb, 0, 1, params)
    assert direct > 0
    assert weights.pair_sum_divisor(Ha, Hb, 0, 1, params) == pytest.approx(direct, rel=1e-12)
    # Too many classes for the divisor route; the direct route still answers.
    params = weights.WeightParams(K=2, ell=1, R=40.0, V=29, N=5000)
    assert tc.regular_class_count(H1.union(H2), 29) > tc.MAX_CLASS_MEMBERS
    direct = weights.pair_sum_direct(H1, H2, 1, 1, params)
    assert direct == pytest.approx(brute_pair_sum(H1, H2, 1, 1, params), rel=1e-12)
    with pytest.raises(CapacityError):
        weights.pair_sum_divisor(H1, H2, 1, 1, params)


def test_direct_routes_use_no_class_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("class code called")

    monkeypatch.setattr(tc, "regular_classes", refuse)
    monkeypatch.setattr(tc, "crt_lift", refuse)
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    assert weights.pair_sum_direct(H1, H2, 1, 1, params) > 0
    assert weights.pair_sum_direct(H1, H2, 1, 1, params, per_class=11) > 0
    assert weights.pair_sum_theta(H1, H2, 1, 1, 4, params) == 0.0
    assert weights.pair_sum_theta(H1, H2, 1, 1, 8, params) > 0
    assert math.isfinite(weights.detector_sum(tc.TupleH((0, 2, 6)), params)["value"])


def test_pair_sum_rejects_inadmissible_union():
    bad = tc.TupleH((0, 4))  # union {0, 2, 4} covers all residues mod 3
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    with pytest.raises(DomainError):
        weights.pair_sum_direct(H1, bad, 1, 1, params)


def test_pair_sum_theta_matches_brute_force():
    params = weights.WeightParams(K=2, ell=1, R=20.0, V=3, N=300)
    got = weights.pair_sum_theta(H1, H2, 1, 1, 4, params)
    want = brute_pair_sum(H1, H2, 1, 1, params, h0=4)
    assert got == pytest.approx(want, rel=1e-12)


def test_weight_params_validation():
    with pytest.raises(DomainError):
        weights.WeightParams(K=0, ell=0, R=10.0, V=3, N=100)
    with pytest.raises(DomainError):
        weights.WeightParams(K=2, ell=-1, R=10.0, V=3, N=100)
    with pytest.raises(DomainError):
        weights.WeightParams(K=2, ell=0, R=0.5, V=3, N=100)


def test_detector_sum_reports_negative_at_desk_scale():
    A = tc.TupleH(tuple(range(1, 7)))
    params = weights.WeightParams(K=2, ell=0, R=15.0, V=3, N=2000)
    rep = weights.detector_sum(A, params)
    assert rep["subsets"] == 15
    assert math.isfinite(rep["value"])
    assert rep["positive"] == (rep["value"] > 0)


def test_detector_sum_counts_prime_at_window_start():
    # The shift 0 reaches n + 0 = N + 1 = 11, a prime: log 11 belongs in the
    # inner weight at n = 11, where every pair in A is regular.
    A = tc.TupleH((0, 2, 6))
    params = weights.WeightParams(K=2, ell=0, R=8.0, V=3, N=10)
    N, P = params.N, tc.primorial(params.V)
    terms = []
    for n in range(N + 1, 2 * N + 1):
        psi = 0.0
        for H in (tc.TupleH(c) for c in ((0, 2), (0, 6), (2, 6))):
            if all(math.gcd(n + h, P) == 1 for h in H.shifts):
                psi += brute_lambda(n, H, params.ell, params.R)
        inner = sum(math.log(n + a) for a in A.shifts if n + a <= 3 * N and sympy.isprime(n + a))
        terms.append((inner - math.log(3 * N)) * psi * psi)
    want = math.fsum(terms) / (N * 6.0 ** 5)
    assert weights.detector_sum(A, params)["value"] == pytest.approx(want, rel=1e-12)
