"""Sieve weights: single values, vectorized windows, and the pair sums."""

import functools
import gc
import itertools
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


mobius = functools.lru_cache(maxsize=None)(sympy.mobius)


def brute_lambda(n, H, ell, R):
    """Divisor-sum definition, term by term over squarefree d <= R."""
    value = math.prod(n + h for h in H.shifts)
    a = H.size + ell
    terms = []
    for d in range(1, int(R) + 1):
        mu = mobius(d)
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


def check_window_against_brute_force(H, ell, params):
    cands = regular_candidates(H, params)
    vals = weights.lambda_window(cands, H, ell, params).tolist()
    want = [brute_lambda(int(n), H, ell, params.R) for n in cands]
    assert vals == pytest.approx(want, rel=1e-12, abs=1e-9)
    # lambda_R runs the same walk, so it agrees exactly.
    assert vals == [weights.lambda_R(int(n), H, ell, params.R) for n in cands]


@pytest.mark.parametrize("R, size", [(6.5, 0), (13.0, 3), (67.0, 16), (71.0, 17), (1000.0, 165)])
def test_lambda_window_matches_brute_force(R, size):
    # |Q| = 0 (no prime in (V, R]) up to 165 (R = 1000) on one walk.
    params = weights.WeightParams(K=2, ell=1, R=R, V=5, N=3000 if R < 1000 else 300)
    assert len(weights._mask_primes(params)) == size
    check_window_against_brute_force(H1, 1, params)


# Shifts = 0 or 2 mod 6 leave a class free mod 2 and mod 3.
shift_sets = st.sets(st.integers(0, 11), min_size=1, max_size=4).map(
    lambda ks: tc.TupleH(tuple(6 * (k // 2) + 2 * (k % 2) for k in ks))
)


@settings(max_examples=60, deadline=None)
@given(
    H=shift_sets.filter(tc.is_admissible),
    ell=st.integers(0, 2),
    R=st.floats(2.0, 200.0),
    V=st.integers(2, 13),
    N=st.integers(1, 3000),
)
def test_lambda_window_matches_brute_force_on_random_inputs(H, ell, R, V, N):
    check_window_against_brute_force(H, ell, weights.WeightParams(K=H.size, ell=ell, R=R, V=V, N=N))


@pytest.mark.parametrize("n", [10**20 + 3, 2**63 + 5])
def test_lambda_R_beyond_int64(n):
    H = tc.TupleH((0, 2, 6))
    for R in (30.0, 200.0):
        assert weights.lambda_R(n, H, 1, R) == pytest.approx(brute_lambda(n, H, 1, R), rel=1e-12, abs=1e-9)


def test_lambda_walk_leaves_no_reference_cycle():
    # Index arrays held by a reference cycle outlive the call until the
    # cyclic collector runs.
    params = weights.WeightParams(K=2, ell=1, R=200.0, V=5, N=3000)
    cands = regular_candidates(H1.union(H2), params)
    gc.collect()
    gc.disable()
    try:
        weights.lambda_window(cands, H1, 1, params)
        weights.lambda_R(10**6 + 3, H1, 1, 200.0)
        weights.pair_sum_divisor(H1, H2, 1, 1, weights.WeightParams(K=2, ell=1, R=100.0, V=5, N=2000))
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    # The roots of (0,2) and (6,8) are disjoint mod 5 and mod 7: a shared
    # prime of d and e leaves no class there.  For (3,9) and (9,15) both
    # n = N, just outside the window (N, 2N], and n = 2N are regular.
    for Ha, Hb in ((H1, H2), (H1, tc.TupleH((6, 8))), (tc.TupleH((3, 9)), tc.TupleH((9, 15)))):
        want = brute_pair_sum(Ha, Hb, 1, 1, params)
        assert want > 0
        assert weights.pair_sum_direct(Ha, Hb, 1, 1, params) == pytest.approx(want, rel=1e-12)
        assert weights.pair_sum_divisor(Ha, Hb, 1, 1, params) == pytest.approx(want, rel=1e-12)


def test_pair_sum_strategies_agree():
    for R, V in ((30.0, 5), (100.0, 5), (60.0, 3)):
        params = weights.WeightParams(K=2, ell=1, R=R, V=V, N=2000)
        direct = weights.pair_sum_direct(H1, H2, 1, 1, params)
        divisor = weights.pair_sum_divisor(H1, H2, 1, 1, params)
        assert divisor == pytest.approx(direct, rel=1e-9)


def rough_squarefree_count(params):
    """The squarefree d <= R whose primes all lie in (V, R], d = 1 included."""
    return sum(
        1 for d in range(1, int(params.R) + 1)
        if mobius(d) != 0 and all(p > params.V for p in sympy.primefactors(d))
    )


def test_divisor_pair_budget_at_its_boundary(monkeypatch):
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=2000)
    pairs = rough_squarefree_count(params) ** 2
    monkeypatch.setattr(weights, "MAX_DIVISOR_PAIRS", pairs)
    assert weights.pair_sum_divisor(H1, H2, 1, 1, params) > 0
    monkeypatch.setattr(weights, "MAX_DIVISOR_PAIRS", pairs - 1)
    with pytest.raises(CapacityError, match="divisor pairs"):
        weights.pair_sum_divisor(H1, H2, 1, 1, params)


def test_rough_value_budget_at_its_boundary(monkeypatch):
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=2000)
    roughs = rough_squarefree_count(params)
    monkeypatch.setattr(weights, "MAX_ROUGH_VALUES", roughs)
    assert weights.pair_sum_divisor(H1, H2, 1, 1, params) > 0
    monkeypatch.setattr(weights, "MAX_ROUGH_VALUES", roughs - 1)
    with pytest.raises(CapacityError, match="squarefree values"):
        weights.pair_sum_divisor(H1, H2, 1, 1, params)


def test_expansion_budget_at_r_squared_1e7(monkeypatch):
    # 3162.27^2 < 10^7 < 3162.28^2.  With no divisor pair allowed, the
    # passing R stops at the pair guard instead of running the expansion.
    monkeypatch.setattr(weights, "MAX_DIVISOR_PAIRS", 0)
    params = weights.WeightParams(K=2, ell=1, R=3162.27, V=5, N=1000)
    with pytest.raises(CapacityError, match="divisor pairs"):
        weights.pair_sum_divisor(H1, H2, 1, 1, params)
    params = weights.WeightParams(K=2, ell=1, R=3162.28, V=5, N=1000)
    with pytest.raises(CapacityError, match="expansion budget"):
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
    Ha, Hb = draw(shift_sets), draw(shift_sets)
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


def test_divisor_route_uses_no_window_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("window code called")

    for name in ("_lambda_walk", "lambda_window", "_window_candidates", "_divides"):
        monkeypatch.setattr(weights, name, refuse)
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    assert weights.pair_sum_divisor(H1, H2, 1, 1, params) > 0
    assert weights.pair_sum_divisor(H1, tc.TupleH((6, 8)), 1, 2, params) > 0


@pytest.mark.parametrize("V, R", [(5, 1000.0), (13, 300.0)])
def test_divisor_batches_do_not_change_the_sum(monkeypatch, V, R):
    params = weights.WeightParams(K=2, ell=1, R=R, V=V, N=10**4)
    want = weights.pair_sum_divisor(H1, H2, 1, 2, params)
    assert want > 0
    # 1: every e' in its own run; 2^40: every e' of a (d, g) in one run.
    for bound in (1, 2**40):
        monkeypatch.setattr(weights, "_MAX_RUN_CLASSES", bound)
        assert weights.pair_sum_divisor(H1, H2, 1, 2, params) == want


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


def brute_detector(A, params):
    """detector_sum by its definition, one n at a time."""
    N, P = params.N, tc.primorial(params.V)
    subsets = [
        H for H in itertools.combinations(A.shifts, params.K)
        if all(len({h % p for h in H}) < p for p in sympy.primerange(2, params.K + 1))
    ]
    terms = []
    for n in range(N + 1, 2 * N + 1):
        psi = math.fsum(
            brute_lambda(n, tc.TupleH(H), params.ell, params.R)
            for H in subsets if all(math.gcd(n + h, P) == 1 for h in H)
        )
        inner = sum(math.log(n + a) for a in A.shifts if n + a <= 3 * N and sympy.isprime(n + a))
        terms.append((inner - math.log(3 * N)) * psi * psi)
    return math.fsum(terms) / (N * float(max(A.shifts)) ** (2 * params.K + 1))


def test_detector_sum_counts_prime_at_window_start():
    # The shift 0 reaches n + 0 = N + 1 = 11, a prime: log 11 belongs in the
    # inner weight at n = 11, where every pair in A is regular.
    A = tc.TupleH((0, 2, 6))
    params = weights.WeightParams(K=2, ell=0, R=8.0, V=3, N=10)
    want = brute_detector(A, params)
    assert weights.detector_sum(A, params)["value"] == pytest.approx(want, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    A=st.sets(st.integers(0, 12), min_size=1, max_size=5).filter(lambda a: max(a) > 0),
    K=st.integers(1, 3),
    ell=st.integers(0, 1),
    R=st.floats(2.0, 30.0),
    V=st.integers(2, 7),
    N=st.integers(1, 40),
)
def test_detector_sum_matches_brute_force_on_random_inputs(A, K, ell, R, V, N):
    A = tc.TupleH(tuple(sorted(A)))
    assume(K <= A.size)
    params = weights.WeightParams(K=K, ell=ell, R=R, V=V, N=N)
    want = brute_detector(A, params)
    got = weights.detector_sum(A, params)["value"]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@settings(max_examples=50, deadline=None)
@given(
    pair=admissible_pairs(),
    ells=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    h0=st.integers(1, 30),
    R=st.floats(2.0, 40.0),
    V=st.integers(2, 7),
    N=st.integers(1, 400),
)
def test_pair_sum_theta_matches_brute_force_on_random_inputs(pair, ells, h0, R, V, N):
    Ha, Hb = pair
    params = weights.WeightParams(K=max(Ha.size, Hb.size), ell=ells[0], R=R, V=V, N=N)
    want = brute_pair_sum(Ha, Hb, *ells, params, h0=h0)
    got = weights.pair_sum_theta(Ha, Hb, *ells, h0, params)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def pair_decomposition(A, params):
    """detector_sum rebuilt from pair sums over ordered pairs of admissible
    K-subsets: psi^2 expands into lambda(H1) lambda(H2) on n regular for
    H1 u H2.  Returns the value and the number of ordered pairs skipped
    because H1 u H2 is not admissible."""
    subsets = [tc.TupleH(H) for H in itertools.combinations(A.shifts, params.K)]
    subsets = [H for H in subsets if tc.is_admissible(H)]
    ell, N = params.ell, params.N

    def pair_terms(Ha, Hb):
        return [weights.pair_sum_theta(Ha, Hb, ell, ell, a, params) for a in A.shifts] + [
            -math.log(3 * N) * weights.pair_sum_divisor(Ha, Hb, ell, ell, params)
        ]

    # (H1, H2) and (H2, H1) give equal sums; checked on one pair, then each
    # unordered pair off the diagonal is counted twice.
    Ha, Hb = next(
        pair for pair in itertools.combinations(subsets, 2)
        if tc.is_admissible(pair[0].union(pair[1]))
    )
    assert pair_terms(Ha, Hb) == pair_terms(Hb, Ha)
    terms, skipped = [], 0
    for i, Ha in enumerate(subsets):
        for Hb in subsets[i:]:
            weight = 1 if Hb is Ha else 2
            if not tc.is_admissible(Ha.union(Hb)):
                skipped += weight
                continue
            terms.extend(weight * t for t in pair_terms(Ha, Hb))
    return math.fsum(terms) / (N * float(max(A.shifts)) ** (2 * params.K + 1)), skipped


@pytest.mark.parametrize("shifts, K, N, R, V, skipped", [
    ((2, 6, 8, 12, 14), 2, 3000, 40.0, 3, 0),
    # The 80 skipped unions cover every class mod 5 <= V, so no n is
    # regular for them; at V = 3 their n would stay regular.
    ((1, 3, 7, 9, 13, 15), 3, 1000, 30.0, 5, 80),
])
def test_detector_sum_is_a_sum_of_pair_sums(shifts, K, N, R, V, skipped):
    A = tc.TupleH(shifts)
    params = weights.WeightParams(K=K, ell=1, R=R, V=V, N=N)
    want, n_skipped = pair_decomposition(A, params)
    assert n_skipped == skipped
    assert weights.detector_sum(A, params)["value"] == pytest.approx(want, rel=1e-12)
