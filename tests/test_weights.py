"""Sieve weights: single values, vectorized windows, and the pair sums."""

import collections
import functools
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpylab import primes as prime_engine
from gpylab import tuples as tc
from gpylab import weights
from gpylab.errors import CapacityError, DomainError

H1 = tc.TupleH((0, 2))
H2 = tc.TupleH((0, 6))


mobius = functools.lru_cache(maxsize=None)(sympy.mobius)


@functools.lru_cache(maxsize=None)
def log_monomials(d, a):
    """(log R - sum_{p | d} log p)^a for squarefree d, as pairs (monomial,
    integer coefficient); a monomial is (k0, (p, k), ...) for
    log R^k0 prod log p^k."""
    ps = sympy.primefactors(d)
    out = []
    # Stars and bars: the exponents of log R and of each log p sum to a.
    for cuts in itertools.combinations(range(a + len(ps)), len(ps)):
        bounds = (-1, *cuts, a + len(ps))
        ks = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        multinomial = math.factorial(a) // math.prod(math.factorial(k) for k in ks)
        monomial = (ks[0], *((p, k) for p, k in zip(ps, ks[1:]) if k))
        out.append((monomial, (-1) ** (a - ks[0]) * multinomial))
    return out


def brute_lambda(n, H, ell, R, absolute=False):
    """Divisor-sum definition over squarefree d <= R; with absolute, |mu(d)|
    in place of mu(d).

    Each term mu(d) (log R - sum_{p | d} log p)^a is expanded into monomials
    in log R and the log p, and their integer coefficients are added
    exactly, so a sum that cancels identically is exactly 0.0."""
    value = math.prod(n + h for h in H.shifts)
    a = H.size + ell
    coeffs = collections.Counter()
    for d in range(1, int(R) + 1):
        mu = int(mobius(d))
        if mu == 0 or value % d != 0:
            continue
        for monomial, c in log_monomials(d, a):
            coeffs[monomial] += (abs(mu) if absolute else mu) * c
    log_R = math.log(R)
    terms = [
        c * log_R ** k0 * math.prod(math.log(p) ** k for p, k in logs)
        for (k0, *logs), c in coeffs.items() if c
    ]
    return math.fsum(terms) / math.factorial(a)


def brute_pair_sum(Ha, Hb, e1, e2, params, h0=None, absolute=False):
    Hu = Ha.union(Hb)
    P = tc.primorial(params.V)
    total = []
    for n in range(params.N + 1, 2 * params.N + 1):
        if any(math.gcd(n + h, P) != 1 for h in Hu.shifts):
            continue
        w = brute_lambda(n, Ha, e1, params.R, absolute) * brute_lambda(n, Hb, e2, params.R, absolute)
        if h0 is None:
            total.append(w)
        elif sympy.isprime(n + h0):
            total.append(w * math.log(n + h0))
    return math.fsum(total)


def assert_pair_sums_agree(got, want, Ha, Hb, ells, params, h0=None):
    """rel 1e-12; near a true sum of 0 the rounding scales with the terms that
    cancel, so abs 1e-12 times the brute-force sum with |mu(d)| for mu(d),
    computed only when the relative check fails."""
    if got != pytest.approx(want, rel=1e-12, abs=0):
        scale = brute_pair_sum(Ha, Hb, *ells, params, h0=h0, absolute=True)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


def test_polynomial_value():
    assert weights.polynomial_value(5, H1) == 5 * 7
    assert weights.polynomial_value(1, tc.TupleH((0, 2, 6))) == 1 * 3 * 7


def test_lambda_R_matches_divisor_sum():
    for n in (7, 11, 29, 101, 210):
        for ell in (0, 1):
            got = weights.lambda_R(n, H1, ell, 30.0)
            want = brute_lambda(n, H1, ell, 30.0)
            assert got == pytest.approx(want, abs=1e-10)


def test_lambda_R_is_exactly_zero_where_its_mobius_sum_cancels():
    # 4 + 11 = 15 = 3 * 5 <= 23: with a = 1 < |S| = 2 the divisor sum
    # log 23 - log 23/3 - log 23/5 + log 23/15 cancels identically.
    H = tc.TupleH((11,))
    assert weights.lambda_R(4, H, 0, 23.0) == 0.0
    # With a = 2 = |S| it is (log 3)(log 5) / 2! * 2!, closed but not zero.
    assert weights.lambda_R(4, H, 1, 23.0) == pytest.approx(math.log(3) * math.log(5), rel=1e-15)
    # 15 > R = 14: the walk misses d = 15, leaving log 15 - log 14.
    assert weights.lambda_R(4, H, 0, 14.0) == pytest.approx(math.log(15 / 14), rel=1e-12)
    # The exact check itself: closed and more primes than a; then |S| = a,
    # prod S > R, and a prime factor the walk does not take.
    assert weights._cancels(4, H, [3, 5], 1, 23.0)
    assert not weights._cancels(4, H, [3, 5], 2, 23.0)
    assert not weights._cancels(4, H, [3, 5], 1, 14.0)
    assert not weights._cancels(4, H, [3], 0, 23.0)


def window_candidates(H, params, per_class=None):
    """The candidates of the whole window and m, their number per period P
    (their number where P > N): the one chunk of _window_chunks at span 2N.
    lambda_window assumes candidates free of prime factors up to V."""
    _, cands, m = next(weights._window_chunks(H, params, per_class, 2 * params.N))
    return cands, m


def check_window_against_brute_force(H, ell, params):
    cands, m = window_candidates(H, params)
    vals = weights.lambda_window(cands, m, H, ell, params).tolist()
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
    cands, m = window_candidates(H1.union(H2), params)
    gc.collect()
    gc.disable()
    try:
        weights.lambda_window(cands, m, H1, 1, params)
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
    cands, m = window_candidates(Hu, params)
    assert np.array_equal(cands, n[regular])
    assert m == cands.size


@pytest.mark.parametrize("V, N", [(5, 7), (5, 1001), (5, 2023), (7, 100), (7, 1001), (7, 4999)])
def test_window_is_the_gcd_filter_from_one_period(V, N):
    # N < P sieves the window itself; otherwise one period is tiled and the
    # last, partial one cut at 2N.
    P = tc.primorial(V)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    for Hu in (H1.union(H2), tc.TupleH((0, 2, 6, 8)), tc.TupleH((1, 7, 13))):
        regular = np.ones(N, dtype=bool)
        for h in Hu.shifts:
            regular &= np.gcd(n + h, P) == 1
        params = weights.WeightParams(K=3, ell=0, R=60.0, V=V, N=N)
        cands, m = window_candidates(Hu, params)
        assert np.array_equal(cands, n[regular])
        assert m == (tc.regular_class_count(Hu, V) if N >= P else cands.size)
        assert (cands[m:] - cands[:-m] == P).all()


def lambda_R_of(cands, H, params):
    return [weights.lambda_R(int(n), H, 1, params.R) for n in cands]


def test_lambda_window_tiles_the_root_flags_every_q_periods():
    # m = 3 and 4 regular classes mod 30, each window ending in a partial
    # period; the top level tiles for q <= 67 (q m < size) and reduces every
    # candidate for the primes in (67, 100].
    params = weights.WeightParams(K=3, ell=1, R=100.0, V=5, N=2019)
    for H, m_want, size in ((H1, 3, 203), (tc.TupleH((1, 7, 13)), 4, 270)):
        cands, m = window_candidates(H, params)
        assert (m, cands.size) == (m_want, size)
        tiled = weights.lambda_window(cands, m, H, 1, params).tolist()
        assert tiled == weights.lambda_window(cands, cands.size, H, 1, params).tolist()
        assert tiled == lambda_R_of(cands, H, params)


def test_lambda_window_on_one_class_and_after_the_prime_filter():
    params = weights.WeightParams(K=2, ell=1, R=100.0, V=5, N=3001)
    cands, m = window_candidates(H1, params, 11)
    assert m == 1 and cands.size == 100
    assert weights.lambda_window(cands, m, H1, 1, params).tolist() == lambda_R_of(cands, H1, params)
    # The theta sum's n + 6 prime: no period, so m is the size.
    cands, m = window_candidates(H1, params)
    cands = cands[[sympy.isprime(int(n) + 6) for n in cands]]
    assert cands.size == 86
    with pytest.raises(AssertionError):
        weights.lambda_window(cands, m, H1, 1, params)
    assert weights.lambda_window(cands, cands.size, H1, 1, params).tolist() == lambda_R_of(
        cands, H1, params
    )


def test_window_memory_at_v31_is_a_few_bytes_per_n():
    # A table indexed by n mod P would take primorial(31) ~ 2e11 bytes.
    H14 = tc.TupleH((0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50))
    N = 10**6
    params = weights.WeightParams(K=14, ell=0, R=60.0, V=31, N=N)
    tracemalloc.start()
    try:
        cands, _ = window_candidates(H14, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * N
    P = tc.primorial(31)
    assert cands.size > 0
    assert all(math.gcd(int(n) + h, P) == 1 for n in cands for h in H14.shifts)


def test_lambda_window_memory_on_a_mask_window():
    # No deeper d q' <= 31.3 exists for q > 5, so every node adds its term
    # by strided slices: the walk allocates the output and little else.
    H = tc.TupleH((0, 2, 6, 8))
    params = weights.WeightParams(K=4, ell=1, R=31.3, V=5, N=10**6)
    cands, m = window_candidates(H, params)
    assert (cands.size, m) == (33334, 1)
    tracemalloc.start()
    try:
        vals = weights.lambda_window(cands, m, H, 1, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * cands.size
    assert vals[:50].tolist() == lambda_R_of(cands[:50], H, params)


def test_pair_sum_direct_memory_on_a_mask_window():
    # 333 334 candidates, walked in chunks of about _CHUNK: no array spans
    # the window, whose candidates alone take 2.7 MB.
    Ha, Hb = tc.TupleH((0, 2, 6)), tc.TupleH((2, 6, 8))
    params = weights.WeightParams(K=3, ell=1, R=31.3, V=5, N=10**7)
    tracemalloc.start()
    try:
        got = weights.pair_sum_direct(Ha, Hb, 1, 1, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert got == pytest.approx(weights.pair_sum_divisor(Ha, Hb, 1, 1, params), rel=1e-12)


@pytest.mark.parametrize("V, N, span", [
    (5, 1000, 1), (5, 1000, 29), (5, 1000, 30), (5, 1000, 211), (5, 1000, 10**9),
    (7, 4999, 1000), (7, 4999, 2499), (7, 4999, 2500), (31, 2000, 97),
])
def test_window_ranges_tile_the_window(V, N, span):
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=V, N=N)
    P = tc.primorial(V)
    ranges = list(weights._window_ranges(params, span))
    assert ranges[0].start == N + 1 and ranges[-1].stop == 2 * N + 1
    assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
    assert len(ranges) <= max(1, N // span)
    # One width, of whole periods where it reaches P, from span to
    # 2 span + P; only the last range may be shorter.
    width = len(ranges[0])
    assert all(len(ns) == width for ns in ranges[:-1])
    if len(ranges) > 1:
        assert width % P == 0 or width < P
        assert span <= width <= 2 * span + P


@pytest.mark.parametrize("V, N", [(5, 600), (7, 1000), (31, 600)])
def test_window_chunks_do_not_change_the_sums(monkeypatch, V, N):
    # At these N one default chunk holds the whole window.  The pair sums
    # ask for about _CHUNK candidates, m of every P n (one in one class);
    # the detector for _CHUNK n.  So _CHUNK = 1 cuts pieces of a period (of
    # one n in the detector), m and P one period, 7 m and 7 P seven, and
    # 2^40 the whole window.  At V = 31, P > N: every chunk is a piece.
    P = tc.primorial(V)
    m = tc.regular_class_count(H1.union(H2), V)
    A = tc.TupleH((0, 2, 6, 8))
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=V, N=N)
    cls = int(window_candidates(H1.union(H2), params)[0][0])

    def sums():
        return (
            weights.pair_sum_direct(H1, H2, 1, 1, params),
            weights.pair_sum_direct(H1, H2, 1, 1, params, per_class=cls),
            weights.pair_sum_theta(H1, H2, 1, 1, 8, params),
            weights.detector_sum(A, params)["value"],
        )

    want = sums()
    assert all(want)
    for chunk in (1, m, 7 * m, P, 7 * P, 2**40):
        monkeypatch.setattr(weights, "_CHUNK", chunk)
        assert sums() == want


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


def test_expansion_budget_at_r_squared_1e7(monkeypatch):
    # 3162.27^2 < 10^7 < 3162.28^2.  With no prime in (V, R] for the direct
    # route and d = 1 alone in the divisor route's table, the passing R runs
    # a one-d expansion (d = e = 1) instead of the full one.
    monkeypatch.setattr(weights, "_mask_primes", lambda params: [])
    monkeypatch.setattr(weights, "_rough_divisors", lambda params: (np.array([1]), np.array([1])))
    params = weights.WeightParams(K=2, ell=1, R=3162.27, V=5, N=1000)
    direct = weights.pair_sum_direct(H1, H2, 1, 1, params)
    assert direct > 0
    assert weights.pair_sum_divisor(H1, H2, 1, 1, params) == pytest.approx(direct, rel=1e-12)
    params = weights.WeightParams(K=2, ell=1, R=3162.28, V=5, N=1000)
    with pytest.raises(CapacityError, match="expansion budget"):
        weights.pair_sum_divisor(H1, H2, 1, 1, params)


@pytest.mark.parametrize("V, R, has_1001", [(5, 1001.0, True), (5, 1000.99, False),
                                             (7, 1001.0, False), (7, 1000.99, False)])
def test_divisor_table_is_the_factorized_squarefree_rough_d(monkeypatch, V, R, has_1001):
    # 1001 = 7 * 11 * 13: in at V = 5 once R reaches it, out at V = 7.
    want = {}
    for q in range(1, int(R) + 1):
        f = prime_engine.factorize(q)
        if all(e == 1 and p > V for p, e in f.items()):
            want[q] = (-1) ** len(f)
    assert (1001 in want) == has_1001
    seen = []
    table = weights._rough_divisors

    def spy(params):
        seen.append(table(params))
        return seen[-1]

    monkeypatch.setattr(weights, "_rough_divisors", spy)
    params = weights.WeightParams(K=2, ell=1, R=R, V=V, N=100)
    weights.pair_sum_divisor(H1, H2, 1, 1, params)
    (ds, mu), = seen
    assert dict(zip(ds.tolist(), mu.tolist())) == want
    assert ds.tolist() == sorted(want)


@pytest.mark.parametrize("H", [H1, tc.TupleH((0, 2, 6, 8)), tc.TupleH((3, 10, 2**40 + 5))])
def test_roots_mod_every_d_match_a_python_loop(H):
    ds = np.arange(1, 201)
    roots, sizes = weights._roots_mod(H, ds)
    want = [
        [x for x in range(d) if math.prod(x + h for h in H.shifts) % d == 0]
        for d in ds.tolist()
    ]
    assert sizes.tolist() == [len(w) for w in want]
    assert roots.tolist() == [x for w in want for x in w]
    assert want[0] == [0]


@pytest.mark.parametrize("run", [1, weights._CHUNK])
def test_roots_mod_in_runs_equals_one_pass(monkeypatch, run):
    # At R = 3162.27 the d cover 1.27 M residues: about 20 runs of _CHUNK,
    # or one run per d at 1.
    params = weights.WeightParams(K=2, ell=1, R=3162.27, V=5, N=1000)
    ds, _ = weights._rough_divisors(params)
    H = tc.TupleH((0, 2, 6, 8))
    monkeypatch.setattr(weights, "_CHUNK", int(ds.sum()))
    whole = weights._roots_mod(H, ds)
    monkeypatch.setattr(weights, "_CHUNK", run)
    for a, b in zip(weights._roots_mod(H, ds), whole):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
# The true sum is 0 (lambda(3; (30,)) = log 33 - log 11 - log 3 + log 1), and
# the routes round to -4.9e-16 and 8.9e-16.
@example(pair=(tc.TupleH((0,)), tc.TupleH((30,))), ells=(0, 0), R=33.0, V=2, N=2)
def test_pair_sum_routes_agree_on_random_inputs(pair, ells, R, V, N):
    Ha, Hb = pair
    params = weights.WeightParams(K=max(Ha.size, Hb.size), ell=ells[0], R=R, V=V, N=N)
    direct = weights.pair_sum_direct(Ha, Hb, *ells, params)
    divisor = weights.pair_sum_divisor(Ha, Hb, *ells, params)
    assert_pair_sums_agree(divisor, direct, Ha, Hb, ells, params)


def test_pair_sum_routes_at_v29():
    # 561 330 classes: the divisor route answers, lifting through
    # P = primorial(29), where a lift based on the smaller modulus wraps int64.
    Ha, Hb = tc.TupleH((0, 2, 6, 8)), tc.TupleH((12, 18, 20, 26))
    params = weights.WeightParams(K=4, ell=0, R=35.0, V=29, N=10**6)
    direct = weights.pair_sum_direct(Ha, Hb, 0, 1, params)
    assert direct > 0
    divisor = weights.pair_sum_divisor(Ha, Hb, 0, 1, params)
    assert divisor == pytest.approx(direct, rel=1e-12)
    # Counts are exact and the terms are summed correctly rounded, so the
    # value is fixed whatever order the pairs are counted in.
    assert divisor == 2552.8868203151096
    # Too many classes for the divisor route; the direct route still answers.
    params = weights.WeightParams(K=2, ell=1, R=40.0, V=29, N=5000)
    assert tc.regular_class_count(H1.union(H2), 29) > tc.MAX_CLASS_MEMBERS
    direct = weights.pair_sum_direct(H1, H2, 1, 1, params)
    assert direct == pytest.approx(brute_pair_sum(H1, H2, 1, 1, params), rel=1e-12)
    with pytest.raises(CapacityError):
        weights.pair_sum_divisor(H1, H2, 1, 1, params)


def test_divisor_route_value_at_r1000():
    # 252 squarefree d <= 1000 coprime to 30, each root of d crossed with
    # the roots of every e it meets; exact counts and one correctly
    # rounded sum fix the value.
    Ha, Hb = tc.TupleH((152, 390)), tc.TupleH((152, 306))
    params = weights.WeightParams(K=2, ell=2, R=1000.0, V=5, N=10**5)
    divisor = weights.pair_sum_divisor(Ha, Hb, 2, 2, params)
    assert divisor == 45058223.24557132
    assert weights.pair_sum_direct(Ha, Hb, 2, 2, params) == pytest.approx(divisor, rel=1e-12)


def test_divisor_route_memory_at_r1000():
    # The seed-7 cross item.  Blocks of at most 2^15 lifted classes and
    # int32 tables over the pairs (d, e) keep the peak near 2.2 MiB;
    # blocks that held every (d, y) table at once would take about 4.2 MiB.
    Ha, Hb = tc.TupleH((152, 390)), tc.TupleH((152, 306))
    params = weights.WeightParams(K=2, ell=2, R=1000.0, V=5, N=10**5)
    tracemalloc.start()
    try:
        weights.pair_sum_divisor(Ha, Hb, 2, 2, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * 2**20


def test_divisor_route_int64_refusal_at_its_boundary():
    # At V = 41, P = 304250263527210, and a lifted modulus d P e' fits
    # int64 while d e' <= 30314.  The d are 1 and the primes in (41, R]:
    # up to R = 178 the largest coprime pair is 167 * 173 = 28891, at
    # R = 179 it is 173 * 179 = 30967, whose lift would wrap and is
    # refused.  Below it count[0, 0] follows from the class formula, and
    # the total and the value are pinned.
    H1 = tc.TupleH((43,))
    H2 = tc.TupleH(tuple(sympy.primerange(43, 1000))[:50])
    N = 10**15
    params = weights.WeightParams(K=50, ell=0, R=178.0, V=41, N=N)
    ds, _, count = weights._pair_counts(H1, H2, params)
    assert ds.size == 28 and int(ds[-1]) == 173
    P = tc.primorial(41)
    reg = tc.regular_classes(H1.union(H2), 41) % P
    assert count[0, 0] == sum((2 * N - c) // P - (N - c) // P for c in reg.tolist()) == 314
    assert int(count.sum()) == 5917
    assert weights.pair_sum_divisor(H1, H2, 1, 0, params) == 7.278129843243012e-26
    params = weights.WeightParams(K=50, ell=0, R=179.0, V=41, N=N)
    with pytest.raises(CapacityError, match=f"{173 * P}\\*179 does not fit"):
        weights.pair_sum_divisor(H1, H2, 1, 0, params)


def test_direct_routes_use_no_class_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("class code called")

    for name in ("regular_classes", "crt_lift", "inverse_mod", "bezout"):
        monkeypatch.setattr(tc, name, refuse)
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    assert weights.pair_sum_direct(H1, H2, 1, 1, params) > 0
    assert weights.pair_sum_direct(H1, H2, 1, 1, params, per_class=11) > 0
    assert weights.pair_sum_theta(H1, H2, 1, 1, 4, params) == 0.0
    assert weights.pair_sum_theta(H1, H2, 1, 1, 8, params) > 0
    assert math.isfinite(weights.detector_sum(tc.TupleH((0, 2, 6)), params)["value"])


def brute_pair_counts(Ha, Hb, ds, params):
    """count[j][i]: the n in (N, 2N] with gcd(P_Hu(n), P) = 1, ds[j] | P_Ha(n)
    and ds[i] | P_Hb(n), in Python ints."""
    P = tc.primorial(params.V)
    count = [[0] * len(ds) for _ in ds]
    for n in range(params.N + 1, 2 * params.N + 1):
        if math.gcd(weights.polynomial_value(n, Ha.union(Hb)), P) != 1:
            continue
        va, vb = weights.polynomial_value(n, Ha), weights.polynomial_value(n, Hb)
        for j in (j for j, d in enumerate(ds) if va % d == 0):
            for i in (i for i, e in enumerate(ds) if vb % e == 0):
                count[j][i] += 1
    return count


@pytest.mark.parametrize("Ha, Hb, V, N, shared", [
    # The shared shift 0: pairs (d, e) with gcd(d, e) > 1 meet.
    (H1, H2, 5, 3000, True),
    # The roots of (0, 2) and (6, 8) are disjoint mod every p > 3, mod 7
    # and mod 11 among them: no pair with gcd(d, e) > 1 meets.
    (H1, tc.TupleH((6, 8)), 5, 3000, False),
    # 21 regular classes mod P = 2310 > N, and the shared shifts 2 and 6.
    (tc.TupleH((0, 2, 6)), tc.TupleH((2, 6, 8)), 11, 2000, True),
])
def test_pair_counts_match_brute_force_pair_by_pair(Ha, Hb, V, N, shared):
    # Each count on its own: in the weighted sum, errors could cancel.
    params = weights.WeightParams(K=Ha.size, ell=1, R=120.0, V=V, N=N)
    ds, _, count = weights._pair_counts(Ha, Hb, params)
    assert count.tolist() == brute_pair_counts(Ha, Hb, ds.tolist(), params)
    common = np.gcd(ds[:, None], ds[None, :]) > 1
    assert count[common].any() == shared


def test_divisor_route_uses_no_window_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("window code called")

    for name in ("_lambda_walk", "lambda_window", "_window_chunks", "_window_ranges"):
        monkeypatch.setattr(weights, name, refuse)
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    assert weights.pair_sum_divisor(H1, H2, 1, 1, params) > 0
    assert weights.pair_sum_divisor(H1, tc.TupleH((6, 8)), 1, 2, params) > 0


@pytest.mark.parametrize("budget", [1, 2**40], ids=["one-row", "one-block"])
def test_pair_counts_in_blocks_match_brute_force_pair_by_pair(monkeypatch, budget):
    # H1 = (0, 14) has one root mod 7 and two mod every other prime, so its
    # d have 1, 2 and 4 roots (7, 11 and 143 = 11 * 13): three groups.  The
    # shared shift 0 makes pairs with gcd(d, e) > 1 meet.  A budget of one
    # class lifts one d by one root y per block; 2^40 takes each group in
    # one block, every y at once.
    Ha, Hb = tc.TupleH((0, 14)), tc.TupleH((0, 6))
    params = weights.WeightParams(K=2, ell=1, R=150.0, V=5, N=3000)
    ds, _ = weights._rough_divisors(params)
    _, sizes = weights._roots_mod(Ha, ds)
    assert {1, 2, 4} <= set(sizes.tolist())
    monkeypatch.setattr(weights, "_BLOCK_CLASSES", budget)
    ds, _, count = weights._pair_counts(Ha, Hb, params)
    assert count.tolist() == brute_pair_counts(Ha, Hb, ds.tolist(), params)
    common = np.gcd(ds[:, None], ds[None, :]) > 1
    assert count[common].any()


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
    for R in (math.inf, math.nan):
        with pytest.raises(DomainError):
            weights.WeightParams(K=2, ell=0, R=R, V=3, N=100)


def test_lambda_R_refuses_a_non_finite_level():
    for R in (math.inf, math.nan):
        with pytest.raises(DomainError):
            weights.lambda_R(101, H1, 0, R)


def test_window_routes_refuse_past_the_window_ceiling(monkeypatch):
    # 8N <= MAX_TABLE_BYTES bounds the window routes, checked before any
    # range is walked; the divisor route, whose work does not grow with N,
    # still answers past it.
    monkeypatch.setattr(prime_engine, "MAX_TABLE_BYTES", 8 * 1000)
    A = tc.TupleH((0, 2, 6))
    routes = (
        lambda params: weights.pair_sum_direct(H1, H2, 1, 1, params),
        lambda params: weights.pair_sum_theta(H1, H2, 1, 1, 8, params),
        lambda params: weights.detector_sum(A, params)["value"],
    )
    at, past = (weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=N) for N in (1000, 1001))
    assert all(route(at) for route in routes)

    def refuse(*args, **kwargs):
        raise AssertionError("window walked")

    monkeypatch.setattr(weights, "_lambda_walk", refuse)
    for route in routes:
        with pytest.raises(CapacityError, match="window N=1001"):
            route(past)
    assert weights.pair_sum_divisor(H1, H2, 1, 1, past) > 0


def test_theta_route_refuses_a_sieve_past_its_ceiling_before_the_window(monkeypatch):
    params = weights.WeightParams(K=2, ell=1, R=30.0, V=5, N=1000)
    h0 = prime_engine.MAX_SIEVE_HI - 2 * params.N
    assert weights.pair_sum_theta(H1, H2, 1, 1, h0, params) >= 0

    def refuse(*args, **kwargs):
        raise AssertionError("window read")

    monkeypatch.setattr(weights, "_window_chunks", refuse)
    with pytest.raises(CapacityError, match="sieve ceiling"):
        weights.pair_sum_theta(H1, H2, 1, 1, h0 + 1, params)


def class_pair_counts(Ha, Hb, ds, params):
    """count[j][i]: the n in (N, 2N] with gcd(P_Hu(n), P) = 1, ds[j] | P_Ha(n)
    and ds[i] | P_Hb(n), in Python ints, by enumerating the classes x mod
    M = [d, e] P: each holds (2N - x) // M - (N - x) // M of the window n."""
    N, P = params.N, tc.primorial(params.V)
    Hu = Ha.union(Hb)
    count = [[0] * len(ds) for _ in ds]
    for j, d in enumerate(ds):
        for i, e in enumerate(ds):
            M = math.lcm(d, e) * P
            for x in range(M):
                if (
                    math.gcd(weights.polynomial_value(x + P, Hu), P) == 1
                    and weights.polynomial_value(x + M, Ha) % d == 0
                    and weights.polynomial_value(x + M, Hb) % e == 0
                ):
                    count[j][i] += (2 * N - x) // M - (N - x) // M
    return count


def test_class_oracle_matches_brute_force_pair_counts():
    params = weights.WeightParams(K=2, ell=1, R=12.5, V=5, N=3000)
    ds = [1, 7, 11, 13]
    Hb = tc.TupleH((2, 6))
    assert class_pair_counts(H1, Hb, ds, params) == brute_pair_counts(H1, Hb, ds, params)


@pytest.mark.parametrize("N", [2**27 + 1, 10**17, 2**62 - 1])
def test_pair_counts_past_the_window_ceiling(N):
    # R = 12.5, V = 5: d in {1, 7, 11}.  The window routes refuse every N
    # here; the divisor route counts each pair exactly, up to int64's 2N.
    Hb = tc.TupleH((2, 6))
    params = weights.WeightParams(K=2, ell=1, R=12.5, V=5, N=N)
    ds, _, count = weights._pair_counts(H1, Hb, params)
    assert ds.tolist() == [1, 7, 11]
    assert count.tolist() == class_pair_counts(H1, Hb, ds.tolist(), params)
    assert weights.pair_sum_divisor(H1, Hb, 1, 1, params) > 0


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


def test_detector_sum_takes_a_shift_past_the_uint32_table():
    # n + 2**33 is never a prime <= 3N, and N + 1 + 2**33 does not fit the
    # uint32 table of primes <= 3N: the inner weight skips that shift.
    A = tc.TupleH((0, 2, 2**33))
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
# The only regular n is 4, and 4 + 11 = 15 <= R: Lambda = log R - log R/3
# - log R/5 + log R/15 = 0, which the oracle returns as exactly 0.0.  The
# walk happens to round to 0.0 at R = 16 and did not at R = 23.
@example(A={11}, K=1, ell=0, R=16.0, V=2, N=2)
@example(A={11}, K=1, ell=0, R=23.0, V=2, N=2)
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
# The true sum is 0 (n = 9 is the only term: lambda(9; (24,)) = log 33 - log 11
# - log 3 + log 1), and the brute force and the theta route round to -5.8e-16
# and -1.2e-15.
@example(pair=(tc.TupleH((0,)), tc.TupleH((24,))), ells=(0, 0), h0=2, R=33.0, V=2, N=5)
def test_pair_sum_theta_matches_brute_force_on_random_inputs(pair, ells, h0, R, V, N):
    Ha, Hb = pair
    params = weights.WeightParams(K=max(Ha.size, Hb.size), ell=ells[0], R=R, V=V, N=N)
    want = brute_pair_sum(Ha, Hb, *ells, params, h0=h0)
    got = weights.pair_sum_theta(Ha, Hb, *ells, h0, params)
    assert_pair_sums_agree(got, want, Ha, Hb, ells, params, h0)


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
