"""Predicted main terms, the W function, and the partial Euler product J."""

import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from gpylab import oracle
from gpylab import tuples as tc
from gpylab.errors import CapacityError, DomainError
from gpylab.singular import singular_series

H1 = tc.TupleH((0, 2))
H2 = tc.TupleH((0, 6))


def params(N=10**5, ell1=1, ell2=1, h0=None, V=5):
    R = (3.0 * N) ** 0.2
    return oracle.MainTermParams(H1, H2, ell1, ell2, R, N, V, h0)


def test_g00_identity_with_class_count():
    for H, V in ((H1, 5), (tc.TupleH((0, 2, 6)), 7)):
        val = oracle.g00(H, V)
        S = singular_series(H)
        factor = tc.regular_class_count(H, V) / tc.primorial(V)
        assert val.mid * factor == pytest.approx(S.mid, rel=1e-9)


def test_g00_boundary_small_V():
    val = oracle.g00(H1, 2)
    S = singular_series(H1)
    assert val.mid == pytest.approx(2.0 * S.mid, rel=1e-9)


def test_level_and_t_must_be_finite():
    for R in (math.inf, math.nan):
        with pytest.raises(DomainError):
            oracle.MainTermParams(H1, H2, 1, 1, R, 10**5, 5)
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            oracle.j_product(t, 100)


def test_main_term_params_refuse_N_below_3():
    for N in (1, 2):
        with pytest.raises(DomainError):
            oracle.MainTermParams(H1, H2, 1, 1, 10.0, N, 5)
    assert oracle.main_term_t4(oracle.MainTermParams(H1, H2, 1, 1, 10.0, 3, 5))["error_scale"] > 0


def test_g00_rejects_inadmissible():
    with pytest.raises(DomainError):
        oracle.g00(tc.TupleH((0, 2, 4)), 5)


def test_t4_zero_ell_same_tuple_collapses():
    N, V = 10**5, 5
    R = (3.0 * N) ** 0.2
    p = oracle.MainTermParams(H1, H1, 0, 0, R, N, V)
    out = oracle.main_term_t4(p)
    S = singular_series(H1)
    want = N * math.log(R) ** 2 / 2 * S.mid
    assert out["mid"] == pytest.approx(want, rel=1e-9)


def test_t4_binomial_symmetry():
    a = oracle.main_term_t4(params(ell1=2, ell2=1))
    b = oracle.main_term_t4(params(ell1=1, ell2=2))
    assert a["mid"] == b["mid"]


def test_t4_scales_linearly_in_N():
    p1 = oracle.MainTermParams(H1, H2, 1, 1, 10.0, 10**5, 5)
    p2 = oracle.MainTermParams(H1, H2, 1, 1, 10.0, 2 * 10**5, 5)
    a = oracle.main_term_t4(p1)
    b = oracle.main_term_t4(p2)
    assert b["mid"] == pytest.approx(2 * a["mid"], rel=1e-12)


def test_t4_scopes_differ_by_class_count():
    agg = oracle.main_term_t4(params(), "aggregate")
    per = oracle.main_term_t4(params(), "per_class")
    count = tc.regular_class_count(H1.union(H2), 5)
    assert agg["mid"] == pytest.approx(per["mid"] * count, rel=1e-12)


def test_t4_density_adjustment_factor():
    out = oracle.main_term_t4(params())
    Hu = H1.union(H2)
    share = tc.regular_class_count(Hu, 5) / tc.primorial(5)
    assert out["density_adjusted_mid"] == pytest.approx(out["mid"] * share, rel=1e-12)


def test_t5_case_factor_values():
    lr = math.log(params().R)
    assert oracle.c_r_factor(params(h0=4)) == 1.0
    # h0 inside one tuple: (l1+l2+1) log R / ((l1+1)(r+l1+l2+1)).
    one = oracle.c_r_factor(params(h0=2))
    assert one == pytest.approx(3 * lr / (2 * 4), rel=1e-12)
    both = oracle.c_r_factor(params(h0=0))
    assert both == pytest.approx(4 * 3 * lr / (2 * 2 * 4), rel=1e-12)


def test_t5_outside_case_assembly():
    p = params(h0=8)
    out = oracle.main_term_t5(p)
    S = singular_series(tc.TupleH((0, 2, 6, 8)))
    lr = math.log(p.R)
    want = p.N * 1.0 * 2 * lr**3 / 6 * S.mid
    assert out["mid"] == pytest.approx(want, rel=1e-9)
    assert out["case"] == "outside"


def test_t5_inadmissible_extension_predicts_zero():
    out = oracle.main_term_t5(params(h0=4))
    assert out["mid"] == 0.0
    assert out["density_adjusted_mid"] == 0.0


def test_t5_requires_h0():
    with pytest.raises(DomainError):
        oracle.main_term_t5(params())


def test_w_function_against_mpmath():
    for t in (0.3, 1.0, 5.0, 14.1, 60.0):
        want = complex(1j * t * mpmath.zeta(1 + 1j * t))
        got = oracle.w_function(t)
        assert cmath.isclose(got, want, rel_tol=1e-9)


def test_w_function_series_region_against_mpmath():
    for t in (0.001, 0.01, 0.049):
        want = complex(1j * t * mpmath.zeta(1 + 1j * t))
        assert cmath.isclose(oracle.w_function(t), want, rel_tol=1e-13)


def test_w_conjugate_symmetry():
    for t in (0.02, 0.7, 12.0):
        assert cmath.isclose(
            oracle.w_function(-t), oracle.w_function(t).conjugate(), rel_tol=1e-12
        )


def test_w_at_zero_is_one():
    assert oracle.w_function(0.0) == 1.0 + 0.0j


# B_2, B_4, ..., B_16, exactly: the oracle's own, not the library's.
_BERNOULLI = tuple(
    Fraction(*nd)
    for nd in ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
)


def test_bernoulli_tables():
    want = (sympy.bernoulli(k) for k in range(2, 17, 2))
    assert _BERNOULLI == tuple(Fraction(int(b.p), int(b.q)) for b in want)
    assert oracle._BERNOULLI == tuple(map(float, _BERNOULLI[:5]))


def _em_term_bound(k, t, M):
    """|T_k| = |B_2k / (2k)!| |s (s + 1) ... (s + 2k - 2)| M^-2k, the size of
    the Euler-Maclaurin term of B_2k for zeta(s) at s = 1 + it, elementwise."""
    b = sympy.bernoulli(2 * k)
    poch = np.prod([np.hypot(1.0 + j, t) for j in range(2 * k - 1)], axis=0)
    return abs(float(b / sympy.factorial(2 * k))) * poch * M ** (-2.0 * k)


def test_the_tail_past_the_library_terms_lies_below_rounding():
    """The Euler-Maclaurin terms past oracle._BERNOULLI that the test oracle
    still sums (through B_16), plus Backlund's bound |s + 17| / 18 |T_9| on
    the remainder after them (Edwards, Riemann's Zeta Function, 1974,
    ch. 6), times |t|, lie below 2^-54 |W(it)| for 0 < |t| <= 1000: the
    library's shorter tail rounds to the same W.

    Between grid points: for one M the bound grows with |t|, as every
    |s + j| = hypot(1 + j, t) does, so on the interval of |t| where
    M = max(50, floor(10|t|)) it is largest at the upper end, 5.1 for
    M = 50 and (M + 1) / 10 above.  It is taken there with that M, for every
    M, which covers every t in [-1000, 1000].  |W| is even in t and is
    sampled on a 0.37 grid of (0, 1000]; the bound is held 100 times below
    2^-54 times the least sample, so |W| would have to fall a hundredfold
    between two samples for the claim to fail (near t = 0, where the grid
    starts, |W(it)| >= |1 + it| (1 - (1 - gamma) |t|) > 0.15 for |t| <= 2).
    """
    Ms = np.arange(50, 10**4 + 1, dtype=float)
    t = np.minimum(np.where(Ms == 50, 5.1, (Ms + 1) / 10), 1000.0)
    tail = sum(_em_term_bound(k, t, Ms) for k in range(len(oracle._BERNOULLI) + 1, 9))
    tail += np.hypot(18.0, t) / 18 * _em_term_bound(9, t, Ms)
    w = np.abs(oracle._w_values(np.arange(0.37, 1000, 0.37)))
    assert (t * tail).max() < 2.0**-54 * w.min() / 100


def _w_scalar(t):
    """W(it) by the one-point Euler-Maclaurin sum that _w_values must equal."""
    s = 1.0 + 1j * t
    M = max(50, int(10 * abs(t)))
    total = sum(n ** (-s) for n in range(1, M))
    total += M ** (1 - s) / (s - 1)
    total += 0.5 * M ** (-s)
    poch = s
    fact = 1.0
    for k, b in enumerate(_BERNOULLI, start=1):
        fact *= (2 * k - 1) * (2 * k)
        total += float(b) / fact * poch * M ** (-s - (2 * k - 1))
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return 1j * t * total


# _W_ENTRIES for the chunk-edge tests: a chunk of k rows, each as wide as
# its last row's M - 1, holds k (M - 1) <= 300 entries, or is one row.
_EDGE_ENTRIES = 300


def _edge_ts():
    # M = max(50, floor(10|t|)) leaves 50 below t = 5.1.  At _EDGE_ENTRIES the
    # rows, sorted by M, fall in chunks of M = 50 x 6 | 50, 51, 51, 60, 61
    # (300 entries) | 62, 62, 100 | 101, 150 | 151, 151 (300) | 300 | 301 (300)
    # | 302 | 350 | 350: an edge between rows of one M, edges on either side
    # of a full chunk, and rows wider than _EDGE_ENTRIES alone.
    ts = [4.95, 5.0, 5.05, 0.01, 2.5, 3.3, 4.0]
    ms = [(51, 0.0), (51, 0.5), (60, 0.5), (61, 0.5), (62, 0.25), (62, 0.75), (100, 0.5)]
    ms += [(101, 0.5), (150, 0.5), (151, 0.25), (151, 0.75), (300, 0.5), (301, 0.5)]
    ms += [(302, 0.5), (350, 0.25), (350, 0.75)]
    ts += [(m + f) / 10 for m, f in ms]
    # Unsorted, and every third t negative.
    return [t if i % 3 else -t for i, t in enumerate(ts[::-1])]


# A batch for the tail: rows that share M = 50 (|t| < 5.1) or M = 123
# (t = 12.34 and -12.35), rows with an M of their own, negative t, t = 0
# and the ends t = +-1000.  At t = +-1 the Pochhammer product s(s+1)(s+2)
# is (0, +-10), a real part that is exactly zero.
_TAIL_TS = [0.0, 0.3, -4.9, 1.0, -1.0, 12.34, -12.35, 77.7, -250.05, 1000.0, -1000.0, -0.0, 3.0]


def test_w_values_batch_equals_each_point_alone(monkeypatch):
    ts = _edge_ts()
    for entries in (oracle._W_ENTRIES, _EDGE_ENTRIES):
        monkeypatch.setattr(oracle, "_W_ENTRIES", entries)
        batch = oracle._w_values(np.array(ts)).tolist()
        for t, w in zip(ts, batch):
            assert w == oracle.w_function(t) == _w_scalar(t)
    batch = oracle._w_values(np.array(_TAIL_TS)).tolist()
    for t, w in zip(_TAIL_TS, batch):
        want = 1.0 + 0.0j if t == 0.0 else _w_scalar(t)
        assert w.real == want.real and w.imag == want.imag, t
    # Below about 1e-308 the tail's 1/t overflows: inf + nanj, bit for bit
    # and without a warning, as in Python's complex arithmetic.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (5e-324, -1e-310, -2e-308):
            bits = np.array([oracle.w_function(t), _w_scalar(t)]).view(np.uint64)
            assert bits[:2].tolist() == bits[2:].tolist(), t


def test_w_values_against_mpmath_at_chunk_edges(monkeypatch):
    ts = _edge_ts()
    monkeypatch.setattr(oracle, "_W_ENTRIES", _EDGE_ENTRIES)
    with mpmath.workdps(30):
        want = [complex(1j * t * mpmath.zeta(1 + 1j * mpmath.mpf(t))) for t in ts]
    for w, v in zip(oracle._w_values(np.array(ts)).tolist(), want):
        assert cmath.isclose(w, v, rel_tol=1e-12)


def test_w_values_rows_in_chunks_bound_memory_not_values(monkeypatch):
    # 200 rows with M up to 300: one chunk of every row would hold
    # 200 * 299 floats per array; at 4 * 299 entries a chunk holds at most
    # 4 rows of the widest, so the peak stays under a quarter of that array.
    ts = np.linspace(0.01, 30.0, 200)
    whole = oracle._w_values(ts)
    monkeypatch.setattr(oracle, "_W_ENTRIES", 4 * 299)
    tracemalloc.start()
    try:
        chunked = oracle._w_values(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, whole)
    assert peak < 200 * 299 * 8 // 4


def test_verify_w_bounds_pinned_report():
    rep = oracle.verify_w_bounds(100.0, 0.01)
    assert rep["t0"] is None
    assert rep["t1"] == 14.5
    assert rep["power_bound_worst_t"] == 14.12
    assert rep["power_bound_worst_margin"] == -1.2382872101413174


def test_verify_w_bounds_grid_edges():
    step = 0.05
    rep = oracle.verify_w_bounds(step, step)
    assert rep["power_bound_worst_t"] == step
    for tmax in (math.nextafter(step, 0.0), 1000 + step, math.nan, math.inf):
        with pytest.raises(DomainError):
            oracle.verify_w_bounds(tmax, step)
    for bad_step in (0.0, -step, math.nan):
        with pytest.raises(DomainError):
            oracle.verify_w_bounds(1.0, bad_step)


def test_verify_w_bounds_point_guard(monkeypatch):
    # Step 0.1 puts 20 points on (0, 2]; 0.0975 puts a 21st at 2.0475,
    # inside the grid's half-step margin.  The guard counts as np.arange does.
    monkeypatch.setattr(oracle, "MAX_W_POINTS", 20)
    assert oracle.verify_w_bounds(2.0, 0.1)["step"] == 0.1
    assert oracle.verify_w_bounds(2.0, 0.0976)["step"] == 0.0976
    with pytest.raises(CapacityError):
        oracle.verify_w_bounds(2.0, 0.0975)


def test_j_product_x_guard(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_J_X", 100)
    assert oracle.j_product(1.0, 100) > 1.0
    with pytest.raises(CapacityError):
        oracle.j_product(1.0, 101)


def test_j_product_small_X_by_hand():
    t = 1.0
    want = 1.0
    for p in (2, 3, 5, 7):
        want *= abs(1 - p ** (-1 - 1j * t)) / (1 - 1 / p)
    assert oracle.j_product(t, 10) == pytest.approx(want, rel=1e-12)


def test_j_product_grows_with_X():
    vals = [oracle.j_product(1.0, 10**k) for k in (2, 3, 4)]
    assert vals[0] < vals[1] < vals[2]


def test_compare_straddling_zero_is_not_comparable():
    rep = oracle.compare(1.0, 0.0, 0.5)
    assert rep["comparable"] is False


def test_compare_ratio_bounds_bracket_ratio():
    rep = oracle.compare(2.0, 1.0, 0.1)
    assert rep["comparable"]
    assert rep["ratio_lo"] <= rep["ratio"] <= rep["ratio_hi"]
    assert rep["ratio"] == pytest.approx(2.0)
