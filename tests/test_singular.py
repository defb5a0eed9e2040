"""Certified singular series intervals, subset averages, quasi-prime density."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpylab import singular
from gpylab import tuples as tc
from gpylab.errors import CapacityError, DomainError

# Twin constant 2 C_2 to 13 digits, from the classical Euler product.
TWIN_CONSTANT = 1.3203236316937

H02 = tc.TupleH((0, 2))


def test_single_shift_series_is_one():
    sv = singular.singular_series(tc.TupleH((0,)))
    assert sv.mid - sv.rad <= 1.0 <= sv.mid + sv.rad
    assert abs(sv.mid - 1.0) < 1e-9


def test_twin_constant_inside_certified_interval():
    for cutoff in (10**4, 10**5, 10**6):
        sv = singular.singular_series(H02, cutoff)
        assert sv.mid - sv.rad <= TWIN_CONSTANT <= sv.mid + sv.rad
    assert singular.singular_series(H02, 10**6).rad < 1e-6


def test_interval_shrinks_and_nests_with_cutoff():
    coarse = singular.singular_series(H02, 10**4)
    fine = singular.singular_series(H02, 10**6)
    assert fine.rad < coarse.rad
    assert coarse.mid - coarse.rad <= fine.mid <= coarse.mid + coarse.rad


def test_inadmissible_tuple_gives_zero():
    sv = singular.singular_series(tc.TupleH((0, 2, 4)))
    assert sv.mid == 0.0 and sv.rad == 0.0


def test_extended_series_matches_union():
    a = singular.singular_series_extended(H02, 6, 10**5)
    b = singular.singular_series(tc.TupleH((0, 2, 6)), 10**5)
    assert a.mid == pytest.approx(b.mid, rel=1e-12)


def brute_average_B(A, k, cutoff):
    total = []
    for combo in itertools.combinations(A.shifts, k):
        sv = singular.singular_series(tc.TupleH(combo), cutoff)
        total.append(sv.mid)
    return math.factorial(k) * math.fsum(total)


def test_average_B_against_direct_enumeration():
    A = tc.TupleH(tuple(range(1, 9)))
    for k in (2, 3):
        B, rad = singular.average_B(A, k, 10**4)
        want = brute_average_B(A, k, 10**4)
        # The enumeration uses interval midpoints; both values agree within
        # the certified radius of the truncated Euler products.
        assert abs(B - want) <= 4 * rad
        assert B == pytest.approx(want, rel=1e-3)


def test_average_B_k1_is_size():
    A = tc.TupleH(tuple(range(1, 21)))
    B, rad = singular.average_B(A, 1)
    assert B == 20.0 and rad == 0.0


def test_s_star_near_one_for_dense_interval():
    A = tc.TupleH(tuple(range(1, 51)))
    assert abs(singular.s_star(A, 2) - 1.0) < 0.2


def test_quasiprime_density_exact_values():
    assert singular.quasiprime_density(tc.TupleH((0,)), 3) == Fraction(1, 3)
    assert singular.quasiprime_density(H02, 5) == Fraction(1 * 1 * 3, 2 * 3 * 5)


@settings(max_examples=40, deadline=None)
@given(
    shifts=st.sets(st.integers(0, 30), min_size=1, max_size=4),
    z=st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_density_times_primorial_equals_direct_count(shifts, z):
    H = tc.TupleH(tuple(shifts))
    Z = tc.primorial(z)
    assert singular.quasiprime_density(H, z) * Z == singular.quasiprime_count(H, z)


def test_histogram_counts_past_255_shifts(monkeypatch):
    # With z = 2 each of the 600 shifts has R = 1/2, and S*(1) is exactly 1
    # unless a per-row count wraps.
    monkeypatch.setattr(singular, "HISTOGRAM_Z", 2)
    A = tc.TupleH(tuple(range(1, 601)))
    assert singular._s_star_truncated(A, [1], 1000)[1] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("z", [7, 13])
def test_histogram_counts_match_quasiprime_densities(monkeypatch, z):
    # Shifts above Z for z = 7, a two-element even half and an odd half that
    # is no progression: the estimate must give k! * the sum of the exact
    # R(H) over k-subsets.
    monkeypatch.setattr(singular, "HISTOGRAM_Z", z)
    A = tc.TupleH((1, 5, 12, 250, 333))
    est = singular._s_star_truncated(A, [2, 3], 1000)
    primes = [p for p in range(2, 1001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    Y = math.prod(Fraction(p, p - 1) for p in primes if p <= z)
    for k in (2, 3):
        r_sum = math.factorial(k) * sum(
            singular.quasiprime_density(tc.TupleH(c), z)
            for c in itertools.combinations(A.shifts, k)
        )
        tail = math.prod((1 - k / p) / (1 - 1 / p) ** k for p in primes if p > z)
        want = float(r_sum * Y**k) * tail / A.size**k
        assert est[k] == pytest.approx(want, rel=1e-9)


def test_histogram_at_z23_is_pinned_and_allocates_no_table_mod_Z():
    # The value the length-Z table gave; a bool array of length Z would need
    # Z bytes, four times the bound on the traced peak.
    A = tc.TupleH(tuple(range(1, 26)))
    tracemalloc.start()
    try:
        assert singular._s_star_truncated(A, [6], 10**5)[6] == 0.01643745104422517
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tc.primorial(singular.HISTOGRAM_Z) // 4


# The values the residue histogram mod primorial(23) gave, as (shifts, k):
# both parity halves progressions, one half only, and neither.
MIXED_13 = (2, 6, 8, 12, 14, 20, 21, 33, 40, 41, 57, 60, 61)
ESTIMATES = [
    pytest.param(tuple(range(1, 51)), 5, 0.2925592151024415, id="1-50-k5"),
    pytest.param(tuple(range(1, 51)), 6, 0.14763564731339016, id="1-50-k6"),
    pytest.param(tuple(range(1, 101)), 5, 0.5156147062150015, id="1-100-k5"),
    pytest.param(tuple(range(2, 59, 2)), 4, 4.277525765436793, id="even-2-58-k4"),
    pytest.param(MIXED_13, 3, 0.5520824807046504, id="mixed-13-k3"),
    pytest.param(MIXED_13, 4, 0.27572815672694845, id="mixed-13-k4"),
    pytest.param(MIXED_13, 5, 0.09048437766008534, id="mixed-13-k5"),
]


@pytest.mark.parametrize("shifts, k, want", ESTIMATES)
def test_estimate_is_pinned_to_the_histogram_values(shifts, k, want):
    assert singular._s_star_truncated(tc.TupleH(shifts), [k], 10**5)[k] == want


@pytest.mark.parametrize("t0", [0, 734019])
def test_check_monotone_reports_the_pinned_estimate_at_25_6(t0):
    rep = singular.check_monotone(tc.TupleH(tuple(range(t0 + 1, t0 + 26))), 6)
    assert rep["methods"] == ["exact"] * 5 + ["histogram"]
    assert rep["s_star"][5] == 0.01643745104422517


def test_estimate_on_1_100_peaks_below_the_histogram():
    # The residue histogram mod primorial(23) peaked at 35936076 traced bytes
    # on this call (numpy 2.4).  The rows come in chunks by first index, the
    # largest C(48, 4) = 194580 shapes.
    A = tc.TupleH(tuple(range(1, 101)))
    tracemalloc.start()
    try:
        assert singular._s_star_truncated(A, [6], 10**5)[6] == 0.36362371524205667
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 35936076


def test_estimate_rows_budget_at_its_limit_and_one_past_it(monkeypatch):
    A = tc.TupleH(tuple(range(1, 26)))
    rows = math.comb(12, 5) + math.comb(11, 5)  # shapes of the odd and even halves
    assert singular._row_count(A, 6) == rows == 1254
    monkeypatch.setattr(singular, "MAX_ESTIMATE_ROWS", rows)
    assert singular._s_star_truncated(A, [6], 10**5)[6] == 0.01643745104422517
    monkeypatch.setattr(singular, "MAX_ESTIMATE_ROWS", rows - 1)
    with pytest.raises(CapacityError):
        singular.check_monotone(A, 6)


def test_estimate_rows_budget_admits_every_interval_it_is_exact_on():
    budget = singular.MAX_ESTIMATE_ROWS
    assert all(singular._row_count(tc.TupleH(tuple(range(1, 59))), k) <= budget for k in range(1, 9))
    assert singular._row_count(tc.TupleH(tuple(range(1, 101))), 6) <= budget
    assert singular._row_count(tc.TupleH(tuple(range(1, 101))), 7) > budget


def _traced_peak(A, k):
    tracemalloc.start()
    try:
        singular.s_star(A, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subset_matrix_is_built_in_one_allocation():
    # The even half of [1, 61] without 30 is no progression, so each of its
    # C(29, 4) = 23751 subsets is a row, beside the C(30, 3) = 4060 shapes of
    # the odd half.  An int64 matrix of the C(60, 4) = 487635 subsets of the
    # set alone would take 15.6 MB, a list of index tuples far more.
    A = tc.TupleH(tuple(x for x in range(1, 62) if x != 30))
    assert _traced_peak(A, 4) < 16 * 2**20


def test_interval_rows_are_shapes():
    # The parity halves of [1, 100] have 2 C(49, 3) = 36848 shapes for k = 4;
    # its C(100, 4) = 3921225 subsets would take 15.7 MB as uint8 indices
    # alone.
    assert _traced_peak(tc.TupleH(tuple(range(1, 101))), 4) < 16 * 2**20


def _primes_upto(n):
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


PRIMES = _primes_upto(10**5)


def sum_over_all_subsets(A, k):
    """B_A(k) at cutoff 10^5 in pure Python: for every k-subset H of A,
    translates included, nu_p(H) from a set and the factors multiplied in
    increasing p up to the largest difference, then the library's generic
    factor of the primes above it (the one constant both routes share);
    k! times the fsum over all subsets."""
    pmax = max(A.shifts[-1] - A.shifts[0], k, 2)
    small = [p for p in PRIMES if p <= pmax]
    generic = math.exp(singular._generic_log(k, np.array([p for p in PRIMES if p > pmax], dtype=float)))
    values = []
    for H in itertools.combinations(A.shifts, k):
        v = 1.0
        for p in small:
            v *= (1.0 - len({h % p for h in H}) / p) * (1.0 - 1.0 / p) ** (-k)
        values.append(v * generic)
    return math.factorial(k) * math.fsum(values)


SETS = {
    "interval": tuple(range(1, 31)),
    "shifted-interval": tuple(range(1001, 1031)),
    "general-12": (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42),
    "interval-minus-17": tuple(x for x in range(1, 31) if x != 17),
}
CASES = [pytest.param(s, k, id=f"{name}-k{k}") for name, s in SETS.items() for k in (2, 3, 4)]
# On these intervals fsum of the rounded weight * value products is 1 ulp off.
CASES += [pytest.param(tuple(range(1, h + 1)), k, id=f"1-{h}-k{k}") for h, k in [(8, 2), (13, 3), (13, 4), (24, 2)]]
# Both parities, and neither half a progression: odd 1, 5, 9, 19, 27 and even
# 2, 4, 10, 16, 22, 30.
CASES += [pytest.param((1, 2, 4, 5, 9, 10, 16, 19, 22, 27, 30), 3, id="no-progression-half-k3")]


@pytest.mark.parametrize("shifts, k", CASES)
def test_average_B_equals_the_sum_over_all_subsets(shifts, k):
    A = tc.TupleH(shifts)
    assert singular.average_B(A, k)[0] == sum_over_all_subsets(A, k)


def _nu_rows(A, k, ps):
    """(nu_p for p in ps, weight) of every row of singular._rows, sorted."""
    shifts = np.array(A.shifts)
    rows = []
    for idx, weight in singular._rows(A, k):
        nus = np.array([singular._nu(shifts % p, idx) for p in ps])
        rows += [(tuple(col), w) for col, w in zip(nus.T.tolist(), weight.tolist())]
    return sorted(rows)


def test_only_a_progression_half_takes_shape_rows():
    ps = [3, 5, 7]
    # Odd half 1, 3, ..., 29 and even half 2, 4, ..., 30: shapes of each.
    interval = tc.TupleH(tuple(range(1, 31)))
    rows = _nu_rows(interval, 4, ps)
    assert len(rows) == singular._row_count(interval, 4) == 2 * math.comb(14, 3)
    assert sum(w for _, w in rows) == 2 * math.comb(15, 4)
    # The odd half without 17 is no progression: its C(14, 4) subsets, each
    # of weight 1, and shapes of the even half.
    gapped = tc.TupleH(tuple(x for x in range(1, 31) if x != 17))
    rows = _nu_rows(gapped, 4, ps)
    assert len(rows) == math.comb(14, 4) + math.comb(14, 3)
    # Either way, every same-parity subset once and no mixed one.
    for A in (interval, gapped):
        want = []
        for H in itertools.combinations(A.shifts, 4):
            if len({h % 2 for h in H}) == 1:
                want.append(tuple(len({h % p for h in H}) for p in ps))
        expanded = [nu for nu, w in _nu_rows(A, 4, ps) for _ in range(w)]
        assert sorted(expanded) == sorted(want)


def test_s_star_4_on_1_100_is_pinned():
    assert singular.s_star(tc.TupleH(tuple(range(1, 101))), 4) == 0.6822639515020243


def test_histogram_estimate_tracks_exact_values():
    A = tc.TupleH(tuple(range(1, 41)))
    est = singular._s_star_truncated(A, [2, 3], 10**4)
    for k in (2, 3):
        exact = singular.s_star(A, k, 10**4)
        assert est[k] == pytest.approx(exact, rel=0.05)


def test_check_monotone_reports_methods_and_ratios():
    A = tc.TupleH(tuple(range(1, 31)))
    rep = singular.check_monotone(A, 3)
    assert rep["methods"] == ["exact", "exact", "exact"]
    assert len(rep["ratios"]) == 2
    assert rep["min_ratio"] == min(rep["ratios"])


def test_check_monotone_domain_errors():
    A = tc.TupleH((1, 2, 3))
    with pytest.raises(DomainError):
        singular.check_monotone(A, 0)
    with pytest.raises(DomainError):
        singular.check_monotone(A, 9)
    with pytest.raises(DomainError):
        singular.check_monotone(A, 2, floor=math.nan)
