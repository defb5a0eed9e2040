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
from gpylab.errors import DomainError

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
    # With z = 2 every residue i sees exactly 300 of the 600 shifts coprime,
    # and S*(1) is exactly 1 unless the per-residue counter wraps.
    monkeypatch.setattr(singular, "HISTOGRAM_Z", 2)
    A = tc.TupleH(tuple(range(1, 601)))
    assert singular._s_star_histogram(A, [1], 1000)[1] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("z, chunk", [(7, 64), (13, 1200)])
def test_histogram_counts_match_quasiprime_densities(monkeypatch, z, chunk):
    # Z = Z1 Z2 = 30 * 7 and 210 * 143, in blocks of 9 and 8 rows that do not
    # divide Z1, with shifts above Z1 and Z2: the counts must give k! * sum of
    # the exact R(H) over k-subsets.
    monkeypatch.setattr(singular, "HISTOGRAM_Z", z)
    monkeypatch.setattr(singular, "HISTOGRAM_CHUNK", chunk)
    A = tc.TupleH((1, 5, 12, 250, 333))
    est = singular._s_star_histogram(A, [2, 3], 1000)
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
        assert singular._s_star_histogram(A, [6], 10**5)[6] == 0.01643745104422517
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tc.primorial(singular.HISTOGRAM_Z) // 4


def _traced_peak(A, k):
    tracemalloc.start()
    try:
        singular.s_star(A, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subset_matrix_is_built_in_one_allocation():
    # [1, 61] without 30 is no interval, so each of its C(60, 4) = 487635
    # subsets is a row: 1.9 MB of uint8 indices.  An int64 subset matrix
    # alone would take 15.6 MB, a list of index tuples far more.
    A = tc.TupleH(tuple(x for x in range(1, 62) if x != 30))
    assert _traced_peak(A, 4) < 16 * 2**20


def test_interval_rows_are_shapes():
    # [1, 100] has C(99, 3) = 156849 shapes for k = 4; its C(100, 4) = 3921225
    # subsets would take 15.7 MB as uint8 indices alone.
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


@pytest.mark.parametrize("shifts, k", CASES)
def test_average_B_equals_the_sum_over_all_subsets(shifts, k):
    A = tc.TupleH(shifts)
    assert singular.average_B(A, k)[0] == sum_over_all_subsets(A, k)


def test_only_an_interval_takes_shape_rows():
    interval = tc.TupleH(tuple(range(1, 31)))
    idx, weight = singular._weighted_rows(interval, 4)
    assert idx.shape == (4, math.comb(29, 3)) and weight.sum() == math.comb(30, 4)
    gapped = tc.TupleH(tuple(x for x in range(1, 31) if x != 17))
    idx, weight = singular._weighted_rows(gapped, 4)
    assert idx.shape == (4, math.comb(29, 4)) and weight is None
    assert [tuple(r) for r in idx.T.tolist()] == list(itertools.combinations(range(29), 4))


def test_s_star_4_on_1_100_is_pinned():
    assert singular.s_star(tc.TupleH(tuple(range(1, 101))), 4) == 0.6822639515020243


def test_histogram_estimate_tracks_exact_values():
    A = tc.TupleH(tuple(range(1, 41)))
    est = singular._s_star_histogram(A, [2, 3], 10**4)
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
