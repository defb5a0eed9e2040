"""Certified singular series intervals, subset averages, quasi-prime density."""

import itertools
import math
import tracemalloc
from fractions import Fraction

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
    assert sv.contains(1.0)
    assert abs(sv.mid - 1.0) < 1e-9


def test_twin_constant_inside_certified_interval():
    for cutoff in (10**4, 10**5, 10**6):
        sv = singular.singular_series(H02, cutoff)
        assert sv.lo <= TWIN_CONSTANT <= sv.hi
    assert singular.singular_series(H02, 10**6).rad < 1e-6


def test_interval_shrinks_and_nests_with_cutoff():
    coarse = singular.singular_series(H02, 10**4)
    fine = singular.singular_series(H02, 10**6)
    assert fine.rad < coarse.rad
    assert coarse.lo <= fine.mid <= coarse.hi


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


def test_subset_matrix_is_built_in_one_allocation():
    # C(60, 4) = 487635 subsets make a 15.6 MB int64 matrix; a list of index
    # tuples and a gathered copy on top of it, or a sorted copy of S % p
    # beside S % p, would peak above 60 MiB.
    A = tc.TupleH(tuple(range(1, 61)))
    tracemalloc.start()
    try:
        singular.s_star(A, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20


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
