"""Shift sets, occupancy counts, regular residue classes, and tuple parsing."""

import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpylab import tuples as tc
from gpylab.errors import CapacityError, DomainError


def test_nu_p_counts_distinct_residues():
    H = tc.TupleH((0, 2))
    assert tc.nu_p(H, 2) == 1
    assert tc.nu_p(H, 3) == 2
    assert tc.nu_p(tc.TupleH((0, 2, 4)), 3) == 3


def test_admissibility_examples():
    assert tc.is_admissible(tc.TupleH((0, 2)))
    assert tc.is_admissible(tc.TupleH((0, 2, 6)))
    assert not tc.is_admissible(tc.TupleH((0, 2, 4)))
    assert not tc.is_admissible(tc.TupleH((0, 1)))
    assert tc.is_admissible(tc.TupleH((0,)))


def test_discriminant_is_product_of_differences():
    H = tc.TupleH((0, 2, 6))
    assert tc.discriminant(H) == 2 * 6 * 4


def test_nu_bar_and_nu_star_identities():
    H1, H2 = tc.TupleH((0, 2)), tc.TupleH((0, 6))
    for p in (2, 3, 5, 7):
        union = H1.union(H2)
        assert tc.nu_bar_p(H1, H2, p) == tc.nu_p(H1, p) + tc.nu_p(H2, p) - tc.nu_p(union, p)
        assert tc.nu_star_p(H1, 4, p) == tc.nu_p(H1.union(4), p) - 1


def test_primorial_values_and_cap():
    assert tc.primorial(2) == 2
    assert tc.primorial(5) == 30
    assert tc.primorial(13) == 30030
    # MAX_V = 43 is the largest V accepted.
    assert tc.primorial(43) == 13082761331670030
    for V in (44, tc.MAX_V + 2):
        with pytest.raises(CapacityError):
            tc.primorial(V)


def test_primorial_matches_sympy_at_every_admitted_V():
    for V in range(2, tc.MAX_V + 1):
        assert tc.primorial(V) == sympy.primorial(V, nth=False), V


def _admissible_by_sympy(shifts):
    return all(len({h % p for h in shifts}) < p for p in sympy.primerange(2, len(shifts) + 1))


@pytest.mark.parametrize("size", [255, 256, 257])
def test_admissibility_at_the_edge_of_the_trial_division_table(size):
    # The primes <= |H| come from a table below 2^8 and from factorize at
    # and above it.  The primes above |H| miss the class 0 mod every p <= |H|;
    # range(|H|) fills every class mod 2.  1 + t primorial(256), t < |H|, sits
    # in the class 1 mod every p < 257 and fills the classes mod 257 only at
    # |H| = 257, where it is inadmissible by the prime 257 alone.
    above = tuple(sympy.primerange(size + 1, 10 * size))[:size]
    spread = tuple(1 + t * sympy.primorial(256, nth=False) for t in range(size))
    for shifts in (above, tuple(range(size)), spread):
        assert len(shifts) == size
        H = tc.TupleH(shifts)
        assert tc.is_admissible(H) == _admissible_by_sympy(shifts), (size, shifts[:3])
    assert _admissible_by_sympy(above) and not _admissible_by_sympy(range(size))
    assert _admissible_by_sympy(spread) == (size < 257)


def test_regular_class_count_formula():
    H = tc.TupleH((0, 2, 6))
    want = math.prod(p - tc.nu_p(H, p) for p in sympy.primerange(2, 6))
    assert tc.regular_class_count(H, 5) == want


def test_regular_classes_members_are_coprime_shifts():
    H = tc.TupleH((0, 2, 6))
    classes = tc.regular_classes(H, 5)
    assert 1 <= classes.min() and classes.max() <= 30
    assert len(classes) == tc.regular_class_count(H, 5)
    for a in classes:
        for h in H.shifts:
            assert math.gcd(int(a) + h, 30) == 1


@settings(max_examples=60, deadline=None)
@given(
    shifts=st.sets(st.integers(0, 40), min_size=1, max_size=4),
    V=st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_regular_classes_match_count_formula(shifts, V):
    H = tc.TupleH(tuple(shifts))
    assert len(tc.regular_classes(H, V)) == tc.regular_class_count(H, V)


@settings(max_examples=40, deadline=None)
@given(
    shifts=st.sets(st.integers(0, 40), min_size=1, max_size=4),
    V=st.sampled_from([2, 3, 5, 7, 11, 13]),
)
# 30 + 1 and 30 + 7 are coprime to 30, so the class P itself is regular.
@example(shifts={1, 7}, V=5)
def test_regular_classes_are_the_coprime_residues_ascending(shifts, V):
    H = tc.TupleH(tuple(shifts))
    P = math.prod(sympy.primerange(2, V + 1))
    want = [a for a in range(1, P + 1) if all(math.gcd(a + h, P) == 1 for h in H.shifts)]
    classes = tc.regular_classes(H, V)
    assert classes.tolist() == want
    assert not classes.flags.writeable
    with pytest.raises(ValueError):
        classes[:1] = 0


def test_regular_classes_memory_is_the_result_and_little_more():
    # The seed-7 cross item's union at V = 19: 259 200 classes, 2.07 MB.
    # Mapping 0 to P in place leaves the lifted classes as the one big array.
    H = tc.TupleH((152, 306, 390))
    tracemalloc.start()
    try:
        classes = tc.regular_classes(H, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classes.size == tc.regular_class_count(H, 19) == 259200
    assert classes.dtype == np.int64 and not classes.flags.writeable
    assert peak <= 1.3 * classes.nbytes + 64 * 1024


def test_regular_classes_of_a_union_covering_every_class_mod_3_are_empty():
    # -0, -4 and -8 fill every class mod 3, so no a is regular.
    H = tc.TupleH((0, 4, 8))
    assert tc.regular_class_count(H, 5) == 0
    classes = tc.regular_classes(H, 5)
    assert classes.dtype == np.int64 and classes.size == 0
    assert not classes.flags.writeable


def test_class_member_cap_at_its_boundary(monkeypatch):
    H = tc.TupleH((0, 2, 6))
    count = tc.regular_class_count(H, 13)
    monkeypatch.setattr(tc, "MAX_CLASS_MEMBERS", count)
    assert len(tc.regular_classes(H, 13)) == count
    monkeypatch.setattr(tc, "MAX_CLASS_MEMBERS", count - 1)
    with pytest.raises(CapacityError):
        tc.regular_classes(H, 13)


def test_intersection_of_class_sets_is_union_tuple_classes():
    H1, H2 = tc.TupleH((0, 2)), tc.TupleH((0, 6))
    a = tc.regular_classes(H1, 5)
    b = tc.regular_classes(H2, 5)
    c = tc.regular_classes(H1.union(H2), 5)
    assert np.array_equal(np.intersect1d(a, b), c)


def test_tuple_normalization_and_errors():
    assert tc.TupleH((6, 0, 2)).shifts == (0, 2, 6)
    with pytest.raises(DomainError):
        tc.TupleH((0, 2, 2))
    with pytest.raises(DomainError):
        tc.TupleH((-1, 2))
    with pytest.raises(DomainError):
        tc.TupleH(())
    # A non-integral shift is refused, not truncated, by the constructor and
    # by union; integral floats, bools and numpy integers keep their value.
    for bad in ((0, 2.5), (0, np.float64(2.5)), (0, 1e-9)):
        with pytest.raises(DomainError, match="non-integral shift"):
            tc.TupleH(bad)
    for extra in (6.7, np.float64(-0.5)):
        with pytest.raises(DomainError, match="non-integral shift"):
            tc.TupleH((0, 2)).union(extra)
    H = tc.TupleH((2.0, True, np.int64(6), np.uint8(4)))
    assert H.shifts == (1, 2, 4, 6) and all(type(h) is int for h in H.shifts)
    assert tc.TupleH((0, 2)).union(6.0).shifts == (0, 2, 6)
    assert tc.TupleH((0, 2)).union(np.int64(2)).shifts == (0, 2)
    assert tc.TupleH((0, 2)).union(tc.TupleH((2, 8))).shifts == (0, 2, 8)


def test_parse_tuple_line_rejects_garbage():
    assert tc.parse_tuple_line("0, 2, 6").shifts == (0, 2, 6)
    with pytest.raises(DomainError):
        tc.parse_tuple_line("0, 2, 2")
    with pytest.raises(DomainError):
        tc.parse_tuple_line("0, two")
