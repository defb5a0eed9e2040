"""Shift sets, occupancy counts, regular residue classes, and tuple files."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gpylab import tuples as tc
from gpylab.errors import CapacityError, DomainError


def brute_nu(H, d):
    # Number of residues n mod d with d dividing prod(n + h).
    return sum(1 for n in range(d) if math.prod(n + h for h in H.shifts) % d == 0)


def test_nu_p_counts_distinct_residues():
    H = tc.TupleH((0, 2))
    assert tc.nu_p(H, 2) == 1
    assert tc.nu_p(H, 3) == 2
    assert tc.nu_p(tc.TupleH((0, 2, 4)), 3) == 3


def test_nu_d_multiplicative_and_squarefree_only():
    H = tc.TupleH((0, 2, 6))
    assert tc.nu_d(H, 15) == tc.nu_p(H, 3) * tc.nu_p(H, 5)
    assert tc.nu_d(H, 1) == 1
    with pytest.raises(DomainError):
        tc.nu_d(H, 12)


@settings(max_examples=50, deadline=None)
@given(
    shifts=st.sets(st.integers(0, 60), min_size=1, max_size=5),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 15, 21, 30, 35]),
)
def test_nu_d_equals_distinct_residue_count(shifts, d):
    H = tc.TupleH(tuple(shifts))
    assert tc.nu_d(H, d) == brute_nu(H, d)


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
    with pytest.raises(CapacityError):
        tc.primorial(tc.MAX_V + 2)


def test_regular_class_count_formula():
    H = tc.TupleH((0, 2, 6))
    want = math.prod(p - tc.nu_p(H, p) for p in sympy.primerange(2, 6))
    assert tc.regular_class_count(H, 5) == want


def test_regular_classes_members_are_coprime_shifts():
    H = tc.TupleH((0, 2, 6))
    classes = tc.regular_classes(H, 5)
    assert classes.modulus == 30
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


def python_crt(x, m, res, q):
    inv = pow(m, -1, q)
    return [a + m * ((r - a) * inv % q) for a in x for r in res]


def test_crt_lift_by_primorial_29_matches_python_ints():
    # The last lift of pair_sum_divisor at V = 29: a few classes mod 97 by
    # the regular classes of the greedy admissible 14-tuple mod P ~ 6.5e9,
    # where (r - a) * inverse mod P would reach P^2 > 2^63.
    H = tc.TupleH((0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50))
    P = tc.primorial(29)
    reg = tc.regular_classes(H, 29).members % P
    x = np.array(sorted({(-h) % 97 for h in H.shifts})[:7], dtype=np.int64)
    lift, mod = tc.crt_lift(x, 97, reg, P)
    assert mod == 97 * P
    assert lift.tolist() == python_crt(x.tolist(), 97, reg.tolist(), P)


def test_crt_lift_capacity_at_int64_boundary():
    # 2^63 - 1 = 49 * 188232082384791343 with coprime factors: the largest
    # lifted modulus that fits.
    m, q = 49, 188232082384791343
    x = np.array([0, 5, 48], dtype=np.int64)
    res = np.array([1, q // 2, q - 1], dtype=np.int64)
    lift, mod = tc.crt_lift(x, m, res, q)
    assert mod == 2**63 - 1
    assert lift.tolist() == python_crt(x.tolist(), m, res.tolist(), q)
    with pytest.raises(CapacityError):
        tc.crt_lift(np.array([0], dtype=np.int64), 1, np.array([0], dtype=np.int64), 2**63)


def test_intersection_of_class_sets_is_union_tuple_classes():
    H1, H2 = tc.TupleH((0, 2)), tc.TupleH((0, 6))
    a = tc.regular_classes(H1, 5)
    b = tc.regular_classes(H2, 5)
    c = tc.regular_classes(H1.union(H2), 5)
    assert set(a.intersection(b).members.tolist()) == set(c.members.tolist())


def test_tuple_normalization_and_errors():
    assert tc.TupleH((6, 0, 2)).shifts == (0, 2, 6)
    with pytest.raises(DomainError):
        tc.TupleH((0, 2, 2))
    with pytest.raises(DomainError):
        tc.TupleH((-1, 2))
    with pytest.raises(DomainError):
        tc.TupleH(())


def test_tuple_file_round_trip(tmp_path):
    path = tmp_path / "tuples.txt"
    ts = [tc.TupleH((0, 2)), tc.TupleH((0, 4, 6))]
    tc.write_tuple_file(path, ts, header="window shifts")
    back = tc.read_tuple_file(path)
    assert [t.shifts for t in back] == [t.shifts for t in ts]


def test_parse_tuple_line_rejects_garbage():
    assert tc.parse_tuple_line("0, 2, 6").shifts == (0, 2, 6)
    with pytest.raises(DomainError):
        tc.parse_tuple_line("0, 2, 2")
    with pytest.raises(DomainError):
        tc.parse_tuple_line("0, two")
