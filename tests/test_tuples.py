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


def python_crt(x, m, res, q):
    inv = pow(m, -1, q)
    return [a + m * ((r - a) * inv % q) for a in x for r in res]


def inverses(m, q):
    """m^{-1} mod q elementwise over their broadcast, by Python's pow."""
    return np.array([pow(int(a) % int(k), -1, int(k)) for a, k in np.broadcast(m, q)], dtype=np.int64)


def test_inverse_mod_matches_pow_on_every_coprime_pair_to_300():
    # a = 0, u = 1 is coprime, and its inverse is 0.
    pairs = [(a, u) for u in range(1, 301) for a in range(u) if math.gcd(a, u) == 1]
    a, u = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    inv = tc.inverse_mod(a, u)
    assert inv.tolist() == [pow(int(x), -1, int(y)) for x, y in pairs]
    assert tc.inverse_mod(np.array([0, 5]), np.array([1, 1])).tolist() == [0, 0]
    # Residues at or above u, or negative, are reduced first.
    assert tc.inverse_mod(np.array([10, -3]), np.array([7, 7])).tolist() == [5, 2]


def test_inverse_mod_at_the_int64_square_bound():
    # The check a inv = 1 (mod u) needs u^2 < 2^63: 3037000499^2 < 2^63 < 3037000500^2.
    u = 3037000499
    a = [x for x in (1, 2, 10**9 + 7, 2**31 + 11, u - 2, u - 1) if math.gcd(x, u) == 1]
    assert len(a) >= 4
    inv = tc.inverse_mod(np.array(a), np.full(len(a), u))
    assert inv.tolist() == [pow(x, -1, u) for x in a]
    with pytest.raises(CapacityError):
        tc.inverse_mod(np.array([1]), np.array([u + 1]))


def test_inverse_mod_refuses_a_common_factor():
    with pytest.raises(AssertionError):
        tc.inverse_mod(np.array([3, 2]), np.array([7, 4]))


def test_bezout_matches_gcd_and_pow_on_every_pair_to_300():
    # a = 0 and u | a give g = u and s = 0; u = 1 gives s = 0.
    pairs = [(a, u) for u in range(1, 301) for a in range(0, 301)]
    a, u = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    g, s = tc.bezout(a, u)
    assert g.dtype == s.dtype == np.int64
    assert g.tolist() == [math.gcd(x, y) for x, y in pairs]
    assert ((0 <= s) & (s < np.maximum(u, 1))).all()
    assert ((s * a - g) % u == 0).all()
    coprime = g == 1
    assert s[coprime].tolist() == [pow(int(x), -1, int(y)) for x, y in zip(a[coprime], u[coprime])]
    # float64 is exact below 2^52.
    with pytest.raises(CapacityError):
        tc.bezout(np.array([1]), np.array([2**52]))


@pytest.mark.parametrize("top", [2**22 - 1, 2**22, 2**52 - 1])
def test_bezout_on_consecutive_fibonacci_numbers(top):
    # Consecutive Fibonacci numbers take the most Euclid steps for their
    # size (Lame's bound, where the steps stop).  Below 2^22 the pass runs
    # in float32, from there in float64; every pair up to the largest
    # Fibonacci number <= top, and top itself against its neighbours.
    fib = [1, 2]
    while fib[-1] + fib[-2] <= top:
        fib.append(fib[-1] + fib[-2])
    a = np.array(fib[:-1] + [top - 1, 2, fib[-1]], dtype=np.int64)
    u = np.array(fib[1:] + [top, top, top], dtype=np.int64)
    g, s = tc.bezout(a, u)
    for x, y, gg, ss in zip(a.tolist(), u.tolist(), g.tolist(), s.tolist()):
        assert gg == math.gcd(x, y) and (ss * x - gg) % y == 0 and 0 <= ss < y


def test_crt_lift_by_primorial_29_matches_python_ints():
    # The first lift of pair_sum_divisor at V = 29: a few roots mod 97 by
    # the regular classes of the greedy admissible 14-tuple mod P ~ 6.5e9,
    # where (r - a) * inverse mod P would reach P^2 > 2^63: the lift is
    # based on P, and based on 97 it is refused.
    H = tc.TupleH((0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50))
    P = tc.primorial(29)
    reg = tc.regular_classes(H, 29) % P
    x = np.array(sorted({(-h) % 97 for h in H.shifts})[:7], dtype=np.int64)
    lift = tc.crt_lift(reg, P, x[:, None], 97, pow(P, -1, 97))
    assert lift.shape == (x.size, reg.size)
    assert 0 <= lift.min() and lift.max() < 97 * P
    assert lift.ravel().tolist() == python_crt(x.tolist(), 97, reg.tolist(), P)
    with pytest.raises(CapacityError):
        tc.crt_lift(x[:, None], 97, reg, P, pow(97, -1, P))


def test_crt_lift_capacity_at_int64_boundary():
    # 2^63 - 1 = 49 * 188232082384791343 with coprime factors: the largest
    # lifted modulus that fits, based on the larger factor.  50 times it
    # and 2 times 2^63 - 1 pass 2^63.
    m, q = 49, 188232082384791343
    assert m * q == 2**63 - 1
    x = np.array([0, 5, 48], dtype=np.int64)
    res = np.array([1, q // 2, q - 1], dtype=np.int64)
    lift = tc.crt_lift(res, q, x[:, None], m, pow(q, -1, m))
    assert lift.ravel().tolist() == python_crt(x.tolist(), m, res.tolist(), q)
    for big, small in ((q, 50), (2**63 - 1, 2)):
        with pytest.raises(CapacityError):
            tc.crt_lift(np.array([0]), big, np.array([0]), small, pow(big, -1, small))


def test_crt_lift_by_array_moduli_matches_python_ints():
    # Each residue with its own modulus, as pair_sum_divisor lifts the
    # classes mod d P by each root y of every e, taken mod e / gcd(d, e).
    # 2^63 - 1 = 49 * m with coprime factors, so the residues mod 49 lift
    # to the largest modulus that fits; a q of 1 keeps the classes as they
    # are.
    m = 188232082384791343
    x = np.array([0, 5, m - 1], dtype=np.int64)
    res = np.array([0, 1, 0, 2, 4, 1, 48], dtype=np.int64)
    q = np.array([1, 2, 3, 3, 5, 49, 49], dtype=np.int64)
    lift = tc.crt_lift(x, m, res[:, None], q[:, None], inverses(m, q)[:, None])
    assert m * int(q.max()) == 2**63 - 1
    want = [python_crt(x.tolist(), m, [r], k) for r, k in zip(res.tolist(), q.tolist())]
    assert lift.tolist() == want
    # Each row with its own base modulus too, as the blocks of
    # pair_sum_divisor lift mod d P for several d at once.
    ms = np.array([7, 30, 11 * 30], dtype=np.int64)
    a = np.array([[3, 6], [1, 29], [0, 329]], dtype=np.int64)
    r, k = np.array([4, 6, 12]), np.array([13, 7, 13])
    lift = tc.crt_lift(a, ms[:, None], r[:, None], k[:, None], inverses(ms, k)[:, None])
    assert lift.tolist() == [python_crt(row, mm, [rr], kk) for row, mm, rr, kk in zip(
        a.tolist(), ms.tolist(), r.tolist(), k.tolist()
    )]
    # q^2 also bounds the products: 3037000499^2 < 2^63 <= 3037000501^2.
    lift = tc.crt_lift(np.array([0, 1]), 2, np.array([3037000498]), 3037000499, pow(2, -1, 3037000499))
    assert lift.tolist() == python_crt([0, 1], 2, [3037000498], 3037000499)
    with pytest.raises(CapacityError):
        tc.crt_lift(np.array([0]), 2, np.array([0]), 3037000501, pow(2, -1, 3037000501))
    # 50 * m passes 2^63: one such pair refuses the whole lift, whether
    # the moduli vary along q or along m.
    with pytest.raises(CapacityError):
        tc.crt_lift(x, m, np.array([[0], [1]]), np.array([[49], [50]]), np.array([[0], [0]]))
    with pytest.raises(CapacityError):
        tc.crt_lift(0, np.array([[m // 2], [m]]), 0, 50, 0)


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


def test_parse_tuple_line_rejects_garbage():
    assert tc.parse_tuple_line("0, 2, 6").shifts == (0, 2, 6)
    with pytest.raises(DomainError):
        tc.parse_tuple_line("0, 2, 2")
    with pytest.raises(DomainError):
        tc.parse_tuple_line("0, two")
