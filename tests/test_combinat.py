"""Exact rational kernels: the Z identity, the A coefficients, divisor means."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gpylab import combinat
from gpylab.errors import DomainError


def test_suitable_triplet_validation():
    combinat.SuitableTriplet(0, 0, 0)
    combinat.SuitableTriplet(3, 4, -4)
    with pytest.raises(DomainError):
        combinat.SuitableTriplet(-1, 0, 0)
    with pytest.raises(DomainError):
        combinat.SuitableTriplet(0, 2, -3)


def test_Z_values_by_hand():
    # u = 0 collapses the sum to the single m = 0 term 1/y!.
    t = combinat.SuitableTriplet(2, 0, 3)
    assert combinat.Z_sum(t) == Fraction(1, 6)
    # Closed form (y-d+1)...(y-d+u) / (u! (y+u)!) at d=1, u=2, y=2.
    t = combinat.SuitableTriplet(1, 2, 2)
    assert combinat.Z_closed(t) == Fraction(2 * 3, 2 * 24)
    assert combinat.Z_sum(t) == combinat.Z_closed(t)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(0, 15), u=st.integers(0, 15), y=st.integers(-15, 15))
def test_Z_sum_equals_closed_form(d, u, y):
    if y + u < 0:
        y = -u
    t = combinat.SuitableTriplet(d, u, y)
    assert combinat.Z_sum(t) == combinat.Z_closed(t)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(0, 12), u=st.integers(1, 12), y=st.integers(-12, 12))
def test_Z_recursion_step(d, u, y):
    if y + u < 0:
        y = -u
    assert combinat.Z_induction_check(combinat.SuitableTriplet(d, u, y))


def test_coeff_A_routes_agree_small_grid():
    for d in range(5):
        for u in range(5):
            for v in range(5):
                for j in range(u + 1):
                    for nu in range(v + d + u - j + 1):
                        s = combinat.coeff_A_sum(j, nu, d, u, v)
                        c = combinat.coeff_A_closed(j, nu, d, u, v)
                        assert s == c, (j, nu, d, u, v)


def test_double_prime_bounds_on_grid():
    rep = combinat.coeff_ratio_check(3, 4, 4)
    assert rep["violations"] == []
    assert rep["grid"] == {"d": 3, "u": 4, "v": 4}
    with pytest.raises(DomainError):
        combinat.coeff_ratio_check(1, 5, 4)


def test_double_prime_small_nu_is_at_most_one():
    for v in range(2, 8):
        for u in range(v + 1):
            for nu in range(0, 2 * (v + 1) + 1):
                val = combinat.coeff_A_double_prime(0, nu, u, v)
                assert val <= 1


def test_divisor_mean_bound_holds():
    for m in (2, 3, 4):
        rep = combinat.divisor_mean_check(10**4, m)
        assert rep["holds"]
        assert rep["lhs"] <= rep["rhs"]


def test_divisor_mean_lhs_brute_force():
    x, m = 500, 2
    lhs = 0
    for q in range(1, x + 1):
        fac = sympy.factorint(q)
        if all(e == 1 for e in fac.values()):
            lhs += m ** len(fac)
    rep = combinat.divisor_mean_check(x, m)
    assert rep["lhs"] == lhs
    assert rep["rhs"] == pytest.approx(x * (1 + math.log(x)) ** m, rel=1e-12)
