"""Exact rational kernels: the Z identity, the A coefficients, divisor means."""

import math
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpylab import combinat
from gpylab.errors import CapacityError, DomainError


def _rising(d, m):
    out = 1
    for i in range(m):
        out *= d + i
    return out


def reference_Z_sum(d, u, y):
    """The defining sum of Z(d, u, y), one normalised Fraction per term."""
    total = Fraction(0)
    for m in range(u + 1):
        if y + m < 0:
            continue
        total += Fraction(comb(u, m) * (-1) ** m * _rising(d, m), factorial(y + m))
    return total / factorial(u)


def reference_coeff_A_sum(j, nu, d, u, v):
    """The defining sum of A_{j,nu}, one normalised Fraction per term."""
    y = v + d - nu
    total = Fraction(0)
    for m in range(max(0, -y), u - j + 1):
        total += Fraction(
            comb(u, m + j) * (-1) ** m * comb(m + j, j) * _rising(d, m),
            factorial(v + d + m - nu) * factorial(nu),
        )
    return total * Fraction(factorial(j) * factorial(nu), factorial(u))


@st.composite
def coeff_points(draw):
    d, u, v = (draw(st.integers(0, 15)) for _ in range(3))
    j = draw(st.integers(0, u))
    nu = draw(st.integers(0, v + d + u - j))
    return j, nu, d, u, v


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


# Edge cases by name: y < 0 drops the m < -y terms; y + u = 0 leaves only
# m = u over 0!; d = 0 leaves only the m = 0 term.
@pytest.mark.parametrize(
    "d, u, y",
    [(3, 6, -4), (2, 4, -4), (0, 5, 2), (0, 5, -3), (7, 0, 0)],
    ids=["y<0", "y+u=0", "d=0", "d=0,y<0", "u=0"],
)
def test_Z_sum_edge_cases_equal_reference(d, u, y):
    assert combinat.Z_sum(combinat.SuitableTriplet(d, u, y)) == reference_Z_sum(d, u, y)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(0, 15), u=st.integers(0, 15), y=st.integers(-15, 15))
def test_Z_sum_equals_reference(d, u, y):
    y = max(y, -u)
    assert combinat.Z_sum(combinat.SuitableTriplet(d, u, y)) == reference_Z_sum(d, u, y)


# y = v + d - nu and top = y + u - j, the factorial the terms share.
@pytest.mark.parametrize(
    "j, nu, d, u, v",
    [(1, 8, 2, 6, 3), (4, 3, 2, 4, 5), (1, 9, 2, 5, 3), (0, 2, 0, 5, 4), (0, 0, 0, 0, 0)],
    ids=["y<0", "j=u", "top=0", "d=0", "all-zero"],
)
def test_coeff_A_sum_edge_cases_equal_reference(j, nu, d, u, v):
    assert combinat.coeff_A_sum(j, nu, d, u, v) == reference_coeff_A_sum(j, nu, d, u, v)


@settings(max_examples=300, deadline=None)
@given(point=coeff_points())
@example(point=(0, 45, 15, 15, 15))
def test_coeff_A_sum_equals_reference(point):
    assert combinat.coeff_A_sum(*point) == reference_coeff_A_sum(*point)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(0, 12), u=st.integers(1, 12), y=st.integers(-12, 12))
def test_Z_recursion_step(d, u, y):
    # Z(d, u, y) = ((y + 1 - d)/u) Z(d, u-1, y+1) for u >= 1, exactly.
    if y + u < 0:
        y = -u
    lhs = combinat.Z_sum(combinat.SuitableTriplet(d, u, y))
    rhs = Fraction(y + 1 - d, u) * combinat.Z_sum(combinat.SuitableTriplet(d, u - 1, y + 1))
    assert lhs == rhs


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
                val = Fraction(*combinat._double_prime_terms(0, nu, u, v))
                assert val <= 1


def grid_points(scan, bound):
    """The points an identity scan visits, counted by its own loops."""
    if scan is combinat.Z_identity_scan:
        return sum(bound + 1 + u for _ in range(bound + 1) for u in range(bound + 1))
    return sum(
        v + d + u - j + 1
        for d in range(bound + 1) for u in range(bound + 1) for v in range(bound + 1)
        for j in range(u + 1)
    )


@pytest.mark.parametrize("scan", [combinat.Z_identity_scan, combinat.coeff_identity_scan])
def test_identity_scans_are_refused_past_their_points_guard(monkeypatch, scan):
    # The guard's count is the loops' count, so the scan runs at the limit
    # and is refused one point below it, at bound 3 and at bound 5.
    assert grid_points(combinat.Z_identity_scan, 25) <= combinat.MAX_SCAN_POINTS
    assert grid_points(combinat.coeff_identity_scan, 12) <= combinat.MAX_SCAN_POINTS
    for bound in (3, 5):
        limit = grid_points(scan, bound)
        monkeypatch.setattr(combinat, "MAX_SCAN_POINTS", limit)
        scan(bound)
        monkeypatch.setattr(combinat, "MAX_SCAN_POINTS", limit - 1)
        with pytest.raises(CapacityError, match="grid points"):
            scan(bound)


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


def brute_divisor_sum(x, m):
    return sum(
        m ** len(fac)
        for fac in (sympy.factorint(q) for q in range(1, x + 1))
        if all(e == 1 for e in fac.values())
    )


# Either side of the prime squares 4, 49 and 121, where sqrt(x) changes
# which primes the sieve slices and which it adds per cofactor.
@pytest.mark.parametrize("x", [1, 2, 3, 4, 48, 49, 50, 120, 121, 122, 2000])
def test_divisor_mean_lhs_at_sieve_boundaries(x):
    for m in (2, 3):
        assert combinat.divisor_mean_check(x, m)["lhs"] == brute_divisor_sum(x, m)


def test_divisor_mean_rejects_x_above_ceiling(monkeypatch):
    monkeypatch.setattr(combinat, "MAX_DIVISOR_MEAN_X", 50)
    assert combinat.divisor_mean_check(50, 2)["lhs"] == brute_divisor_sum(50, 2)
    with pytest.raises(CapacityError):
        combinat.divisor_mean_check(51, 2)
