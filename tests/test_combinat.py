"""Exact rational kernels: the Z identity, the A coefficients, divisor means."""

import math
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpylab import combinat, primes
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


def reference_closed(c, u):
    """The product (c+1)(c+2)...(c+u), one factor at a time."""
    out = 1
    for i in range(1, u + 1):
        out *= c + i
    return out


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


# Each branch of the perm-based product: c >= 0, a zero factor (-u <= c <= -1)
# and every factor negative (c <= -u - 1), on both sides of each boundary.
@pytest.mark.parametrize("u", [0, 1, 2, 5, 9])
def test_closed_product_at_its_branch_boundaries(u):
    for c in sorted({-1, 0, 1, -u, -u + 1, -u - 1, -u - 2, 10**6}):
        assert combinat._closed_num(c, u) == reference_closed(c, u), (c, u)


def test_closed_forms_equal_the_loop_product():
    for d in range(6):
        for u in range(6):
            for y in range(-u, 6):
                den = factorial(u) * factorial(y + u)
                t = combinat.SuitableTriplet(d, u, y)
                assert combinat.Z_closed(t) == Fraction(reference_closed(y - d, u), den)
    for j, nu, d, u, v in [(0, 0, 0, 0, 0), (1, 8, 2, 6, 3), (0, 12, 3, 5, 4), (2, 0, 1, 7, 30)]:
        top = v + d - nu + u - j
        expected = Fraction(reference_closed(v - nu, u - j), factorial(u - j) * factorial(top))
        assert combinat.coeff_A_closed(j, nu, d, u, v) == expected


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


def test_identity_scans_refuse_a_negative_bound():
    # An empty grid would report no mismatch; bound 0 still checks (0, 0, 0).
    for scan in (combinat.Z_identity_scan, combinat.coeff_identity_scan):
        with pytest.raises(DomainError, match="bound -1"):
            scan(-1)
    assert combinat.Z_identity_scan(0) == (1, [])
    assert combinat.coeff_identity_scan(0) == []
    assert grid_points(combinat.coeff_identity_scan, 0) == 1


def z_grid(bound):
    return [(d, u, y) for d in range(bound + 1) for u in range(bound + 1) for y in range(-u, bound + 1)]


def coeff_grid(bound):
    return [
        (j, nu, d, u, v)
        for d in range(bound + 1) for u in range(bound + 1) for v in range(bound + 1)
        for j in range(u + 1) for nu in range(v + d + u - j + 1)
    ]


def fraction_scans(bound):
    """Both identity scans as a point-by-point comparison of the public Fractions."""
    triplets = [combinat.SuitableTriplet(*p) for p in z_grid(bound)]
    z_bad = [(t.d, t.u, t.y) for t in triplets if combinat.Z_sum(t) != combinat.Z_closed(t)]
    coeff_bad = [p for p in coeff_grid(bound) if combinat.coeff_A_sum(*p) != combinat.coeff_A_closed(*p)]
    return (len(triplets), z_bad), coeff_bad


def _off_by_one_where(kernel, hit):
    return lambda *args: kernel(*args) + hit(*args)


# A kernel off by one wherever `hit` says so, which spoils many points of
# each grid; the numerators disagree exactly where the Fractions do.
SPOILERS = {
    "none": None,
    "closed": ("_closed_num", lambda c, u: (c + 2 * u) % 3 == 0),
    "z_sum": ("_z_sum_num", lambda d, u, y: (d + u + y) % 4 == 1),
    "coeff_sum": ("_coeff_sum_num", lambda j, d, u, y: (j + d + y) % 3 == 2),
}


@pytest.mark.parametrize("spoiler", SPOILERS)
@pytest.mark.parametrize("bound", range(5))
def test_integer_scans_agree_with_a_fraction_comparison(monkeypatch, bound, spoiler):
    if SPOILERS[spoiler]:
        name, hit = SPOILERS[spoiler]
        monkeypatch.setattr(combinat, name, _off_by_one_where(getattr(combinat, name), hit))
    z_expected, coeff_expected = fraction_scans(bound)
    assert combinat.Z_identity_scan(bound) == z_expected
    assert combinat.coeff_identity_scan(bound) == coeff_expected
    if spoiler in ("closed", "z_sum") and bound > 0:
        assert z_expected[1]
    if spoiler in ("closed", "coeff_sum") and bound > 0:
        assert coeff_expected


def _z_summand(d, u, y, m):
    """Term m of the Z_sum numerator over (y+u)!."""
    return comb(u, m) * (-1) ** m * _rising(d, m) * factorial(y + u) // factorial(y + m)


def _coeff_summand(j, d, u, y, m):
    """Term m of the coeff_A_sum numerator over top!, top = y + u - j."""
    return (comb(u, m + j) * (-1) ** m * comb(m + j, j) * _rising(d, m)
            * factorial(y + u - j) // factorial(y + m))


def _wrong_once(kernel, at, delta):
    """The kernel, except that its first call with arguments `at` is off by delta(*at)."""
    spoiled = []

    def wrong(*args):
        out = kernel(*args)
        if args == at and not spoiled:
            spoiled.append(args)
            out += delta(*args)
        return out

    return wrong


# The arguments each scan hands each kernel at a grid point.
KERNEL_ARGS = {
    ("Z", "_closed_num"): lambda d, u, y: (y - d, u),
    ("Z", "_z_sum_num"): lambda d, u, y: (d, u, y),
    ("A", "_closed_num"): lambda j, nu, d, u, v: (v - nu, u - j),
    ("A", "_coeff_sum_num"): lambda j, nu, d, u, v: (j, d, u, v + d - nu),
}

# (scan, kernel, kernel arguments, error): closed + 1, or one summand of a
# defining sum with its sign flipped, at the first grid point that calls the
# kernel with those arguments.
MUTANTS = [
    ("Z", "_closed_num", (4, 3), lambda c, u: 1),
    ("Z", "_closed_num", (-6, 2), lambda c, u: 1),
    ("Z", "_z_sum_num", (2, 4, -1), lambda d, u, y: -2 * _z_summand(d, u, y, 3)),
    ("Z", "_z_sum_num", (3, 3, 4), lambda d, u, y: -2 * _z_summand(d, u, y, 0)),
    ("A", "_closed_num", (-2, 3), lambda c, u: 1),
    ("A", "_coeff_sum_num", (1, 3, 4, 7), lambda j, d, u, y: -2 * _coeff_summand(j, d, u, y, 2)),
    ("A", "_coeff_sum_num", (0, 3, 4, -4), lambda j, d, u, y: -2 * _coeff_summand(j, d, u, y, 4)),
]


@pytest.mark.parametrize("scan, kernel, at, delta", MUTANTS)
def test_identity_scans_report_a_kernel_wrong_at_one_point(monkeypatch, scan, kernel, at, delta):
    assert delta(*at) != 0
    grid = z_grid(4) if scan == "Z" else coeff_grid(4)
    point = next(p for p in grid if KERNEL_ARGS[scan, kernel](*p) == at)
    monkeypatch.setattr(combinat, kernel, _wrong_once(getattr(combinat, kernel), at, delta))
    if scan == "Z":
        assert combinat.Z_identity_scan(4) == (len(grid), [point])
    else:
        assert combinat.coeff_identity_scan(4) == [point]


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
# which primes the sieve slices and which it counts where the product of the
# sliced ones falls short of q.
@pytest.mark.parametrize("x", [1, 2, 3, 4, 48, 49, 50, 120, 121, 122, 2000])
def test_divisor_mean_lhs_at_sieve_boundaries(x):
    for m in (2, 3):
        assert combinat.divisor_mean_check(x, m)["lhs"] == brute_divisor_sum(x, m)


def test_divisor_mean_rejects_x_above_ceiling(monkeypatch):
    monkeypatch.setattr(combinat, "MAX_DIVISOR_MEAN_X", 50)
    assert combinat.divisor_mean_check(50, 2)["lhs"] == brute_divisor_sum(50, 2)
    with pytest.raises(CapacityError):
        combinat.divisor_mean_check(51, 2)


def test_divisor_mean_guard_at_its_limit_and_one_past(monkeypatch):
    # The sieve at the limit takes about 3 s, so a stub stands in for it:
    # the guard passes x = MAX_DIVISOR_MEAN_X to it and refuses one more
    # before it is called.
    seen = []
    monkeypatch.setattr(primes, "squarefree_omega", lambda x: seen.append(x) or iter(()))
    limit = combinat.MAX_DIVISOR_MEAN_X
    assert combinat.divisor_mean_check(limit, 2)["lhs"] == 0
    with pytest.raises(CapacityError):
        combinat.divisor_mean_check(limit + 1, 2)
    assert seen == [limit]


def test_divisor_mean_memory_does_not_grow_with_x():
    # One block of primes._OMEGA_BLOCK integers at a time: 2 * 10^6 takes
    # 16 blocks and 10^5 one shorter block, against 14.3 MiB for arrays
    # over every q <= 2 * 10^6 in one piece.
    peaks = []
    for x in (10**5, 2 * 10**6):
        primes.primes_upto(math.isqrt(x))
        tracemalloc.start()
        try:
            combinat.divisor_mean_check(x, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]
    assert peaks[1] < 24 * primes._OMEGA_BLOCK
