"""Prime sieve, theta statistics, the exact float sum, and the factoriser,
which also decides primality."""

import ast
import math
import tracemalloc
import weakref
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpylab import integers, primes
from gpylab import tuples as tc
from gpylab.errors import CapacityError, DomainError


def test_primes_upto_counts():
    assert len(primes.primes_upto(10)) == 4
    assert len(primes.primes_upto(1000)) == 168
    assert len(primes.primes_upto(10**5)) == 9592


def test_sieve_range_matches_sympy_on_windows():
    # The base primes come from the sieve itself at isqrt(hi): lo in 0..3 with
    # hi up to 10 covers isqrt(hi) < 2, = 2 and = 3; the rest sit next to the
    # prime squares 25, 49, 121 and 169.
    windows = [(0, 100), (90, 150), (10**6 - 50, 10**6 + 50), (2, 2)]
    windows += [(lo, hi) for lo in range(4) for hi in range(lo, 11)]
    hi_near_squares = (24, 25, 26, 48, 49, 50, 120, 121, 122, 168, 169, 170)
    windows += [(lo, hi) for lo in range(4) for hi in hi_near_squares]
    # Every lo in 0..20 starts at 0, 1, 2, an even number or inside the wheel
    # primes 3..13, which the wheel strikes and the sieve restores.
    windows += [(lo, hi) for lo in range(21) for hi in [*range(lo, 61), lo + 1000, lo + 30031]]
    for lo, hi in windows:
        got = primes.sieve_range(lo, hi).primes.tolist()
        want = list(sympy.primerange(max(lo, 2), hi + 1))
        assert got == want, (lo, hi)


def _twin_prime_above(n):
    p = sympy.nextprime(n)
    while not sympy.isprime(p + 2):
        p = sympy.nextprime(p)
    return p


def test_sieve_range_crosses_segment_boundary():
    # A segment holds SEGMENT_SIZE odd numbers, so it spans 2 * SEGMENT_SIZE
    # integers; each window spans 2.5 segments and crosses two boundaries.
    # The twin primes p, p + 2 end the first segment and start the second, so
    # a segment that starts one odd number late drops p + 2, and one that
    # starts one early yields p twice.  The window starts once at an odd lo,
    # once at the even number before it.
    span = 2 * primes.SEGMENT_SIZE
    p = _twin_prime_above(span)
    for lo in (p + 2 - span, p + 1 - span):
        hi = lo + 5 * primes.SEGMENT_SIZE
        got = primes.sieve_range(lo, hi).primes
        assert got.size == sympy.primepi(hi) - sympy.primepi(lo - 1)
        for edge in (p + 2, p + 2 + span):
            near = got[(got >= edge - 300) & (got <= edge + 300)].tolist()
            assert near == list(sympy.primerange(edge - 300, edge + 301))


@settings(max_examples=30, deadline=None)
@given(lo=st.integers(0, 50000), width=st.integers(0, 2000))
def test_sieve_range_random_windows(lo, width):
    hi = lo + width
    got = primes.sieve_range(lo, hi).primes.tolist()
    assert got == list(sympy.primerange(max(lo, 2), hi + 1))


def test_sieve_range_slice_loop_takes_primes_below_ceil_count_over_8():
    # [345, 629] has 143 odd entries.  17 strikes odd multiples 34 entries
    # apart from 357 on: 9 strikes, the ninth at 629 = 17 * 37.  ceil(143/8)
    # = 18 keeps 17 in the slice loop; a cut at floor(143/8) = 17 would send
    # it to the 8-strike broadcast and report 629 as prime.
    assert primes.sieve_range(345, 629).primes.tolist() == list(sympy.primerange(345, 630))
    for lo in range(300, 400):
        for hi in range(lo + 120, lo + 300, 7):
            got = primes.sieve_range(lo, hi).primes.tolist()
            assert got == list(sympy.primerange(lo, hi + 1)), (lo, hi)


@pytest.mark.parametrize("segment", [1000, 15015, 40000])
def test_sieve_range_wheel_phases_across_segments(monkeypatch, segment):
    # The wheel repeats every 15015 odd numbers.  Each window starts at a
    # different phase of it and spans 2.5 segments, so its segments start at
    # phases that are neither 0 nor the window's own.
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment)
    for phase in (0, 1, 7, 7507, 15014):
        lo = 2 * (15015 * 80 + phase) + 1  # odd number 2k + 1 with k = phase mod 15015
        hi = lo + 5 * segment
        got = primes.sieve_range(lo, hi).primes.tolist()
        assert got == list(sympy.primerange(lo, hi + 1)), (segment, phase)


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(0, 10**6), width=st.integers(0, 3000))
@example(lo=0, width=0)
@example(lo=0, width=3)
@example(lo=2, width=0)
@example(lo=3, width=0)
@example(lo=2, width=1)
@example(lo=13, width=0)
def test_prime_count_bound_holds(lo, width):
    hi = lo + width
    got = primes.sieve_range(lo, hi).primes
    assert got.size == sympy.primepi(hi) - sympy.primepi(lo - 1)
    assert got.size <= primes.prime_count_bound(lo, hi)


def test_prime_count_bound_by_hand():
    assert primes.prime_count_bound(0, 1) == 0
    assert primes.prime_count_bound(3, 3) == 2  # one odd entry, plus one for 2
    assert primes.prime_count_bound(0, 1000) == 182  # 1.25506 * 1000 / log 1000 = 181.7
    assert primes.prime_count_bound(1001, 2000) == 290  # 2 * 1000 / log 1000 = 289.5


def test_tiny_windows_match_trial_division_and_skip_the_sieve(monkeypatch):
    # Windows ending below 2^8 are read off a table made at import: enough
    # for every primorial(V <= tuples.MAX_V = 43), admissibility check of
    # |H| <= 43 shifts and mask prime list at R < 256.  Every window up to
    # 2 past the bound, against trial division done here; from the bound on
    # the sieve runs.
    bound = 2**8
    assert integers._TINY_HI == bound
    want = [n for n in range(2, bound + 3) if all(n % p for p in range(2, math.isqrt(n) + 1))]
    calls = []
    sieve = primes._sieve_odd
    monkeypatch.setattr(primes, "_sieve_odd", lambda *args: calls.append(args) or sieve(*args))
    for hi in range(bound + 3):
        for lo in range(hi + 1):
            got = primes.sieve_range(lo, hi).primes
            assert got.dtype == np.uint32 and not got.flags.writeable
            assert got.tolist() == [p for p in want if lo <= p <= hi]
        assert bool(calls) == (hi >= bound)
    for x, sieved in ((bound - 1, False), (bound, True)):
        calls.clear()
        table = primes.primes_upto(x)
        assert table.primes.tolist() == [p for p in want if p <= x]
        assert bool(calls) == sieved


def test_small_primes_match_sympy_across_the_table_edge():
    # Below 2^8 they are the table's; from 2^8 on each m is decided by
    # factorize.
    for x in [*range(-1, 600), 1000, 7919]:
        assert integers.small_primes(x) == list(sympy.primerange(2, x + 1)), x


def test_sieve_range_table_is_read_only_and_trimmed():
    # The table is trimmed in place: it owns its data or views no larger
    # buffer, so no capacity beyond its primes stays allocated.
    for lo, hi in ((0, 0), (0, 2), (3, 3), (0, 100), (10**6, 10**6 + 1000), (0, 3 * 10**6)):
        p = primes.sieve_range(lo, hi).primes
        assert not p.flags.writeable
        assert p.base is None or p.base.nbytes <= p.nbytes


def test_primes_upto_peak_memory_is_about_one_table():
    # The uint32 table is allocated once, at the bound (1.17x the primes
    # here), and a segment adds about 2 MiB of flags and indices.  An int64
    # table peaks near twice this bound; concatenating per-segment chunks
    # held every prime twice on top of that.
    bound = primes.prime_count_bound(0, 2 * 10**7)
    tracemalloc.start()
    try:
        table = primes.primes_upto(2 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.primes.dtype == np.uint32
    assert peak <= 4.4 * bound + 2 * 2**20


def test_tables_below_2_32_take_4_bytes_per_prime():
    assert primes.primes_upto(10**7).primes.nbytes == 4 * 664579


def test_table_guard_at_its_limit(monkeypatch):
    # prime_count_bound(0, 1000) = 182 uint32 entries of 4 bytes.  The first
    # call also grows the shared base table, which the patched guard would
    # refuse.
    assert len(primes.primes_upto(1000)) == 168
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 728)
    assert len(primes.primes_upto(1000)) == 168
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 727)
    with pytest.raises(CapacityError):
        primes.primes_upto(1000)


def test_table_guard_at_its_limit_above_2_32(monkeypatch):
    # prime_count_bound(2**32, 2**32 + 200) = 76 int64 entries of 8 bytes.
    lo, hi = 2**32, 2**32 + 200
    want = _sympy_window(lo, hi)
    assert primes.sieve_range(lo, hi).primes.tolist() == want
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 608)
    assert primes.sieve_range(lo, hi).primes.tolist() == want
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 607)
    with pytest.raises(CapacityError):
        primes.sieve_range(lo, hi)


def test_table_guard_refuses_before_allocating():
    # The largest legal tables fit (about 243, 386 and 972 MB; computed, not
    # run): every uint32 window does.  The int64 table of [0, 2**32] needs
    # 1.9 GB.
    assert 4 * primes.prime_count_bound(0, 10**9) <= primes.MAX_TABLE_BYTES
    assert 4 * primes.prime_count_bound(10**9 + 1, 2 * 10**9) <= primes.MAX_TABLE_BYTES
    assert 4 * primes.prime_count_bound(0, 2**32 - 1) <= primes.MAX_TABLE_BYTES
    tracemalloc.start()
    try:
        for lo, hi in ((0, 2**32), (0, 10**12), (2**39, 2**40)):
            with pytest.raises(CapacityError):
                primes.sieve_range(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _sympy_window(lo, hi):
    return [n for n in range(lo, hi + 1) if sympy.isprime(n)]


def test_sieve_range_large_base_prime_square_inside_window():
    # p = 1000003 exceeds the 201-entry segment, so its one odd multiple in
    # the window, p^2, is struck by the vectorised step for large primes.
    p = 1000003
    got = primes.sieve_range(p * p - 200, p * p + 200).primes.tolist()
    assert got == _sympy_window(p * p - 200, p * p + 200)
    assert p * p not in got


def test_sieve_range_window_ending_at_ceiling():
    hi = primes.MAX_SIEVE_HI
    got = primes.sieve_range(hi - 2000, hi).primes.tolist()
    assert got == _sympy_window(hi - 2000, hi)


def test_sieve_range_single_entry_windows_near_1e12():
    p = 1000003
    points = list(range(10**12 - 12, 10**12 + 41)) + [p * p - 2, p * p, p * p + 2]
    got = [n for n in points if primes.sieve_range(n, n).primes.tolist() == [n]]
    want = [n for n in points if sympy.isprime(n)]
    assert got == want and len(want) >= 2


def test_sieve_range_width_at_2_32():
    below = primes.sieve_range(2**32 - 10**4, 2**32 - 1).primes
    across = primes.sieve_range(2**32 - 10**4, 2**32 + 10**4).primes
    above = primes.sieve_range(2**32, 2**32 + 10**4).primes
    assert below.dtype == np.uint32
    assert across.dtype == above.dtype == np.int64
    assert below.tolist() == _sympy_window(2**32 - 10**4, 2**32 - 1)
    assert above.tolist() == _sympy_window(2**32, 2**32 + 10**4)
    assert across.tolist() == below.tolist() + above.tolist()


def test_base_table_is_shared_and_capped(monkeypatch):
    # The first window near 10**11 grows the base table; the next ones
    # below it slice it and sieve nothing more.
    sieve_range = primes.sieve_range
    assert sieve_range(10**11, 10**11 + 1000).primes.tolist() == _sympy_window(10**11, 10**11 + 1000)
    calls = []
    monkeypatch.setattr(primes, "sieve_range", lambda lo, hi: calls.append((lo, hi)))
    for lo in (10**11 - 5000, 10**10, 10**6):
        assert sieve_range(lo, lo + 1000).primes.tolist() == _sympy_window(lo, lo + 1000)
    assert calls == []
    monkeypatch.undo()
    primes.sieve_range(primes.MAX_SIEVE_HI - 100, primes.MAX_SIEVE_HI)
    top, base = primes._base
    assert top == 2**20 and base.dtype == np.int64
    assert base.size == 82025 - 6  # the primes <= 2**20 but 2, 3, 5, 7, 11, 13


def test_sieve_range_rejects_bad_bounds():
    with pytest.raises(DomainError):
        primes.sieve_range(10, 5)
    with pytest.raises(CapacityError):
        primes.sieve_range(0, primes.MAX_SIEVE_HI + 1)


def _assert_as_fsum(*arrays):
    """exact_sum(*arrays) gives what math.fsum over all their entries gives:
    the same float with the same sign, nan for nan, or the same exception."""
    try:
        want = math.fsum(chain(*arrays))
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            primes.exact_sum(*arrays)
        return
    got = primes.exact_sum(*arrays)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want, (got, want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@st.composite
def _float_arrays(draw):
    """Up to three blocks and one entry, binary exponents in [e0, e1] within
    +-1000 (about 10^+-300), with or without subnormals and exact
    cancellation pairs, and with or without a half-ulp tie in the total."""
    block = primes.SUM_BLOCK
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 3 * block + 1)))
    e0 = draw(st.integers(-1000, 1000))
    e1 = draw(st.integers(e0, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(e0, e1 + 1, n))
    if draw(st.booleans()):
        tiny = rng.random(n) < 0.3
        x[tiny] = np.ldexp(rng.integers(-(2**52), 2**52, tiny.sum()).astype(float), -1074)
    if draw(st.booleans()):
        half = x[: n // 2]
        x = np.concatenate([half, -half, x[n // 2 :]])
    if draw(st.booleans()):
        # Every entry beside its negative, and a + u/4 + u/4 = a + u/2 with
        # u the spacing at a: the total lies halfway between two floats.
        a = math.ldexp(rng.uniform(-1.0, 1.0), int(rng.integers(max(e0, -900), max(e1, -900) + 1)))
        u = math.ulp(a)
        x = np.concatenate([x, -x, [a, u / 4, u / 4]])
    rng.shuffle(x)
    return x


@settings(max_examples=60, deadline=None)
@given(arrays=st.lists(_float_arrays(), min_size=1, max_size=3))
def test_exact_sum_is_fsum_on_wide_arrays(arrays):
    _assert_as_fsum(*arrays)


@settings(max_examples=300, deadline=None)
@given(lists=st.lists(st.lists(st.floats(), max_size=30), max_size=4))
def test_exact_sum_is_fsum_on_any_floats(lists):
    _assert_as_fsum(*(np.array(x, dtype=np.float64) for x in lists))


@pytest.mark.parametrize("n", [primes.SUM_BLOCK - 1, primes.SUM_BLOCK, primes.SUM_BLOCK + 1])
def test_exact_sum_at_the_block_size(n):
    rng = np.random.default_rng(n)
    # Every entry just below 2**40: the level sums come near their bound.
    top = np.ldexp(1.0 - rng.integers(1, 2**30, n) * 2.0**-53, 40)
    mixed = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-60, 60, n))
    _assert_as_fsum(top)
    _assert_as_fsum(mixed)
    _assert_as_fsum(top, mixed)
    _assert_as_fsum(-top, top[::-1], mixed[:1])


def test_exact_sum_keeps_what_the_rounds_leave():
    rng = np.random.default_rng(5)
    # Exponents spread over 2000 binary orders: the round cap stops the block.
    # With every entry beside its negative, the total is the 1.0 left below.
    spread = np.ldexp(rng.uniform(-1.0, 1.0, 5000), rng.integers(-1000, 1000, 5000))
    _assert_as_fsum(spread)
    _assert_as_fsum(np.concatenate([spread, [1.0], -spread]))
    # Subnormal remainders below a normal level: a subnormal sigma stops it.
    tiny = np.ldexp(rng.integers(1, 2**40, 100).astype(float), -1074)
    _assert_as_fsum(np.concatenate([[2.0**-980, -(2.0**-990)], tiny]))


def test_exact_sum_special_cases():
    _assert_as_fsum()
    _assert_as_fsum(np.empty(0), [])
    for zeros in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-1.0, 1.0]):
        _assert_as_fsum(np.array(zeros))
    _assert_as_fsum([-0.0] * (primes.SUM_BLOCK + 1), [-0.0])
    with pytest.raises(OverflowError):
        primes.exact_sum(np.array([1e308, 1e308]))
    with pytest.raises(ValueError):
        primes.exact_sum(np.array([math.inf, -math.inf]))
    assert math.isnan(primes.exact_sum(np.array([1.0, math.nan])))
    assert primes.exact_sum(np.array([1.0]), np.array([math.inf])) == math.inf
    for x in ([1e308, 1e308], [math.inf, -math.inf], [math.nan], [1.0, math.inf]):
        _assert_as_fsum(np.array(x))


def _assert_chunks_as_fsum(chunks):
    """exact_sum over an iterator of the chunks gives what math.fsum over
    their concatenation gives, as _assert_as_fsum checks."""
    try:
        want = math.fsum(chain(*chunks))
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            primes.exact_sum(iter(chunks))
        return
    got = primes.exact_sum(iter(chunks))
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want, (got, want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=200, deadline=None)
@given(lists=st.lists(st.lists(st.floats(), max_size=30), max_size=6))
def test_exact_sum_of_chunks_is_fsum_on_any_floats(lists):
    _assert_chunks_as_fsum([np.array(x, dtype=np.float64) for x in lists])


def test_exact_sum_of_chunks_at_the_block_size():
    rng = np.random.default_rng(3)
    x = np.ldexp(rng.uniform(-1.0, 1.0, 3 * primes.SUM_BLOCK + 5), rng.integers(-60, 60, 3 * primes.SUM_BLOCK + 5))
    want = math.fsum(x)
    for cuts in ([], [1], [primes.SUM_BLOCK], [7, primes.SUM_BLOCK + 3, 2 * primes.SUM_BLOCK]):
        chunks = np.split(x, cuts)
        assert primes.exact_sum(iter(chunks)) == want
        # Mixed with arrays given whole, in argument order.
        assert primes.exact_sum(chunks[0], iter(chunks[1:])) == want


def test_exact_sum_of_chunks_with_special_values_in_different_chunks():
    inf, nan = math.inf, math.nan
    cases = [
        [[1.0, inf], [2.0], [-inf]],  # ValueError
        [[1e308], [1e308]],  # OverflowError
        [[1.0, 1e308], [-1.0], [1e308, 3.0]],  # OverflowError
        [[1.0], [nan], [2.0]],
        [[1.0], [2.0], [inf]],
        [[-inf], [], [5.0, -inf]],
        [[2.0**-1074], [0.0], [-0.0]],
    ]
    for chunks in cases:
        _assert_chunks_as_fsum([np.array(c, dtype=np.float64) for c in chunks])
    with pytest.raises(ValueError):
        primes.exact_sum(iter([np.array([inf]), np.array([-inf])]))
    with pytest.raises(OverflowError):
        primes.exact_sum(iter([np.array([1e308]), np.array([1e308])]))
    assert math.isnan(primes.exact_sum(iter([np.array([1.0]), np.array([nan])])))


def test_exact_sum_drops_each_chunk_before_the_next():
    # A chunk made while the one before it is still held would double the
    # memory of a sum over a window's chunks.
    held = []

    def chunks():
        for k in range(4):
            held.append(any(ref() is not None for ref in refs))
            chunk = np.full(1000, float(k))
            refs.append(weakref.ref(chunk))
            yield chunk
            del chunk

    refs = []
    assert primes.exact_sum(chunks()) == 6000.0
    assert held == [False] * 4


def test_math_fsum_is_called_only_inside_exact_sum():
    # One way to sum floats: every other reduction goes through exact_sum.
    class Uses(ast.NodeVisitor):
        def __init__(self):
            self.scope, self.found = [], []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Attribute(self, node):
            if node.attr == "fsum":
                self.found.append(tuple(self.scope))
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id == "fsum":
                self.found.append(tuple(self.scope))

        def visit_alias(self, node):
            if node.name == "fsum":
                self.found.append(tuple(self.scope))

    where = {}
    for path in sorted(Path(primes.__file__).parent.glob("*.py")):
        uses = Uses()
        uses.visit(ast.parse(path.read_text()))
        if uses.found:
            where[path.name] = set(uses.found)
    assert where == {"primes.py": {("exact_sum",)}}


def test_theta_sum_against_direct_log_sum():
    for x in (10, 100, 1229):
        want = math.fsum(math.log(p) for p in sympy.primerange(2, x + 1))
        assert primes.theta_sum(x) == pytest.approx(want, rel=1e-12)


def test_theta_progression_partitions_theta():
    x, q = 5000, 12
    total = primes.theta_sum(x)
    parts = math.fsum(primes.theta_progression(x, q, a) for a in range(q))
    assert parts == pytest.approx(total, rel=1e-12)


def test_ap_error_by_hand():
    # theta(50; 4, 1) covers 5, 13, 17, 29, 37, 41; phi(4) = 2.
    want = math.fsum(math.log(p) for p in (5, 13, 17, 29, 37, 41)) - 50 / 2
    assert primes.ap_error(50, 4, 1) == pytest.approx(want, rel=1e-12)


def test_ap_error_star_dominates_endpoint_error():
    X, q = 2000, 7
    table = primes.primes_upto(X)
    endpoint = max(
        abs(primes.ap_error(X, q, a, table)) for a in range(1, q) if math.gcd(a, q) == 1
    )
    star = primes.ap_error_star(X, q, table)
    assert star >= endpoint - 1e-9


def test_ap_error_star_brute_force_small():
    X, q = 300, 5
    table = primes.primes_upto(X)
    best = 0.0
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        for x in range(1, X + 1):
            best = max(best, abs(primes.theta_progression(x, q, a, table) - x / 4))
    assert primes.ap_error_star(X, q, table) == pytest.approx(best, rel=1e-9)


def _ap_error_star_per_residue(X, q, table):
    # Reference route: filter the whole table once per residue class.
    p = table.primes[table.primes <= X]
    phi_q = int(sympy.totient(q))
    best = 0.0
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        pa = p[p % q == a % q]
        if pa.size:
            logs = np.log(pa)
            cum = np.cumsum(logs)
            after = np.abs(cum - pa / phi_q)
            before = np.abs((cum - logs) - pa / phi_q)
            endpoint = abs(cum[-1] - X / phi_q)
            best = max(best, float(after.max()), float(before.max()), endpoint)
        else:
            best = max(best, X / phi_q)
    return best


def test_ap_error_star_bit_identical_to_per_residue_filter():
    table = primes.primes_upto(10**5)
    for q in (1, 2, 12, 210, 997):
        assert primes.ap_error_star(10**5, q, table) == _ap_error_star_per_residue(10**5, q, table)
    # Classes 1, 44, 45 and 46 mod 47 hold no prime <= 50, and classes 1 and 4
    # mod 5 none <= 4, where that empty-class term X / phi(q) = 1 is the maximum.
    # At X = 2 and 3 the table holds one or two primes: mod 2 its only coprime
    # class holds 3 or nothing, mod 3 class 1 is empty.
    small_X = [(X, q) for X in (2, 3) for q in (1, 2, 3)]
    for X, q in ((50, 47), (4, 5), *small_X):
        small = primes.primes_upto(X)
        assert primes.ap_error_star(X, q, small) == _ap_error_star_per_residue(X, q, small)
    assert primes.ap_error_star(4, 5) == 1.0


def test_statistics_equal_on_both_table_widths():
    narrow = primes.primes_upto(5000)
    wide = primes.PrimeTable(0, 5000, narrow.primes.astype(np.int64))
    assert narrow.primes.dtype == np.uint32
    for x, q, a in ((5000, 1, 0), (5000, 12, 7), (4999, 210, 11), (3000, 4999, 2999), (100, 10**6, 97)):
        for f in (primes.theta_progression, primes.ap_error):
            assert f(x, q, a, narrow) == f(x, q, a, wide)
    for X, q in ((5000, 1), (5000, 210), (5000, 997), (2000, 10**6), (1000, 5_000_000_006)):
        assert primes.ap_error_star(X, q, narrow) == primes.ap_error_star(X, q, wide)


def test_moduli_and_residues_past_uint32():
    # p % q = p for every p <= X < q: a q past 2**32 never meets the uint32
    # table, where it would raise OverflowError.
    assert primes.ap_error_star(1000, 5_000_000_006) == 6.904750371080192
    assert primes.theta_progression(1000, 5_000_000_006, 2**32 + 1) == 0.0


def test_ap_error_star_returns_a_float():
    # At (3000, 6) the endpoint term wins the max, at (10**4, 10) a jump.
    for X, q, best in ((3000, 6, 83.0276931685462), (10**4, 10, 92.54562489556247)):
        got = primes.ap_error_star(X, q)
        assert type(got) is float
        assert got == best


def test_residues_equal_remainders_at_the_dtype_edges():
    largest = 2**32 - 5  # the largest prime below 2**32
    narrow = np.concatenate([
        primes.primes_upto(10**4).primes,
        primes.sieve_range(2**32 - 10**4, 2**32 - 1).primes,
        np.array([0, 1, 2**16, 2**31, 2**31 + 1, 2**32 - 1], dtype=np.uint32),
    ])
    assert narrow.dtype == np.uint32 and narrow[-7] == largest
    wide = primes.sieve_range(2**32 - 1000, 2**32 + 1000).primes
    assert wide.dtype == np.int64 and wide[0] < 2**32 < wide[-1]
    cases = [(narrow, q) for q in (1, 2, 2**16, 2**16 + 1, 2**31 + 1, largest)]
    cases += [(wide, q) for q in (1, 3, 2**31 + 1, 2**32 - 17, 2**32 + 15, 2**33 + 7)]
    for p, q in cases:
        want = p % q
        got = primes.residues(p, q)
        assert got.dtype == p.dtype and np.array_equal(got, want), q
        index = np.empty(p.size, dtype=np.intp)
        assert primes.residues(p, q, index) is index
        assert np.array_equal(index, want), q


def test_ap_error_star_memory_does_not_grow_with_the_modulus():
    # 168 primes against 10^6 classes: only the classes holding a prime are
    # visited, so nothing of length q is allocated.
    table = primes.primes_upto(1000)
    tracemalloc.start()
    try:
        primes.ap_error_star(1000, 10**6, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**9))
def test_factorize_matches_sympy(n):
    assert integers.factorize(n) == sympy.factorint(n)


def test_factorize_makes_no_sieve_call(monkeypatch):
    def refuse(lo, hi):
        raise AssertionError("factorize sieved")

    monkeypatch.setattr(primes, "sieve_range", refuse)
    near_2_32 = [2**32 + d for d in range(-5, 6)]
    for n in [*range(1, 3001), *near_2_32, 999983 * 999979, sympy.prevprime(10**12)]:
        assert integers.factorize(n) == sympy.factorint(n)


def _squarefree_factors(x):
    """{q: omega(q)} over the squarefree q in [1, x], by sympy."""
    factors = {q: sympy.factorint(q) for q in range(1, x + 1)}
    return {q: len(f) for q, f in factors.items() if all(e == 1 for e in f.values())}


# Blocks of 1 and 7 integers cut between the prime squares 4, 49 and 121,
# where sqrt(x) gains a prime; 64 takes x = 122 in two blocks and the default
# takes every x here in one.
@pytest.mark.parametrize("block", [1, 7, 64, primes._OMEGA_BLOCK])
def test_squarefree_omega_matches_sympy_in_any_block(monkeypatch, block):
    monkeypatch.setattr(primes, "_OMEGA_BLOCK", block)
    want = _squarefree_factors(5000)
    for x in (1, 2, 3, 4, 5, 48, 49, 50, 120, 121, 122, 5000):
        blocks = list(primes.squarefree_omega(x))
        assert len(blocks) == -(-x // block)
        for i, (q, omega) in enumerate(blocks):
            lo = 1 + i * block
            assert q.tolist() == [n for n in range(lo, min(lo + block, x + 1)) if n in want]
            assert omega.tolist() == [want[n] for n in q.tolist()]


def test_squarefree_omega_lists_no_prime_past_sqrt_x(monkeypatch):
    upto = primes.primes_upto
    for x in (1, 3, 4, 48, 49, 120, 121, 10**5 - 1, 10**5):
        def refuse(y, x=x):
            assert y <= math.isqrt(x), f"a prime table to {y} for x = {x}"
            return upto(y)

        monkeypatch.setattr(primes, "primes_upto", refuse)
        for _ in primes.squarefree_omega(x):
            pass


def test_squarefree_omega_memory_is_bounded_by_its_blocks(monkeypatch):
    # A block's product, omega, flags and indices, with the last block's q
    # and omega still held by the loop, take about 20 bytes per integer of
    # one block; one flag per q <= x alone would take 122 blocks' worth.
    x, block = 5 * 10**5, 1 << 12
    monkeypatch.setattr(primes, "_OMEGA_BLOCK", block)
    primes.primes_upto(math.isqrt(x))
    tracemalloc.start()
    try:
        count = sum(q.size for q, _ in primes.squarefree_omega(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Q(x) = sum over d <= sqrt(x) of mu(d) floor(x / d^2).
    assert count == 303958
    assert peak < 32 * block


def test_phi_matches_sympy_totient():
    for n in [*range(1, 3001), *(2**32 + d for d in range(-5, 6))]:
        assert primes._phi(n) == sympy.totient(n), n


def test_factorize_at_its_bound():
    bound = integers.MAX_FACTOR_N
    largest_prime = sympy.prevprime(bound)
    for n in (1, 2, bound - 1, bound, largest_prime, 999983 * 999979):
        assert integers.factorize(n) == sympy.factorint(n)
    with pytest.raises(CapacityError):
        integers.factorize(bound + 1)
    with pytest.raises(DomainError):
        integers.factorize(0)


def _nu_calls(p):
    """nu_p, nu_bar_p and nu_star_p at the modulus p."""
    H, G = tc.TupleH((0, 2)), tc.TupleH((0, 6))
    return (lambda: tc.nu_p(H, p), lambda: tc.nu_bar_p(H, G, p), lambda: tc.nu_star_p(H, 4, p))


def test_nu_p_rejects_composite_modulus():
    with pytest.raises(DomainError):
        tc.nu_p(tc.TupleH((0, 2)), 4)
    # A valid call leaves nothing behind that lets a composite modulus through.
    H = tc.TupleH((0, 2))
    assert tc.nu_p(H, 5) == 2
    with pytest.raises(DomainError):
        tc.nu_p(H, 4)
    assert tc.nu_p(H, 5) == 2
    # 997^2, the Carmichael numbers 561 and 41041, and two strong
    # pseudoprimes: 25326001 to bases 2, 3, 5 and 3215031751 to 2, 3, 5, 7.
    # The message names the modulus, below 2 as well as above.
    for p in (0, 1, 9, 994009, 561, 41041, 25326001, 3215031751):
        assert not sympy.isprime(p)
        for call in _nu_calls(p):
            with pytest.raises(DomainError, match=f"^{p} is not prime$"):
                call()
    # The largest prime up to MAX_FACTOR_N is accepted, the next one refused.
    assert [call() for call in _nu_calls(999999999989)] == [2, 1, 2]
    assert sympy.prevprime(integers.MAX_FACTOR_N) == 999999999989
    assert sympy.nextprime(integers.MAX_FACTOR_N) == 1000000000039
    for call in _nu_calls(1000000000039):
        with pytest.raises(CapacityError):
            call()


def test_require_prime_matches_sympy_on_a_dense_range():
    accepted = []
    for p in range(2 * 10**4 + 1):
        try:
            tc._require_prime(p)
            accepted.append(p)
        except DomainError:
            pass
    assert accepted == list(sympy.primerange(0, 2 * 10**4 + 1))
