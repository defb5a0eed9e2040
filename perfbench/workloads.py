"""Seeded inputs and checked items for the four benchmark workloads.

An item is one timed call into the program, made of calls to gpylab's public
functions; `run` returns the item's output and its exact work counts, and
`check` returns the problems found by an independent route (empty when the
output is right).  Generators fix the size of every item slot and draw only
shifts, heights, moduli and t from the seed, so the cost of a pass stays
comparable from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
from gpylab import bv, combinat, oracle, primes, sequences, singular, tuples, weights

# Residues mod 30 of the shift unions in the pair-sum slots.  Shifts are
# these residues plus random multiples of 30, so nu_2, nu_3 and nu_5, and
# with them the number of regular classes mod 30 and the window work, are
# the same for every seed.
PATTERN_PAIR = (0, 2, 6)        # H1 = 2 shifts, H2 = 2 shifts, one shared
PATTERN_TRIPLE = (0, 2, 6, 8)   # H1 = 3 shifts, H2 = 3 shifts, two shared
PATTERN_THETA = (0, 2, 6, 12)   # as PATTERN_PAIR, plus h0 outside H1 u H2


@dataclass
class Item:
    kind: str                  # item span name
    module: str                # layer charged when the item fails
    run: Callable              # run(tracer) -> (output, counts)
    check: Callable            # check(output) -> list of problems


def _draw(rng: random.Random, pattern, spread: int = 20) -> list:
    """Shifts with the residues of `pattern` mod 30, admissible, distinct."""
    while True:
        shifts = [r + 30 * rng.randrange(spread) for r in pattern]
        if len(set(shifts)) == len(shifts) and oracles.is_admissible(shifts):
            return shifts


def _free_set(rng: random.Random, size: int, hi: int, admissible: bool) -> list:
    """`size` distinct values in [0, hi); 0 may be drawn."""
    while True:
        shifts = sorted(rng.sample(range(hi), size))
        if not admissible or oracles.is_admissible(shifts):
            return shifts


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _sweep(fn, grid) -> list:
    return [fn(*args) for args in grid]


def _gap(what: str, x: float, y: float, tol: float = 1e-9) -> list:
    gap = oracles.rel_gap(x, y)
    return [] if gap <= tol else [f"{what}: {x!r} vs {y!r} (relative gap {gap:.3g})"]


# ---------------------------------------------------------------- gpy-moments

GPY_FULL = {
    "V": 5, "class_v": 19, "ell": 1,
    "mask": (4, 10**7, 0.2), "walk": (3, 2 * 10**6, 0.3), "theta": (4, 10**6, 0.2),
    "cross": (1, 10**5, 1000.0, 2), "detector": (2 * 10**4, 4),
}
GPY_SMOKE = {
    "V": 5, "class_v": 11, "ell": 1,
    "mask": (1, 10**4, 0.2), "walk": (1, 2 * 10**4, 0.3), "theta": (1, 10**4, 0.2),
    "cross": (1, 2000, 60.0, 1), "detector": (2000, 4),
}


def _pair_item(kind, H1, H2, ell, N, R, size, det_set, h0=None, cross=False) -> Item:
    V, class_v = size["V"], size["class_v"]
    det_N, _ = size["detector"]
    walk = len([q for q in oracles.primes_upto(int(R)) if q > V]) > weights.MAX_MASK_PRIMES

    def run(t):
        T1, T2 = tuples.TupleH(tuple(H1)), tuples.TupleH(tuple(H2))
        union = T1.union(T2)
        params = weights.WeightParams(K=max(len(H1), len(H2)), ell=ell, R=R, V=V, N=N)
        mp = oracle.MainTermParams(T1, T2, ell, ell, R, N, V, h0)
        if h0 is None:
            value = t.call("weights.pair_sum_direct", weights.pair_sum_direct, T1, T2, ell, ell, params)
            pred = t.call("oracle.main_term_t4", oracle.main_term_t4, mp)
        else:
            value = t.call("weights.pair_sum_theta", weights.pair_sum_theta, T1, T2, ell, ell, h0, params)
            pred = t.call("oracle.main_term_t5", oracle.main_term_t5, mp)
        divisor = None
        if cross:
            divisor = t.call("weights.pair_sum_divisor", weights.pair_sum_divisor, T1, T2, ell, ell, params)
        g = t.call("oracle.g00", oracle.g00, union, V)
        classes = t.call("tuples.regular_classes", tuples.regular_classes, union, class_v)
        cmp = t.call("oracle.compare", oracle.compare, value,
                     pred["density_adjusted_mid"], pred["density_adjusted_rad"])
        det_params = weights.WeightParams(K=2, ell=0, R=(3.0 * det_N) ** 0.2, V=3, N=det_N)
        det = t.call("weights.detector_sum", weights.detector_sum,
                     tuples.TupleH(tuple(det_set)), det_params)
        agree = cross and oracles.rel_gap(value, divisor) <= 1e-9
        out = (value, divisor, pred["mid"], g.mid, len(classes), cmp["comparable"],
               det["value"], det["subsets"])
        counts = {
            "weights.window_n": N,
            "weights.walk_items": int(walk),
            "weights.route_pairs": int(cross),
            "weights.route_agree": int(agree),
            "tuples.classes_out": len(classes),
        }
        return out, counts

    def check(out):
        value, divisor, pred_mid, g_mid, n_classes, _, det_value, det_subsets = out
        T1, T2 = tuples.TupleH(tuple(H1)), tuples.TupleH(tuple(H2))
        params = weights.WeightParams(K=max(len(H1), len(H2)), ell=ell, R=R, V=V, N=N)
        if cross:
            problems = _gap("direct vs divisor", value, divisor)
        elif h0 is None:
            other = weights.pair_sum_divisor(T1, T2, ell, ell, params)
            problems = _gap("direct vs divisor", value, other)
        else:
            other = oracles.theta_pair_sum(H1, H2, ell, ell, h0, N, R, V)
            problems = _gap("theta sum vs brute force", value, other)
        expected = tuples.regular_class_count(T1.union(T2), class_v)
        if n_classes != expected:
            problems.append(f"|A(H)| = {n_classes}, product formula {expected}")
        if not (_finite(pred_mid, g_mid, det_value) and pred_mid > 0 and g_mid > 0):
            problems.append(f"main term {pred_mid!r}, G00 {g_mid!r}, detector {det_value!r}")
        if det_subsets != math.comb(len(det_set), 2):
            problems.append(f"detector visited {det_subsets} subsets")
        return problems

    return Item(kind, "weights", run, check)


def gpy_moments(seed: int, smoke: bool) -> list:
    size = GPY_SMOKE if smoke else GPY_FULL
    rng = random.Random(seed)
    ell = size["ell"]
    det_n = size["detector"][1]
    items = []
    count, N, theta = size["mask"]
    for _ in range(count):
        u = _draw(rng, PATTERN_TRIPLE)
        items.append(_pair_item("gpy.direct_mask", u[0:3], u[1:4], ell, N, (3.0 * N) ** theta,
                                size, _free_set(rng, det_n, 30, False)))
    count, N, theta = size["walk"]
    for _ in range(count):
        u = _draw(rng, PATTERN_PAIR)
        items.append(_pair_item("gpy.direct_walk", u[0:2], u[1:3], ell, N, (3.0 * N) ** theta,
                                size, _free_set(rng, det_n, 30, False)))
    count, N, theta = size["theta"]
    for _ in range(count):
        u = _draw(rng, PATTERN_THETA)
        items.append(_pair_item("gpy.theta", u[0:2], u[1:3], ell, N, (3.0 * N) ** theta,
                                size, _free_set(rng, det_n, 30, False), h0=u[3]))
    count, N, R, cross_ell = size["cross"]
    for _ in range(count):
        u = _draw(rng, PATTERN_PAIR)
        items.append(_pair_item("gpy.cross_check", u[0:2], u[1:3], cross_ell, N, R,
                                size, _free_set(rng, det_n, 30, False), cross=True))
    return items


# -------------------------------------------------------------- exact-kernels

EXACT_FULL = {"z_max": 20, "a_max": 9, "divisor_x": 10**6, "interval": (30, 5),
              "general": (30, 200, 4), "monotone": (25, 6)}
EXACT_SMOKE = {"z_max": 4, "a_max": 3, "divisor_x": 1000, "interval": (8, 3),
               "general": (10, 40, 3), "monotone": (8, 4)}


def _z_item(d: int, z_max: int) -> Item:
    """One row of the Z identity grid: fixed d, all u and y up to z_max."""
    def run(t):
        grid = [(combinat.SuitableTriplet(d, u, y),)
                for u in range(z_max + 1) for y in range(-u, z_max + 1)]
        summed = t.call("combinat.Z_sum", _sweep, combinat.Z_sum, grid)
        closed = t.call("combinat.Z_closed", _sweep, combinat.Z_closed, grid)
        bad = sum(a != b for a, b in zip(summed, closed))
        return (len(grid), bad, sum(closed)), {"combinat.grid_points": len(grid)}

    def check(out):
        return [] if out[1] == 0 else [f"Z_sum != Z_closed at {out[1]} grid points"]

    return Item("exact.z_grid", "combinat", run, check)


def _a_item(d: int, a_max: int) -> Item:
    """One row of the A-coefficient identity grid: fixed d, all u, v, j, nu."""
    def run(t):
        grid = [(j, nu, d, u, v)
                for u in range(a_max + 1) for v in range(a_max + 1)
                for j in range(u + 1) for nu in range(v + d + u - j + 1)]
        summed = t.call("combinat.coeff_A_sum", _sweep, combinat.coeff_A_sum, grid)
        closed = t.call("combinat.coeff_A_closed", _sweep, combinat.coeff_A_closed, grid)
        bad = sum(a != b for a, b in zip(summed, closed))
        return (len(grid), bad, sum(closed)), {"combinat.grid_points": len(grid)}

    def check(out):
        return [] if out[1] == 0 else [f"coeff_A_sum != coeff_A_closed at {out[1]} grid points"]

    return Item("exact.a_grid", "combinat", run, check)


def _ratio_item(d: int, u: int, v: int) -> Item:
    def run(t):
        rep = t.call("combinat.coeff_ratio_check", combinat.coeff_ratio_check, d, u, v)
        return (len(rep["violations"]), rep["max_ratio"]), {}

    def check(out):
        return [] if out[0] == 0 else [f"{out[0]} ratio-bound violations at ({d},{u},{v})"]

    return Item("exact.coeff_ratio", "combinat", run, check)


def _squarefree_divisor_sum(x: int, m: int) -> int:
    """sum over squarefree q <= x of m^omega(q), by the oracle's own sieve."""
    omega = [0] * (x + 1)
    squarefree = bytearray([1]) * (x + 1)
    for p in oracles.primes_upto(x):
        for k in range(p, x + 1, p):
            omega[k] += 1
        if p * p <= x:
            squarefree[p * p :: p * p] = bytes(len(range(p * p, x + 1, p * p)))
    return sum(m ** omega[q] for q in range(1, x + 1) if squarefree[q])


def _divisor_mean_item(x: int, m: int) -> Item:
    def run(t):
        rep = t.call("combinat.divisor_mean_check", combinat.divisor_mean_check, x, m)
        return (rep["lhs"], rep["holds"]), {}

    def check(out):
        lhs, holds = out
        own = _squarefree_divisor_sum(x, m)
        problems = [] if lhs == own else [f"divisor sum {lhs} vs own sieve {own}"]
        return problems + ([] if holds else [f"mean-value bound fails at x={x}, m={m}"])

    return Item("exact.divisor_mean", "combinat", run, check)


QUASI_Z = (2, 3, 5, 7, 11, 13)


def _quasiprime_item(H: list) -> Item:
    def run(t):
        T = tuples.TupleH(tuple(H))
        zs = [(T, z) for z in QUASI_Z]
        dens = t.call("singular.quasiprime_density", _sweep, singular.quasiprime_density, zs)
        counts = t.call("singular.quasiprime_count", _sweep, singular.quasiprime_count, zs)
        return (tuple(dens), tuple(counts)), {}

    def check(out):
        problems = []
        for z, dens, count in zip(QUASI_Z, *out):
            primorial = math.prod(oracles.primes_upto(z))
            if dens * primorial != count:
                problems.append(f"z={z}: density*primorial {dens * primorial} vs count {count}")
        return problems

    return Item("exact.quasiprime", "singular", run, check)


def _series_item(H: list, h_in: int, h_out: int) -> Item:
    def run(t):
        T = tuples.TupleH(tuple(H))
        plain = t.call("singular.singular_series", singular.singular_series, T)
        same = t.call("singular.singular_series_extended", singular.singular_series_extended, T, h_in)
        ext = t.call("singular.singular_series_extended", singular.singular_series_extended, T, h_out)
        return ((plain.mid, plain.rad), (same.mid, same.rad), (ext.mid, ext.rad)), {}

    def check(out):
        plain, same, ext = out
        problems = [] if plain == same else [f"S(H u {{h}}) with h in H: {same} vs S(H) {plain}"]
        if not all(_finite(m, r) and m > 0 and r >= 0 for m, r in out):
            problems.append(f"non-positive or non-finite enclosure {out}")
        return problems

    return Item("exact.singular_series", "singular", run, check)


def _interval_average_item(t0: int, h: int, k: int) -> Item:
    shifted = tuple(range(t0 + 1, t0 + h + 1))

    def run(t):
        value = t.call("singular.s_star", singular.s_star, tuples.TupleH(shifted), k)
        return value, {"singular.ordered_subsets": math.comb(h, k) * math.factorial(k)}

    def check(out):
        base = singular.s_star(tuples.TupleH(tuple(range(1, h + 1))), k)
        return _gap(f"S*({k}) on [{t0 + 1},{t0 + h}] vs on [1,{h}]", out, base, 1e-12)

    return Item("exact.interval_average", "singular", run, check)


def _general_average_item(A: list, k: int, t0: int) -> Item:
    def run(t):
        B, rad = t.call("singular.average_B", singular.average_B, tuples.TupleH(tuple(A)), k)
        return (B, rad), {"singular.ordered_subsets": math.comb(len(A), k) * math.factorial(k)}

    def check(out):
        moved, _ = singular.average_B(tuples.TupleH(tuple(a + t0 for a in A)), k)
        problems = _gap(f"B_A({k}) vs B_(A+{t0})({k})", out[0], moved, 1e-12)
        return problems + ([] if _finite(*out) and out[1] >= 0 else [f"bad radius {out[1]!r}"])

    return Item("exact.general_average", "singular", run, check)


def _monotone_method(h: int, k: int) -> str:
    ordered = math.comb(h, k) * math.factorial(k)
    return "exact" if ordered <= singular.MAX_ORDERED_SUBSETS else "histogram"


def _monotone_item(t0: int, h: int, k_max: int) -> Item:
    A = tuple(range(t0 + 1, t0 + h + 1))
    methods = [_monotone_method(h, k) for k in range(1, k_max + 1)]

    def run(t):
        rep = t.call("singular.check_monotone", singular.check_monotone, tuples.TupleH(A), k_max)
        counts = {
            "singular.ordered_subsets": sum(math.comb(h, k) * math.factorial(k)
                                            for k, m in enumerate(rep["methods"], 1) if m == "exact"),
            "singular.histogram_ks": rep["methods"].count("histogram"),
        }
        return (tuple(rep["s_star"]), tuple(rep["methods"])), counts

    def check(out):
        values, got = out
        problems = [] if list(got) == methods else [f"methods {got}, expected {methods}"]
        if len(values) != k_max or not all(_finite(v) and v >= 0 for v in values):
            problems.append(f"S* values {values}")
        return problems

    return Item("exact.check_monotone", "singular", run, check)


def _own_sequence(kind: str, N: int, k: int, h: int, exponents) -> tuple:
    """The members of a sequence family in [1, N], for N < 2^64 and k >= 2."""
    if kind == "interval":
        return tuple(range(1, min(h, N) + 1))
    if kind == "powers_k":
        exps = range(1, 65)
    elif kind == "powers_k_sum_two_squares":
        exps = sorted({x * x + y * y for x in range(1, 9) for y in range(1, 9)})
    else:
        exps = sorted(set(exponents))
    return tuple(k**e for e in exps if k**e <= N)


def _sequence_item(N: int, k: int, h: int, exponents: list) -> Item:
    calls = [("interval", N, k, h, None), ("powers_k", N, k, h, None),
             ("powers_k_sum_two_squares", N, k, h, None), ("custom_exponents", N, k, h, exponents)]

    def run(t):
        return tuple(tuple(s) for s in t.call("sequences.generate_sequence", _sweep,
                                              sequences.generate_sequence, calls)), {}

    def check(out):
        expected = [_own_sequence(*c) for c in calls]
        return [f"{c[0]}: {o} vs {e}" for c, o, e in zip(calls, out, expected) if o != e]

    return Item("exact.sequences", "sequences", run, check)


def exact_kernels(seed: int, smoke: bool) -> list:
    size = EXACT_SMOKE if smoke else EXACT_FULL
    rng = random.Random(seed)
    v = rng.randrange(3, 9)
    u = rng.randrange(0, v + 1)
    H = _free_set(rng, 4, 40, True)
    S = _free_set(rng, 5, 60, True)
    h_out = rng.randrange(200)
    while h_out in S or not oracles.is_admissible(S + [h_out]):
        h_out = rng.randrange(200)
    h, k = size["interval"]
    g_size, g_hi, g_k = size["general"]
    m_h, m_k = size["monotone"]
    z_max, a_max = size["z_max"], size["a_max"]
    return [_z_item(d, z_max) for d in range(z_max + 1)] + [_a_item(d, a_max) for d in range(a_max + 1)] + [
        _ratio_item(rng.randrange(0, 7), u, v),
        _divisor_mean_item(size["divisor_x"] - rng.randrange(1000 if not smoke else 10), rng.choice((2, 3))),
        _quasiprime_item(H),
        _series_item(S, rng.choice(S), h_out),
        _interval_average_item(rng.randrange(10**6), h, k),
        _general_average_item(sorted(rng.sample(range(1, g_hi), g_size)), g_k, rng.randrange(1, 10**6)),
        _monotone_item(rng.randrange(10**6), m_h, m_k),
        _sequence_item(10**rng.randrange(6, 12), rng.choice((2, 3, 5)), rng.randrange(5, 40),
                       sorted(rng.sample(range(1, 30), 5))),
    ]


# --------------------------------------------------------------- progressions

PROG_FULL = {"table": 2 * 10**8, "windows": (16, 11, 12, 10**5), "theta_x": 10**7,
             "bv": (10**7, 300), "restricted": (10**7, 300, 6), "estar": (10**6, 40),
             "estar_star": (10**7, 950), "w": (100.0, 0.01), "j": (3, 10**7)}
PROG_SMOKE = {"table": 10**5, "windows": (2, 11, 12, 1000), "theta_x": 10**4,
              "bv": (10**4, 20), "restricted": (10**4, 10, 6), "estar": (10**4, 5),
              "estar_star": (10**4, 90), "w": (5.0, 0.1), "j": (1, 10**4)}


CHECK_Q = 6  # modulus ceiling of the BV sums recomputed by the oracle


class _OwnPrimes:
    """The oracle's prime list, built once on first use by a check."""

    def __init__(self, limit: int):
        self.limit = limit
        self._primes = None

    def get(self) -> list:
        if self._primes is None:
            self._primes = oracles.primes_upto(self.limit)
        return self._primes


def _table_item(X: int) -> Item:
    def run(t):
        table = t.call("primes.primes_upto", primes.primes_upto, X)
        n = len(table)
        return (n, int(table.primes.sum())), {"primes.primes_out": n}

    def check(out):
        own = oracles.prime_pi_and_sum(X)
        return [] if tuple(out) == own else [f"(pi, sum) up to {X}: {out} vs Lucy {own}"]

    return Item("prog.primes_upto", "primes", run, check)


def _window_item(lo: int, width: int, small: list) -> Item:
    def run(t):
        table = t.call("primes.sieve_range", primes.sieve_range, lo, lo + width)
        found = tuple(table.primes.tolist())
        return found, {"primes.primes_out": len(found), "primes.sieve_range.calls": 1}

    def check(out):
        own = tuple(oracles.window_primes(lo, lo + width, small))
        return [] if out == own else [f"[{lo}, {lo + width}]: {len(out)} primes vs Miller-Rabin {len(own)}"]

    return Item("prog.sieve_window", "primes", run, check)


def _theta_item(x: int, qa: list, own: _OwnPrimes) -> Item:
    def run(t):
        total = t.call("primes.theta_sum", primes.theta_sum, x)
        parts = [t.call("primes.theta_progression", primes.theta_progression, x, q, a) for q, a in qa]
        return (total, tuple(parts)), {}

    def check(out):
        ps = own.get()
        problems = _gap(f"theta({x})", out[0], oracles.theta(x, ps), 1e-12)
        for (q, a), got in zip(qa, out[1]):
            problems += _gap(f"theta({x}; {q}, {a})", got, oracles.theta(x, ps, q, a), 1e-12)
        return problems

    return Item("prog.theta", "primes", run, check)


def _bv_item(N: int, Q: int, own: _OwnPrimes) -> Item:
    def run(t):
        s = t.call("bv.bv_sum", bv.bv_sum, bv.BVConfig(N=N, Q=Q))
        return s, {"bv.moduli": Q}

    def check(out):
        # The full sum has no cheap second route; the same code path at a
        # small Q is compared with the oracle's sum, term by term in q.
        q1 = abs(oracles.theta(N, own.get()) - N)
        problems = [] if _finite(out) and out >= q1 * (1 - 1e-12) else [f"BV sum {out!r} below its q=1 term {q1!r}"]
        small = min(Q, CHECK_Q)
        return problems + _gap(f"BV sum at Q={small}", bv.bv_sum(bv.BVConfig(N=N, Q=small)),
                               oracles.bv_sum(N, small, own.get()), 1e-7)

    return Item("prog.bv_sum", "bv", run, check)


def _restricted_item(N: int, Q: int, M: int) -> Item:
    moduli = sum(1 for q in range(1, Q + 1) if math.gcd(q, M) == 1)
    own = _OwnPrimes(2 * N)

    def run(t):
        s = t.call("bv.bv_sum_restricted", bv.bv_sum_restricted, bv.BVConfig(N=N, Q=Q, M=M))
        return s, {"bv.moduli": moduli}

    def check(out):
        small = min(Q, CHECK_Q)
        problems = [] if _finite(out) and out >= 0 else [f"restricted BV sum {out!r}"]
        return problems + _gap(f"restricted BV sum at Q={small}",
                               bv.bv_sum_restricted(bv.BVConfig(N=N, Q=small, M=M)),
                               oracles.bv_sum_restricted(N, small, M, own.get()), 1e-7)

    return Item("prog.bv_sum_restricted", "bv", run, check)


def _estar_item(N: int, Q: int) -> Item:
    def run(t):
        star = t.call("bv.estar_aggregate", bv.estar_aggregate, bv.BVConfig(N=N, Q=Q, use_estar=True))
        end = t.call("bv.estar_aggregate", bv.estar_aggregate, bv.BVConfig(N=N, Q=Q, use_estar=False))
        return (star, end), {"bv.moduli": 2 * Q}

    def check(out):
        star, end = out
        return [] if _finite(star, end) and star >= end else [f"E* aggregate {star!r} < endpoint-only {end!r}"]

    return Item("prog.estar_aggregate", "bv", run, check)


def _ap_error_star_item(X: int, q: int, own: _OwnPrimes) -> Item:
    def run(t):
        return t.call("primes.ap_error_star", primes.ap_error_star, X, q), {}

    def check(out):
        end = oracles.endpoint_error(X, q, own.get())
        return [] if _finite(out) and out >= end * (1 - 1e-12) else [f"E*({X}, {q}) = {out!r} < endpoint {end!r}"]

    return Item("prog.ap_error_star", "primes", run, check)


def _w_item(tmax: float, step: float) -> Item:
    points = round(tmax / step)

    def run(t):
        rep = t.call("oracle.verify_w_bounds", oracle.verify_w_bounds, tmax, step)
        return (rep["t0"], rep["t1"], rep["power_bound_worst_margin"]), {"oracle.w_points": points}

    def check(out):
        t0, t1, margin = out
        ok = (t1 is None or 1.0 <= t1 <= tmax) and (t0 is None or 0 < t0 <= tmax) and _finite(margin)
        return [] if ok else [f"W scan report {out}"]

    return Item("prog.verify_w_bounds", "oracle", run, check)


def _j_item(t_value: float, X: int, own: _OwnPrimes) -> Item:
    def run(t):
        return t.call("oracle.j_product", oracle.j_product, t_value, X), {}

    def check(out):
        return _gap(f"J({t_value}, {X})", out, oracles.j_product(t_value, own.get(), X))

    return Item("prog.j_product", "oracle", run, check)


def progressions(seed: int, smoke: bool) -> list:
    size = PROG_SMOKE if smoke else PROG_FULL
    rng = random.Random(seed)
    n_win, lo_exp, hi_exp, width = size["windows"]
    bv_N, bv_Q = size["bv"]
    r_N, r_Q, r_M = size["restricted"]
    e_N, e_Q = size["estar"]
    s_X, s_q = size["estar_star"]
    n_j, j_X = size["j"]
    theta_x = size["theta_x"] - rng.randrange(size["theta_x"] // 100)
    bv_N += rng.randrange(bv_N // 100)
    own = _OwnPrimes(max(theta_x, bv_N, s_X, j_X))
    small = oracles.primes_upto(1000)
    items = [_table_item(size["table"] + rng.randrange(size["table"] // 200))]
    # Stratified heights: window i lies in the i-th of n_win equal slices of
    # [10^lo_exp, 10^hi_exp] on a log scale, so every seed mixes low and high
    # windows alike.
    for i in range(n_win):
        lo = int(10 ** (lo_exp + (hi_exp - lo_exp) * (i + rng.random()) / n_win))
        items.append(_window_item(lo, width, small))
    qa = []
    for _ in range(2):
        q = rng.randrange(3, 60)
        qa.append((q, rng.choice([a for a in range(q) if math.gcd(a, q) == 1])))
    items += [
        _theta_item(theta_x, qa, own),
        _bv_item(bv_N, bv_Q, own),
        _restricted_item(r_N + rng.randrange(r_N // 100), r_Q, r_M),
        _estar_item(e_N + rng.randrange(e_N // 100), e_Q),
        _ap_error_star_item(s_X, rng.choice([q for q in oracles.primes_upto(s_q + 100) if q >= s_q]), own),
        _w_item(*size["w"]),
    ]
    items += [_j_item(round(rng.uniform(0.5, 40.0), 6), j_X, own) for _ in range(n_j)]
    return items


# ------------------------------------------------------------------ cli-calls


def _cli(argv: list) -> dict:
    proc = subprocess.run([sys.executable, "-m", "gpylab.cli", *argv, "--stable"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def _cli_item(command: str, argv: list, check) -> Item:
    def run(t):
        return t.call(f"cli.{command}", _cli, argv), {"cli.calls": 1}

    return Item(f"cli.{command}", "cli", run, lambda out: check(out) or [])


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _expect(cond: bool, what: str) -> list:
    return [] if cond else [what]


def cli_calls(seed: int, smoke: bool) -> list:
    rng = random.Random(seed)
    u = _draw(rng, PATTERN_THETA)
    H1, H2, h0 = u[0:2], u[1:3], u[3]
    H = sorted(u[0:3])
    A10 = list(range(1, 11))
    det = _free_set(rng, 4, 30, False)
    x1 = 10**6 + rng.randrange(10**5)
    q1 = rng.randrange(3, 40)
    a1 = rng.choice([a for a in range(q1) if math.gcd(a, q1) == 1])
    x2 = 2 * 10**5 + rng.randrange(10**4)
    q2 = rng.choice(oracles.primes_upto(100)[3:])
    n_lam = 10**6 + rng.randrange(10**6)
    R_lam = round(rng.uniform(20.0, 200.0), 3)
    t_w = round(rng.uniform(0.5, 9.5), 4)
    t_j = round(rng.uniform(0.5, 40.0), 4)
    kind = rng.choice(sequences.KINDS)
    exps = sorted(rng.sample(range(1, 20), 4))
    own = _OwnPrimes(2 * 10**6)

    def own_lambda(n, shifts, R):
        support = tuple(q for q in oracles.primes_upto(int(R)) if any((n + h) % q == 0 for h in shifts))
        return oracles._lambda(support, len(shifts), math.log(R))

    def own_nu(shifts, p):
        return len({h % p for h in shifts})

    calls = [
        ("primes", ["primes", "--hi", str(x1), "--theta", "--q", str(q1), "--a", str(a1), "--error"],
         lambda o: _expect(o["count"] == oracles.prime_pi_and_sum(x1)[0], f"pi({x1}) = {o['count']}")
         + _gap("theta", o["theta"], oracles.theta(x1, own.get()), 1e-12)),
        ("primes", ["primes", "--hi", str(x2), "--q", str(q2), "--estar"],
         lambda o: _expect(o["estar"] >= oracles.endpoint_error(x2, q2, own.get()) * (1 - 1e-12), "E* below endpoint")),
        ("tuple", ["tuple", "check", "--shifts", _csv(H), "--h2", _csv(H2), "--h0", str(h0)],
         lambda o: _expect(o["admissible"] and all(v == own_nu(H, int(p)) for p, v in o["nu_p"].items()),
                           f"tuple check {o}")),
        ("tuple", ["tuple", "discriminant", "--shifts", _csv(H)],
         lambda o: _expect(int(o["discriminant"]) == math.prod(b - a for i, a in enumerate(H) for b in H[i + 1:]),
                           "discriminant")),
        ("tuple", ["tuple", "regular", "--shifts", _csv(H), "--v", "13"],
         lambda o: _expect(o["count"] == o["product_formula"]
                           == math.prod(p - own_nu(H, p) for p in oracles.primes_upto(13)), "class count")),
        ("singular", ["singular", "value", "--shifts", _csv(H)],
         lambda o: _expect(o["mid"] > 0 and o["rad"] >= 0, "singular value")),
        ("singular", ["singular", "average", "--shifts", _csv(A10), "--k", "3"],
         lambda o: _expect(_finite(o["S_star"]) and o["S_star"] > 0, "S* average")),
        ("singular", ["singular", "monotone", "--shifts", _csv(A10), "--kmax", "4"],
         lambda o: _expect(o["methods"] == [_monotone_method(10, k) for k in range(1, 5)], "monotone methods")),
        ("singular", ["singular", "quasidensity", "--shifts", _csv(H), "--z", "13"],
         lambda o: _expect(Fraction(o["density"]) == Fraction(
             math.prod(p - own_nu(H, p) for p in oracles.primes_upto(13)), 30030), "quasi-prime density")),
        ("gpy", ["gpy", "lambda", "--shifts", _csv(H), "--n", str(n_lam), "--r", str(R_lam)],
         lambda o: _gap("lambda_R", o["lambda"], own_lambda(n_lam, H, R_lam))
         + _expect(int(o["polynomial"]) == math.prod(n_lam + h for h in H), "P_H(n)")),
        ("gpy", ["gpy", "moment1", "--h1", _csv(H1), "--h2", _csv(H2), "--n", "1e5", "--strategy", "both"],
         lambda o: _gap("direct vs divisor", o["direct"], o["divisor"])),
        ("gpy", ["gpy", "moment2", "--h1", _csv(H1), "--h2", _csv(H2), "--h0", str(h0), "--n", "1e5"],
         lambda o: _gap("theta sum vs brute force", o["empirical"],
                        oracles.theta_pair_sum(H1, H2, 1, 1, h0, 10**5, (3.0 * 10**5) ** 0.2, 5))),
        ("gpy", ["gpy", "detector", "--shifts", _csv(det), "--k", "2", "--n", "1e4"],
         lambda o: _expect(_finite(o["value"]) and o["subsets"] == math.comb(len(det), 2), "detector")),
        ("combi", ["combi", "lemma2", "--max", "8"],
         lambda o: _expect(o["violations"] == [] and o["checked"] == sum(9 + u for u in range(9)) * 9, "lemma2")),
        ("combi", ["combi", "coeffs", "--max", "4"],
         lambda o: _expect(o["identity_mismatches"] == [] and o["violations"] == [], "coefficient identity")),
        ("combi", ["combi", "divisor-mean", "--x", "20000", "--m", "3"],
         lambda o: _expect(o["holds"] and o["lhs"] == _squarefree_divisor_sum(20000, 3), "divisor mean")),
        ("oracle", ["oracle", "t4", "--h1", _csv(H1), "--h2", _csv(H2), "--n", "1e6", "--empirical", "1000"],
         lambda o: _expect(o["mid"] > 0 and "comparison" in o, "t4")),
        ("oracle", ["oracle", "t5", "--h1", _csv(H1), "--h2", _csv(H2), "--h0", str(h0), "--n", "1e6"],
         lambda o: _expect(_finite(o["mid"]) and o["case"] == "outside", "t5")),
        ("oracle", ["oracle", "g00", "--shifts", _csv(H), "--v", "5"],
         lambda o: _expect(o["mid"] > 0 and o["rad"] >= 0, "G00")),
        ("oracle", ["oracle", "wscan", "--tmax", "10", "--step", "0.05", "--t", str(t_w)],
         lambda o: _gap("|W|", o["w"]["abs"], math.hypot(o["w"]["re"], o["w"]["im"]))),
        ("oracle", ["oracle", "jprod", "--t", str(t_j), "--x", "100000"],
         lambda o: _gap("J", o["J"], oracles.j_product(t_j, own.get(), 10**5))),
        ("bv", ["bv", "classic", "--n", "100000", "--qmax", "30"],
         lambda o: _gap("BV classic", o["sum"], oracles.bv_sum(10**5, 30, own.get()), 1e-7)),
        ("bv", ["bv", "restricted", "--n", "100000", "--qmax", "20", "--v", "3"],
         lambda o: _gap("BV restricted", o["sum"], oracles.bv_sum_restricted(10**5, 20, o["M"], own.get()), 1e-7)),
        ("bv", ["bv", "estar", "--n", "100000", "--qmax", "10"],
         lambda o: _expect(_finite(o["sum"]) and o["sum"] >= 0, "BV estar")),
        ("seq", ["seq", "generate", "--kind", kind, "--n", "1e9", "--k", "3", "--h", "25",
                 "--exponents", _csv(exps)],
         lambda o: _expect(o["values_head"] == list(_own_sequence(kind, 10**9, 3, 25, exps))[:20], "sequence")),
        ("verify", ["verify", "all", "--fast"], lambda o: _expect(o["ok"] is True, "verify all")),
    ]
    if smoke:
        seen, picked = set(), []
        for c in calls:
            if c[0] not in seen:
                seen.add(c[0])
                picked.append(c)
        calls = picked
    return [_cli_item(*c) for c in calls]


WORKLOADS = {
    "gpy-moments": gpy_moments,
    "exact-kernels": exact_kernels,
    "progressions": progressions,
    "cli-calls": cli_calls,
}
