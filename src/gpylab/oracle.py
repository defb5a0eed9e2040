"""Predicted main terms and the analytic helpers behind them.

Predictions for the two pair-sum experiments (plain and theta-weighted),
assembled from the singular series and the regular-class counts, plus the
constant G(0,0) = S(H) P / |A(H)|.  Also here: W(it) = it zeta(1 + it) via
Euler-Maclaurin for every t != 0, grid scans of the lower bounds on
|W(it)|, the partial Euler product J(t, X), and the empirical/predicted
ratio report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes as prime_engine
from . import tuples as tc
from .errors import CapacityError, DomainError
from .singular import SingularValue, singular_series

# Bernoulli numbers B_2, B_4, ..., B_16 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
)
# B_2k / (2k)!, the coefficients of the Euler-Maclaurin tail.
_EM_COEFFS = tuple(b / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, start=1))

# _w_values sums its rows in chunks of at most _W_ENTRIES entries per array,
# though never less than one row.
_W_ENTRIES = 1 << 16

# The libm tables of _w_values, (inv_n, log_n) with inv_n[j] = (j + 1) ** -1.0
# and log_n[j] = log(j + 1), read-only.  They grow on demand to the largest
# n a call needs, at most 10^4 as |t| <= 1000, and are kept.  The pair is
# bound whole, so racing threads can at worst build some entries again.
_w_tables = (np.empty(0), np.empty(0))

# Grid points of verify_w_bounds: 10^6 points hold about 50 MB of per-point arrays.
MAX_W_POINTS = 10**6
# Largest X of j_product, whose prime table and per-prime arrays grow with pi(X).
MAX_J_X = 10**8


@dataclass(frozen=True)
class MainTermParams:
    """Inputs for the predicted main terms; r and the h0 case are derived."""

    H1: tc.TupleH
    H2: tc.TupleH
    ell1: int
    ell2: int
    R: float
    N: int
    V: int
    h0: int | None = None

    def __post_init__(self):
        if self.ell1 < 0 or self.ell2 < 0:
            raise DomainError("ell1, ell2 must be >= 0")
        if not 1 < self.R < math.inf:
            raise DomainError("R must be finite and exceed 1")
        if self.N < 3:
            # error_scale takes log log N, which is positive only from N = 3.
            raise DomainError("N must be >= 3")
        if self.V < 2:
            raise DomainError("V must be >= 2")

    @property
    def r(self) -> int:
        return len(set(self.H1.shifts) & set(self.H2.shifts))

    @property
    def union(self) -> tc.TupleH:
        return self.H1.union(self.H2)

    @property
    def h0_case(self) -> str:
        """One of 'absent', 'outside', 'one_side', 'both_sides'."""
        if self.h0 is None:
            return "absent"
        in1 = self.h0 in self.H1
        in2 = self.h0 in self.H2
        if in1 and in2:
            return "both_sides"
        if in1 or in2:
            return "one_side"
        return "outside"


def g00(H: tc.TupleH, V: int, cutoff: int | None = None) -> SingularValue:
    """G(0,0) = S(H) P / |A(H)|, the per-class density constant."""
    if not tc.is_admissible(H):
        raise DomainError(f"tuple {tuple(H.shifts)} is not admissible")
    S = singular_series(H, cutoff)
    P = tc.primorial(V)
    count = tc.regular_class_count(H, V)
    scale = P / count
    return SingularValue(S.mid * scale, S.rad * scale, S.cutoff)


def _prediction(p: MainTermParams, H: tc.TupleH, c: float, share: int, density: float) -> dict:
    """The main term N c binom(l1+l2, l1) S(H) (log R)^e / e! / share with
    e = r + l1 + l2, its radius from S(H), both again times density, and the
    relative size K rbar* log2(N) / log R of the neglected terms."""
    S = singular_series(H)
    e = p.r + p.ell1 + p.ell2
    base = (
        p.N
        * c
        * math.comb(p.ell1 + p.ell2, p.ell1)
        * math.log(p.R) ** e
        / math.factorial(e)
    ) / share
    K = max(p.H1.size, p.H2.size)
    rbar_star = max(math.sqrt(K), K - p.r)
    return {
        "mid": base * S.mid,
        "rad": abs(base) * S.rad,
        "density_adjusted_mid": base * S.mid * density,
        "density_adjusted_rad": abs(base) * S.rad * density,
        "error_scale": K * rbar_star * math.log(math.log(p.N)) / math.log(p.R),
        "singular_cutoff": S.cutoff,
    }


def main_term_t4(p: MainTermParams, scope: str = "aggregate") -> dict:
    """Predicted plain pair sum.

    aggregate: N binom(l1+l2, l1) (log R)^(r+l1+l2) / (r+l1+l2)! * S(H);
    per_class: aggregate / |A(H)|.  density_adjusted_mid rescales by
    |A(H)|/P, the share of residue classes a measured pair sum visits.  It
    is a desk-scale heuristic, not the limit: it tracks a measured sum only
    at the small R the acceptance criteria use (R <= 31.3), while the
    pair sum at finite R tends to the unadjusted mid as R grows.  The
    reported error_scale is the relative size K rbar* log2(N) / log R of
    the neglected terms.
    """
    if scope not in ("aggregate", "per_class"):
        raise DomainError(f"unknown scope {scope!r}")
    Hu = p.union
    if not (tc.is_admissible(p.H1) and tc.is_admissible(p.H2) and tc.is_admissible(Hu)):
        raise DomainError("tuples (and their union) must be admissible")
    count = tc.regular_class_count(Hu, p.V)
    # Share of residue classes mod P the empirical window actually visits.
    # Scaling by it matches measured sums only at small R: for H1 = (0, 2),
    # H2 = (0, 6), ell = 1, V = 5, adjusted / finite-R main term falls from
    # 2.8 at R = 10 to 0.15 at R = 10^4.
    density = count / tc.primorial(p.V)
    out = _prediction(p, Hu, 1, count if scope == "per_class" else 1, density)
    out["scope"] = scope
    return out


def c_r_factor(p: MainTermParams) -> float:
    """Case-dependent multiplier of the theta-weighted main term."""
    case = p.h0_case
    if case == "absent":
        raise DomainError("h0 is required")
    l1, l2, r = p.ell1, p.ell2, p.r
    if case == "outside":
        return 1.0
    if case == "one_side":
        # Orient so the shared weight sits on the side containing h0.
        if p.h0 in p.H2:
            l1, l2 = l2, l1
        return (l1 + l2 + 1) * math.log(p.R) / ((l1 + 1) * (r + l1 + l2 + 1))
    return (
        (l1 + l2 + 2)
        * (l1 + l2 + 1)
        * math.log(p.R)
        / ((l1 + 1) * (l2 + 1) * (r + l1 + l2 + 1))
    )


def main_term_t5(p: MainTermParams) -> dict:
    """Predicted theta-weighted pair sum:
    N C_R binom(l1+l2, l1) S(H0) (log R)^(r+l1+l2) / (r+l1+l2)! with
    H0 = H1 ∪ H2 ∪ {h0}.  density_adjusted_mid rescales by |A(H0)|/phi(P)
    for direct comparison with a measured theta-weighted sum."""
    if p.h0 is None:
        raise DomainError("h0 is required")
    Hu0 = p.union.union(p.h0)
    # Primes land only in classes coprime to P; of the phi(P) such classes,
    # n + h0 reaches |A(H0)| from the regular window, so the adjusted value
    # rescales by that share for desk-scale comparison.
    phi_P = math.prod(q - 1 for q in prime_engine.primes_upto(p.V))
    density = tc.regular_class_count(Hu0, p.V) / phi_P
    out = _prediction(p, Hu0, c_r_factor(p), 1, density)
    out["case"] = p.h0_case
    return out


def _w_values(ts: np.ndarray) -> np.ndarray:
    """W(it) = it zeta(1 + it) at each t of ts, with W(0) = 1, as a complex array.

    zeta(1 + it) is taken by Euler-Maclaurin: the partial sum of n^{-s} over
    n < M = max(50, floor(10|t|)), then the tail terms at M.  The rows, sorted
    by M, go in chunks as wide as the chunk's last row, M - 1 columns, each
    with as many rows as keep it within _W_ENTRIES entries (at least one).
    Each term is n^{-1} (cos, sin)(-t log n), formed as CPython's complex
    power forms n ** -s, and np.cumsum along n adds each row's terms in
    increasing n; the row's partial sum is its running total at n = M - 1.
    The tail is float64 array arithmetic over all rows at once (_w_tail),
    each operation one that CPython's complex arithmetic performs.  So every
    value is bit for bit the scalar sum sum(n ** -s for n in range(1, M))
    plus the tail in Python complex arithmetic, whatever other t share the
    call.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.abs(ts) <= 1e3):
        raise DomainError("|t| must be <= 1000")
    Ms = np.maximum(50, (10 * np.abs(ts)).astype(np.int64))
    order = np.argsort(Ms, kind="stable")
    t_rows, m_rows = ts[order], Ms[order]
    # Column j holds n = j + 1.  n^{-1} and log n come from libm, as in
    # CPython's complex power: numpy's n ** -1.0 is 1 / n and its log has
    # its own rounding, and each differs from libm at a few n.
    inv_n, log_n = _libm_tables(int(m_rows[-1]) - 1 if ts.size else 0)
    re, im = np.empty(ts.size), np.empty(ts.size)
    widths = (m_rows - 1).tolist()
    r1 = 0
    while r1 < ts.size:
        # The widths ascend: a chunk is as wide as its last row.
        r0, r1 = r1, r1 + 1
        while r1 < ts.size and (r1 + 1 - r0) * widths[r1] <= _W_ENTRIES:
            r1 += 1
        width = widths[r1 - 1]
        phase = -t_rows[r0:r1, None] * log_n[:width]
        last = (np.arange(r1 - r0), m_rows[r0:r1] - 2)
        for total, trig in ((re, np.cos), (im, np.sin)):
            terms = trig(phase)
            terms *= inv_n[:width]
            total[r0:r1] = np.cumsum(terms, axis=1, out=terms)[last]

    out = np.ones(ts.size, dtype=complex)  # W(0) = 1
    rows = t_rows != 0.0
    # Python's complex arithmetic warns of nothing, so neither does the tail
    # where a subnormal t overflows it.
    with np.errstate(over="ignore", invalid="ignore"):
        w_re, w_im = _w_tail(t_rows[rows], m_rows[rows], re[rows], im[rows])
    out.real[order[rows]] = w_re
    out.imag[order[rows]] = w_im
    return out


def _w_tail(
    t: np.ndarray, m: np.ndarray, re: np.ndarray, im: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of W(it) = it (S + T) at each row: t != 0,
    its M in the ascending m, S = re + i im the partial sum over n < M and T
    the Euler-Maclaurin tail at M.

    Each operation is a float64 one of CPython's complex arithmetic on
    s = (1, t), so every value is bit for bit
    1j * t * (complex(re, im) + M ** (1 - s) / (s - 1) + 0.5 * M ** (-s) + ...).
    For an int M and an exponent (e, -t), M ** z is pow(M, e) (cos, sin)(phi)
    with phi = -t log M, the same for every tail term; log M and pow(M, e) come
    from libm once per distinct M.  The quotient by s - 1 = (0, t) takes
    _Py_c_quot's |b.imag| >= |b.real| branch, (a.imag / t, -a.real / t); a
    float times a complex scales both parts.  Each complex product is two
    float64 expressions, as numpy's complex multiply may fuse operations.
    """
    ms, inv = np.unique(m, return_inverse=True)
    ms = ms.tolist()
    log_m = np.array([math.log(M) for M in ms])[inv]
    phase = -t * log_m
    cos, sin = np.cos(phase), np.sin(phase)
    # M ** (1 - s) = (cos, sin), as pow(M, 0.0) = 1, then over s - 1.
    tr = re + sin / t
    ti = im + -cos / t
    pw = np.array([math.pow(M, -1.0) for M in ms])[inv]
    tr += 0.5 * (pw * cos)
    ti += 0.5 * (pw * sin)
    # poch = s (s + 1) ... (s + 2k - 2) before term k, with c = B_2k / (2k)!.
    pr, pi = np.ones_like(t), t.copy()
    for k, c in enumerate(_EM_COEFFS, start=1):
        pw = np.array([math.pow(M, -2.0 * k) for M in ms])[inv]
        ar, ai = c * pr, c * pi
        br, bi = pw * cos, pw * sin
        tr += ar * br - ai * bi
        ti += ar * bi + ai * br
        # poch *= (s + 2k - 1)(s + 2k) = (2k, t)(2k + 1, t)
        fr = 2 * k * (2 * k + 1) - t * t
        fi = 2 * k * t + t * (2 * k + 1)
        pr, pi = pr * fr - pi * fi, pr * fi + pi * fr
    # 1j * t = (0.0 * t - 0.0, t), a signed zero that turns an infinite part
    # of the sum (at a subnormal t) into a nan, times (tr, ti).
    z = 0.0 * t - 0.0
    return z * tr - t * ti, z * ti + t * tr


def _libm_tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The shared tables of n^{-1} and log n for n = 1, 2, ..., at least
    size entries each, first extended where they are shorter."""
    global _w_tables
    inv_n, log_n = _w_tables
    if inv_n.size < size:
        new = range(inv_n.size + 1, size + 1)
        inv_n = np.concatenate((inv_n, [float(k) ** -1.0 for k in new]))
        log_n = np.concatenate((log_n, [math.log(k) for k in new]))
        inv_n.setflags(write=False)
        log_n.setflags(write=False)
        _w_tables = (inv_n, log_n)
    return inv_n, log_n


def w_function(t: float) -> complex:
    """W(it) = it zeta(1 + it) for |t| <= 1000: _w_values at the one point t."""
    return complex(_w_values(np.array([t], dtype=float))[0])


def verify_w_bounds(t_grid_max: float = 100.0, step: float = 0.01) -> dict:
    """Grid scan of the two lower bounds on |W(it)| at t = step, 2 step, ...

    The grid runs to t_grid_max, which must lie in [step, 1000], holds at
    most MAX_W_POINTS points, and goes through _w_values at once; |W| is
    np.hypot of its parts, which rounds as Python's abs(complex) does.
    Reports t0 = largest prefix endpoint with |W(it)| >= e^{t^2/6} on
    (0, t0], and t1 = smallest grid point >= 1 from which |W(it)| >= t^{2/3}
    holds through t_grid_max.
    Either may be absent; the scan reports what it finds rather than
    asserting unstated constants.
    """
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    if not step <= t_grid_max <= 1e3:
        raise DomainError(f"t_grid_max must lie in [step, 1000], got {t_grid_max}")
    # The length np.arange computes for the grid below.
    points = math.ceil((t_grid_max + step / 2 - step) / step)
    if points > MAX_W_POINTS:
        raise CapacityError(f"{points} grid points exceed guard {MAX_W_POINTS}")
    ts = np.arange(step, t_grid_max + step / 2, step)
    w = _w_values(ts)
    w = np.hypot(w.real, w.imag)

    # exp overflows to inf for large t; the comparison is then correctly False.
    with np.errstate(over="ignore"):
        exp_ok = w >= np.exp(ts**2 / 6.0)
    if exp_ok[0]:
        bad = np.flatnonzero(~exp_ok)
        t0 = float(ts[-1]) if bad.size == 0 else float(ts[bad[0] - 1])
    else:
        t0 = None

    pow_ok = w >= ts ** (2.0 / 3.0)
    tail_ok = np.flip(np.cumprod(np.flip(pow_ok)).astype(bool))
    start = np.flatnonzero((ts >= 1.0) & tail_ok)
    t1 = float(ts[start[0]]) if start.size else None
    pow_margin = w - ts ** (2.0 / 3.0)
    worst = int(np.argmin(pow_margin))
    return {
        "t_grid_max": t_grid_max,
        "step": step,
        "t0": t0,
        "t1": t1,
        "power_bound_worst_t": float(ts[worst]),
        "power_bound_worst_margin": float(pow_margin[worst]),
    }


def j_product(t: float, X: int) -> float:
    """J(t, X) = prod_{p <= X} |1 - p^{-1-it}| / (1 - 1/p), in log space."""
    if not 0 < t < math.inf:
        raise DomainError("t must be finite and positive")
    if X > MAX_J_X:
        raise CapacityError(f"X={X} exceeds guard {MAX_J_X}")
    if X < 2:
        return 1.0
    ps = prime_engine.primes_upto(X).primes.astype(np.float64)
    logp = np.log(ps)
    re = 1.0 - np.cos(t * logp) / ps
    im = np.sin(t * logp) / ps
    log_terms = 0.5 * np.log(re * re + im * im) - np.log1p(-1.0 / ps)
    return math.exp(prime_engine.exact_sum(log_terms))


def compare(empirical: float, predicted_mid: float, predicted_rad: float = 0.0) -> dict:
    """Empirical/predicted ratio with the prediction's radius folded in."""
    lo = predicted_mid - predicted_rad
    hi = predicted_mid + predicted_rad
    if lo <= 0.0 <= hi:
        return {
            "comparable": False,
            "empirical": empirical,
            "predicted_mid": predicted_mid,
            "predicted_rad": predicted_rad,
        }
    bounds = sorted((empirical / lo, empirical / hi))
    return {
        "comparable": True,
        "empirical": empirical,
        "predicted_mid": predicted_mid,
        "predicted_rad": predicted_rad,
        "ratio": empirical / predicted_mid,
        "ratio_lo": bounds[0],
        "ratio_hi": bounds[1],
    }
