"""Truncated-divisor sieve weights and their empirical sums.

The weight Lambda_R(n; H, ell) is a Mobius-weighted sum over squarefree
divisors d <= R of the tuple polynomial P_H(n), normalized by (K + ell)!.
Three window statistics are built on it: the plain pair sum, the
theta-weighted pair sum (each weight pair multiplied by log(n + h0) when
n + h0 is prime), and the prime-pair detector.

The window (N, 2N] is read in chunks, and every array is sized by one:
n-ranges of whole periods P = primorial(V), or pieces of one period where
P is the longer, that hold about _CHUNK candidates.  The pair sums return
one exact_sum over the chunks' terms, taken as they come.  Every entry gets
the same terms in the same order however the window is cut, so no value
depends on the cut.

The pair sum has two independent evaluation routes that must agree.  The
direct route finds the regular n of each chunk from one sieved period:
regularity depends on n mod P, so the first min(P, |range|) offsets are
sieved by the primes p <= V and their regular offsets tiled by P.  It then
evaluates every weight of the chunk in one depth-first walk over the
squarefree d <= R built from the primes in (V, R], carrying at each d the
entries n with d | P_H(n).  With m candidates per period, entry j + q m is
entry j plus q P, so a top-level d = q finds its entries among the first
q m candidates and holds them as offsets repeated every q m: it adds its
term by strided slices and gathers indices only for a deeper d q' <= R.
The theta sum flags n + h0 prime by one sieve per chunk, and the detector
builds psi and inner over ranges of _CHUNK n that every K-subset shares.
lambda_R runs the same walk on a single n over the primes p <= R that
divide P_H(n).  The direct route shares no class code with the divisor
route, which reads those squarefree d off one squarefree sieve over [1, R],
then for each pair (d, e) counts the window n with d | P_H1(n) and
e | P_H2(n) exactly, by residue classes.
The roots of P_H1 and of P_H2 mod every d come from passes over the
concatenated ranges [0, d), in runs of at most _CHUNK residues, and
gcd(d, e) with the inverses of d mod every e coprime to it from one
extended-Euclid pass over the pairs d < e (bezout).  The roots x of P_H1
mod d are lifted by the regular classes mod P (crt_lift).  The divisor
route is the only caller of these two array primitives, so they live here.  A root y of P_H2 mod e meets the
classes of x only where g = gcd(d, e) divides y - x, and then in the
classes lifted once more by y mod e' = e / g, which is prime to d P.  So
each pair is counted over the classes mod [d, e] P, by one gcd mask and
one lift per root of e.  The lifts, masks and counts run as arrays over
blocks of d with the same number of roots x, with no Python pass per d,
and a block holds at most _BLOCK_CLASSES lifted classes (or those of one
d), and the call at most MAX_DIVISOR_LIFTS.  The divisor route calls no
window code.
Their agreement is the module's main correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import primes as prime_engine
from . import tuples as tc
from .errors import CapacityError, DomainError

# Selects nothing: the benchmark alone reads it, to label its walk items.
MAX_MASK_PRIMES = 16

# Lifted classes per block of pair_sum_divisor: 256 KiB per int64
# temporary.  A block lifts the classes of some d with the same number of
# roots by every root y of every e, or those of one d by a run of at least
# one y, each by y mod e / gcd(d, e), so it holds
# max(_BLOCK_CLASSES, lifted classes of one d) at most.  On a 2-core Xeon
# VM the seed-7 cross item's counts (R = 1000, V = 5) took 23.8 / 22.1 /
# 21.0 / 24.4 ms at 2**14 / 2**15 / 2**16 / 2**17 (best of 15) and peaked
# at 2.19 / 2.19 / 2.69 / 4.34 MiB.
_BLOCK_CLASSES = 2**15

# Lifted classes of one pair_sum_divisor call, a bound on its time: on a
# 2-core Xeon VM, 1.22e9 (V = 37, R = 1122, the 40 primes from 41 taken
# alternately into H1 and H2) took 13.7 s, so the bound is about a minute.
MAX_DIVISOR_LIFTS = 5 * 10**9

# Window entries per chunk array: the pair sums walk about _CHUNK candidates
# at a time, and detector_sum holds psi and inner over _CHUNK n.  _roots_mod
# takes its d in runs of at most _CHUNK residues.
_CHUNK = 2**16

# Detector subset-enumeration guard.
MAX_DETECTOR_SUBSETS = 5000


@dataclass(frozen=True)
class WeightParams:
    """Parameter bundle: tuple size K, shift ell, level R, prime cut V, range N."""

    K: int
    ell: int
    R: float
    V: int
    N: int

    def __post_init__(self):
        if self.K < 1:
            raise DomainError("K must be >= 1")
        if self.ell < 0:
            raise DomainError("ell must be >= 0")
        if not 1 < self.R < math.inf:
            raise DomainError("R must be finite and exceed 1")
        if self.V < 2:
            raise DomainError("V must be >= 2")
        if self.N < 1:
            raise DomainError("N must be >= 1")


def polynomial_value(n: int, H: tc.TupleH) -> int:
    """P_H(n) = prod_{h in H} (n + h), exactly."""
    if n < 1:
        raise DomainError("n must be >= 1")
    out = 1
    for h in H.shifts:
        out *= n + h
    return out


def _entries(offs: np.ndarray, period: int, size: int) -> np.ndarray:
    """The indices c + k period < size of the offsets c in [0, period), ascending."""
    if period >= size:
        return offs
    idx = (np.arange(0, size, period)[:, None] + offs).ravel()
    return idx[: np.searchsorted(idx, size)]


def _lambda_walk(
    n: np.ndarray, m: int, H: tc.TupleH, primes: list, a: int, R: float
) -> np.ndarray:
    """Sum of mu(d) (log R/d)^a / a! over squarefree d <= R with d | P_H(n),
    for every entry of n, where d runs over products of the ascending `primes`.

    Depth-first over d, pruning once the product exceeds R.  Each stack
    entry is (offsets, period, next prime, log d, mu(d)): the entries of n
    with d | P_H(n) are the offsets repeated every period, and a child d*q
    keeps those whose n mod q is a root -h of P_H mod q.  n must advance by
    one fixed period P every m entries (m >= n.size claims none): a
    top-level child q then finds its offsets on n[:q m] alone, with period
    q m, and a deeper child holds indices, with period n.size.  A node with
    a deeper d q' <= R to visit gathers its indices, and so does one with
    more offsets than whole periods in n; any other adds its term by one
    strided slice per offset.  Either way each entry receives the same
    terms in the same order.

    Where every prime factor of P_H(n) is walked and their set S has
    prod S <= R, the walk visits every subset T of S, and the sum of
    (-1)^|T| (log R - log prod T)^a is an |S|-th difference of a degree-a
    polynomial: exactly 0 when |S| > a.  The walk rounds there, so the
    entries within 1e-9 (log R)^a / a! of 0 are rechecked in Python ints
    and set to 0.0 where that holds; no other entry moves.
    """
    log_R = math.log(R)
    logs = [math.log(q) for q in primes]
    roots = [sorted({(-h) % q for h in H.shifts}) for q in primes]
    size = n.size

    def children(vals, idx, start, log_d, mu):
        """The child entries of a node holding n[idx] = vals, smallest prime last."""
        kids = []
        for i in range(start, len(primes)):
            log_dq = log_d + logs[i]
            # Tolerate rounding at the d = R boundary.
            if log_dq > log_R + 1e-12:
                break
            q = primes[i]
            # At the root, n[j + q m] = n[j] + q P: the hits repeat every q m.
            r = vals[: q * m] % q if idx is None else vals % q
            hit = r == roots[i][0]
            for root in roots[i][1:]:
                hit |= r == root
            if hit.any():
                if idx is None:
                    kids.append((np.flatnonzero(hit), min(q * m, size), i + 1, log_dq, -mu))
                else:
                    kids.append((idx[hit], size, i + 1, log_dq, -mu))
        return kids[::-1]

    # The root d = 1 holds every entry: 0 + 1 * (log R - 0)^a is log R^a.
    out = np.full(size, log_R**a)
    stack = children(n, None, 0, 0.0, 1)
    while stack:
        offs, period, start, log_d, mu = stack.pop()
        term = mu * (log_R - log_d) ** a
        if start < len(primes) and log_d + logs[start] <= log_R + 1e-12:
            idx = _entries(offs, period, size)
            out[idx] += term
            stack.extend(children(n[idx], idx, start, log_d, mu))
        elif offs.size <= size // period:
            for c in offs.tolist():
                out[c::period] += term
        else:
            out[_entries(offs, period, size)] += term
    out /= math.factorial(a)
    # Two bool passes: np.abs(out) would add a float copy of the window.
    tol = 1e-9 * log_R**a / math.factorial(a)
    near_zero = out <= tol
    near_zero &= out >= -tol
    for j in np.flatnonzero(near_zero).tolist():
        if _cancels(int(n[j]), H, primes, a, R):
            out[j] = 0.0
    return out


def _cancels(n: int, H: tc.TupleH, primes: list, a: int, R: float) -> bool:
    """Whether the primes dividing P_H(n) all lie in `primes`, number more
    than a and multiply to at most R."""
    S = set()
    for h in H.shifts:
        c = n + h
        for q in primes:
            while c % q == 0:
                c //= q
                S.add(q)
        if c != 1:
            return False
    return len(S) > a and math.prod(S) <= R


def lambda_R(n: int, H: tc.TupleH, ell: int, R: float) -> float:
    """Lambda_R(n; H, ell) for a single n >= 1 (any Python int), walked over
    the primes p <= R dividing P_H(n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 1 < R < math.inf:
        raise DomainError("R must be finite and exceed 1")
    # Other primes open no branch; walking them costs numpy calls per prime.
    primes = [
        p for p in prime_engine.primes_upto(int(R)).primes.tolist()
        if any((n + h) % p == 0 for h in H.shifts)
    ]
    # Beyond int64, np.array holds n as uint64 or as a Python int object.
    return float(_lambda_walk(np.array([n]), 1, H, primes, H.size + ell, R)[0])


def _window_ranges(params: WeightParams, span: int):
    """The window (N, 2N] as consecutive n-ranges of one width, the last
    one cut at 2N: N / max(1, N // span), rounded up to whole periods
    P = primorial(V) where it reaches P.  So a range is at least span wide,
    unless it is the whole window, and at most 2 span + P.

    Every window route reads the window here, so its ceiling is checked
    when this is called, before any range exists: 8N <= MAX_TABLE_BYTES.
    A range shorter than P is flagged one byte per n, and at large V with
    a sparse union one range is the whole window; the theta route flags
    n + h0 one byte per n; and the time of every window route grows with N.
    """
    P, N = tc.primorial(params.V), params.N
    if 8 * N > prime_engine.MAX_TABLE_BYTES:
        raise CapacityError(
            f"window N={N} is past the window routes' ceiling "
            f"N <= {prime_engine.MAX_TABLE_BYTES // 8}: their time and per-n flags grow with N"
        )
    step = -(-N // max(1, N // span))
    if step >= P:
        step = P * -(-step // P)
    return (range(lo, min(lo + step, 2 * N + 1)) for lo in range(N + 1, 2 * N + 1, step))


def _window_chunks(Hu: tc.TupleH, params: WeightParams, per_class: int | None, span: int):
    """The n in (N, 2N] with gcd(P_Hu(n), P) = 1 (or in one given regular
    class mod P), over the ranges of _window_ranges: yields (ns, cands, m),
    with ns the range, cands its candidates ascending and m their number
    per period P.

    Regularity depends on n mod P only, and every range of whole periods
    starts in the class of N + 1: one strided write per (p <= V, h) sieves
    the first P offsets of the first range, and the regular offsets are
    tiled by P over every range and cut at its end.  A range shorter than P
    is sieved by itself, and m is its size.
    """
    P = tc.primorial(params.V)
    if per_class is not None:
        a = per_class % P
        if any(math.gcd(a + h, P) != 1 for h in Hu.shifts):
            raise DomainError(f"{per_class} is not a regular class mod {P}")
    ps = prime_engine.primes_upto(params.V).primes.tolist()
    base = None
    for ns in _window_ranges(params, span):
        lo = ns.start
        if per_class is not None:
            yield ns, np.arange(lo + (a - lo) % P, ns.stop, P), 1
            continue
        if base is None or len(ns) < P:
            width = min(P, len(ns))
            ok = np.ones(width, dtype=bool)
            for p in ps:
                for h in Hu.shifts:
                    ok[(-(lo + h)) % p :: p] = False
            base = np.flatnonzero(ok)
        cands = (np.arange(lo, ns.stop, width)[:, None] + base).ravel()
        yield ns, cands[: np.searchsorted(cands, ns.stop)], base.size


def _mask_primes(params: WeightParams) -> list:
    """Primes q with V < q <= R: the only possible divisors of P_H(n) for
    regular n, up to the sieve level."""
    table = prime_engine.primes_upto(int(params.R))
    return [int(q) for q in table.primes if q > params.V]


def lambda_window(
    cands: np.ndarray, m: int, H: tc.TupleH, ell: int, params: WeightParams
) -> np.ndarray:
    """Lambda_R(n; H, ell) for every candidate n, vectorized.

    The candidates are regular n in the window (N, 2N] of `params`, so only
    the primes in (V, R] can divide P_H(n); one divisor walk over them
    evaluates the whole array.  Every m entries they advance by P =
    primorial(V), as `_window_chunks` yields them; m = cands.size claims no
    period.
    """
    assert (cands[m:] - cands[: cands.size - m] == tc.primorial(params.V)).all()
    return _lambda_walk(cands, m, H, _mask_primes(params), H.size + ell, params.R)


def _check_pair_inputs(H1: tc.TupleH, H2: tc.TupleH) -> tc.TupleH:
    Hu = H1.union(H2)
    for H in (H1, H2, Hu):
        if not tc.is_admissible(H):
            raise DomainError(f"tuple {tuple(H.shifts)} is not admissible")
    return Hu


def _pair_terms(
    cands: np.ndarray,
    m: int,
    ns: range,
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    params: WeightParams,
    h0: int | None,
) -> np.ndarray:
    """Lambda_R(n;H1,ell1) Lambda_R(n;H2,ell2) over the candidates n of one
    chunk, the n-range ns; with h0 given, only over n with n + h0 prime,
    each product times log(n + h0)."""
    if h0 is not None:
        # Flag, at each offset of the range, whether n + h0 is prime.
        lo = ns.start + h0
        prime = np.zeros(len(ns), dtype=bool)
        prime[prime_engine.sieve_range(lo, ns.stop - 1 + h0).primes - lo] = True
        # The n kept follow no period, but walking them alone costs less than
        # a tiled walk over every candidate.
        cands = cands[prime[cands - ns.start]]
        m = cands.size
    terms = lambda_window(cands, m, H1, ell1, params)
    terms *= lambda_window(cands, m, H2, ell2, params)
    if h0 is not None:
        terms *= np.log((cands + h0).astype(np.float64))
    return terms


def _pair_sum(
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    params: WeightParams,
    per_class: int | None,
    h0: int | None,
) -> float:
    """Sum of Lambda_R(n;H1,ell1) Lambda_R(n;H2,ell2) over regular n in (N, 2N];
    with h0 given, only over n with n + h0 prime, each product times log(n + h0).

    The window is walked in chunks of about _CHUNK candidates, of which
    there are |A(Hu)| in every P n (one in one class).  exact_sum takes each
    chunk's terms as they come, so every array is sized by a chunk.
    """
    Hu = _check_pair_inputs(H1, H2)
    P = tc.primorial(params.V)
    per_period = 1 if per_class is not None else tc.regular_class_count(Hu, params.V)
    chunks = _window_chunks(Hu, params, per_class, _CHUNK * P // per_period)
    return prime_engine.exact_sum(
        _pair_terms(cands, m, ns, H1, H2, ell1, ell2, params, h0) for ns, cands, m in chunks
    )


def pair_sum_direct(
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    params: WeightParams,
    per_class: int | None = None,
) -> float:
    """Sum of Lambda_R(n;H1,ell1) Lambda_R(n;H2,ell2) over regular n in (N, 2N]."""
    return _pair_sum(H1, H2, ell1, ell2, params, per_class, None)


def pair_sum_theta(
    H1: tc.TupleH,
    H2: tc.TupleH,
    ell1: int,
    ell2: int,
    h0: int,
    params: WeightParams,
) -> float:
    """Theta-weighted pair sum: the same product times log(n + h0) at primes."""
    if h0 < 1:
        raise DomainError("h0 must be >= 1")
    if 2 * params.N + h0 > prime_engine.MAX_SIEVE_HI:
        raise CapacityError(
            f"2N + h0 = {2 * params.N + h0} exceeds the sieve ceiling {prime_engine.MAX_SIEVE_HI}"
        )
    return _pair_sum(H1, H2, ell1, ell2, params, None, h0)


def _rough_divisors(params: WeightParams) -> tuple[np.ndarray, np.ndarray]:
    """The squarefree d <= R coprime to P = primorial(V), ascending, and
    mu(d) = (-1)^omega(d), read off the blocks of one squarefree sieve over
    [1, R]."""
    q, omega = map(np.concatenate, zip(*prime_engine.squarefree_omega(int(params.R))))
    rough = np.gcd(q, tc.primorial(params.V)) == 1
    return q[rough], 1 - 2 * (omega[rough] & 1)


def _roots_mod(H: tc.TupleH, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots x in [0, d) of P_H mod every d of ds, ascending per d and
    concatenated in the order of ds, and their number per d.

    One int32 pass over the concatenated ranges [0, d) of each run of
    consecutive d that together cover at most _CHUNK entries (or of one d
    alone): x is a root when prod_h (x + h mod d) mod d is 0.  Every
    product of two residues mod d is below d^2, which must fit in int32;
    pair_sum_divisor's R^2 <= 10^7 guard keeps it below 10^7.
    """
    roots, counts = [], []
    ends = np.cumsum(ds)
    lo = 0
    while lo < ds.size:
        hi = max(lo + 1, int(ends.searchsorted(ends[lo] - ds[lo] + _CHUNK, side="right")))
        run = ds[lo:hi]
        ends_run = np.cumsum(run)
        starts = ends_run - run
        mods = np.repeat(run.astype(np.int32), run)
        x = np.arange(ends_run[-1], dtype=np.int32) - np.repeat(starts.astype(np.int32), run)
        z = np.ones_like(x)
        for h in H.shifts:
            z *= (x + np.repeat((h % run).astype(np.int32), run)) % mods
            z %= mods
        pos = np.flatnonzero(z == 0)
        sizes = np.diff(np.searchsorted(pos, np.concatenate(([0], ends_run))))
        roots.append(pos - np.repeat(starts, sizes))
        counts.append(sizes)
        lo = hi
    return np.concatenate(roots), np.concatenate(counts)


def bezout(a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = gcd(a, u) and s in [0, u) with s a = g (mod u), elementwise, as
    int64 arrays, for integer arrays a >= 0 and 1 <= u < 2^22 (s is 0
    where u = 1 or u | a).

    One extended Euclidean pass over the whole array in float32: the
    remainders stay in [0, u) and the coefficients of a within [-u, u], so
    every value and product is an integer of magnitude below 2^23, and the
    quotient floor(r0 / r1) of r0 < 2^24 is exact.  No step branches per
    pair: a pair that is done has r1 = 0, is divided by 2^60 instead and
    so only swaps its two rows.  A pair that takes n steps has
    u >= F(n + 2), F the Fibonacci numbers (Lame), so the steps stop at
    that bound for the largest u, O(log u).
    """
    u = np.asarray(u, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64) % u
    u_max = int(u.max(initial=1))
    if u_max >= 2**22:
        raise CapacityError(f"modulus {u_max} reaches 2^22: float32 Euclid is exact below it")
    steps, fib, nxt = 0, 2, 3
    while fib <= u_max:
        steps, fib, nxt = steps + 1, nxt, fib + nxt
    # r0 = s0 a and r1 = s1 a (mod u); Euclid runs on (r0, r1).
    r0, r1 = u.astype(np.float32), a.astype(np.float32)
    del a
    s0, s1 = np.zeros_like(r1), np.ones_like(r1)
    quot, tmp = np.empty_like(r1), np.empty_like(r1)
    for _ in range(steps):
        np.multiply(r1 == 0, np.float32(2.0**60), out=quot)
        quot += r1
        np.divide(r0, quot, out=quot)
        np.floor(quot, out=quot)
        r0 -= np.multiply(quot, r1, out=tmp)
        s0 -= np.multiply(quot, s1, out=tmp)
        r0, r1, s0, s1 = r1, r0, s1, s0
    # One remainder of each pair is 0 and the other g, with its coefficient.
    r0 += r1
    s1 = np.where(r1 == 0, s0, s1).astype(np.int64)
    s1 %= u
    return r0.astype(np.int64), s1


def crt_lift(a: np.ndarray, m, r: np.ndarray, q, inv) -> np.ndarray:
    """The classes a mod m crossed with the residues r mod q, gcd(m, q) = 1,
    given inv = m^{-1} mod q in [0, q): a + m ((r - a) inv mod q), the class
    mod m q that is a mod m and r mod q, elementwise over the broadcast of
    the int64 arrays or ints a, m, r, q and inv.

    a lies in [0, m) and r in [0, q), so |r - a| < max(m, q) and inv < q:
    every int64 product stays below max(m, q) q, which must fit for each
    pair (m, q) broadcast together; a lift is refused whole if one does not.
    That bound is smallest when m is the larger modulus, so a caller passes
    its larger modulus as m.  The caller brings the inverses, as one pow
    for a single modulus or one bezout pass for many.
    """
    m, q = np.asarray(m, dtype=np.int64), np.asarray(q, dtype=np.int64)
    over = np.maximum(m, q) > (2**63 - 1) // q
    if over.any():
        i = np.unravel_index(np.argmax(over), over.shape)
        m, q = np.broadcast_to(m, over.shape)[i], np.broadcast_to(q, over.shape)[i]
        raise CapacityError(f"lifted modulus {m}*{q} does not fit in int64")
    lift = np.subtract(r, a, dtype=np.int64)
    lift *= inv
    lift %= q
    lift *= m
    lift += a
    return lift


def _pair_counts(H1: tc.TupleH, H2: tc.TupleH, params: WeightParams) -> tuple:
    """The squarefree d <= R coprime to P = primorial(V) and their mu(d),
    from _rough_divisors, and count[j, i], the number of regular n in
    (N, 2N] with vals[j] | P_H1(n) and vals[i] | P_H2(n).

    The roots of P_H1 and P_H2 mod every d come from _roots_mod; past
    MAX_DIVISOR_LIFTS lifted classes (roots x by regular classes by roots
    y) the call is refused before any class is built.  One bezout pass over
    the pairs d < e gives g = gcd(d, e) and, where g = 1, d^{-1} mod e and
    e^{-1} mod d, and one more P^{-1} mod d; e' = e / g is prime to d, so
    (d P)^{-1} mod e' is read at (d, e').  The d are then taken in blocks
    of rows that have the same number of roots x of P_H1, each block by
    _block_counts over every root y of P_H2 mod every e, or one d over a
    run of those roots, so that a block lifts at most
    max(_BLOCK_CLASSES, lifted classes of one d) classes.  The
    R^2 <= 10^7 guard also bounds the pairs: the d are distinct integers in
    [1, R], so there are at most 3162 of them, each far below bezout's 2^22.
    """
    Hu = _check_pair_inputs(H1, H2)
    if params.R * params.R > 10**7:
        raise CapacityError(f"R^2 = {params.R**2:.3g} exceeds expansion budget 10^7")
    N = params.N
    if N >= 2**62:
        raise CapacityError(f"N = {N} reaches 2^62: the window counts take 2N as int64")
    # Ascending, so that searchsorted finds every e' among them.
    vals, mu = _rough_divisors(params)
    P = tc.primorial(params.V)
    x_all, x_sizes = _roots_mod(H1, vals)
    # The roots of P_H2 mod every e, concatenated, and the index of their e.
    y_all, y_sizes = _roots_mod(H2, vals)
    lifts = x_all.size * tc.regular_class_count(Hu, params.V) * y_all.size
    if lifts > MAX_DIVISOR_LIFTS:
        raise CapacityError(f"{lifts} lifted classes exceed guard {MAX_DIVISOR_LIFTS}")
    reg = tc.regular_classes(Hu, params.V) % P
    # int32, as the gcd table, for the gcd masks (y - x) % g.
    x_all, y_all = x_all.astype(np.int32), y_all.astype(np.int32)
    e_of_y = np.repeat(np.arange(vals.size), y_sizes)
    # gcd[j, i] = gcd(d, e) and inv[j, i] = (d P)^{-1} mod e' for
    # (d, e) = (vals[j], vals[i]); the table is first d^{-1} mod e where
    # g = 1, by Bezout s d + t e = 1 for d < e.
    jd, je = np.triu_indices(vals.size, 1)
    g, s = bezout(vals[jd], vals[je])
    gcd = np.empty((vals.size, vals.size), dtype=np.int32)
    gcd[jd, je] = gcd[je, jd] = g
    np.fill_diagonal(gcd, vals)
    inv = np.zeros(gcd.shape, dtype=np.int32)
    inv[jd, je], inv[je, jd] = s, (1 - s * vals[jd]) // vals[je] % vals[jd]
    del jd, je, g, s
    inv_P = bezout(P % vals, vals)[1]
    assert (inv_P * (P % vals) % vals == 1 % vals).all()
    # Every product below R^2 <= 10^7 fits int32.
    inv *= inv_P.astype(np.int32)
    inv %= vals.astype(np.int32)
    j, i = np.nonzero(gcd > 1)
    inv[j, i] = inv[j, np.searchsorted(vals, vals[i] // gcd[j, i])]
    count = np.zeros(gcd.shape, dtype=np.int64)
    x_starts = np.cumsum(x_sizes) - x_sizes
    for nx in sorted(set(x_sizes.tolist()) - {0}):
        rows = np.flatnonzero(x_sizes == nx)
        step = max(1, _BLOCK_CLASSES // (nx * reg.size * y_all.size))
        for lo in range(0, rows.size, step):
            j = rows[lo : lo + step]
            x = x_all[x_starts[j, None] + np.arange(nx)]
            # (b, i, class): the root x[b, i] lifted by every regular class, mod d P.
            lifted = crt_lift(reg, P, x[:, :, None], vals[j, None, None], inv_P[j, None, None])
            # d P fits int64, as the lift's guard found.
            dP = vals[j] * P
            per_y = np.zeros((j.size, y_all.size), dtype=np.int64)
            run = max(1, _BLOCK_CLASSES // lifted.size)
            for k in range(0, y_all.size, run):
                e = e_of_y[k : k + run]
                per_y[:, k : k + run] = _block_counts(
                    lifted, dP, x, y_all[k : k + run], vals[e], gcd[j][:, e], inv[j][:, e], N
                )
            count[j] = np.add.reduceat(per_y, np.cumsum(y_sizes) - y_sizes, axis=1)
    return vals, mu, count


def _block_counts(
    lifted: np.ndarray, dP: np.ndarray, x: np.ndarray, y: np.ndarray, e: np.ndarray,
    g: np.ndarray, inv: np.ndarray, N: int,
) -> np.ndarray:
    """per_y[b, k]: the number of n in (N, 2N] in the classes lifted[b, i]
    mod dP[b] with n = y[k] (mod e[k]), summed over the roots x[b, i] whose
    classes they are.

    g[b, k] = gcd(d, e) and inv[b, k] = (d P)^{-1} mod e' = e / g, which is
    prime to d P: a lifted class of x meets y exactly when g | y - x, in
    the one class mod d P e' that is y mod e'.  The count of a class c mod
    M is (2N - c) // M - (N - c) // M, and (kN - c) // M is kN // M, less 1
    where c > kN % M: one division per pair (b, k), then two comparisons
    per class.
    """
    e_red = e // g
    # numpy runs fastest along the last axis: the lift is (b, i, k, class)
    # where the classes outnumber the roots y, else (b, i, class, k); a
    # table over the pairs (b, k) is read at [pair].
    if lifted.shape[2] > y.size:
        c, a, pair = 3, lifted[:, :, None, :], np.s_[:, None, :, None]
    else:
        c, a, pair = 2, lifted[..., None], np.s_[:, None, None, :]
    lift = crt_lift(a, dP[:, None, None, None], (y % e_red)[pair], e_red[pair], inv[pair])
    mods = dP[:, None] * e_red
    (k1, r1), (k2, r2) = np.divmod(N, mods), np.divmod(2 * N, mods)
    over = (lift > r1[pair]).view(np.int8)
    over -= (lift > r2[pair]).view(np.int8)
    del lift
    # (b, i, k): whether g | y - x, as every root does where g = 1.
    meets = (y - x[:, :, None]) % g[:, None, :] == 0
    # |over summed over the classes| <= |reg| <= MAX_CLASS_MEMBERS.
    per_x = over.sum(axis=c, dtype=np.int32)
    per_x *= meets
    k2 -= k1
    k2 *= lifted.shape[2]
    k2 *= meets.sum(axis=1)
    k2 += per_x.sum(axis=1)
    return k2


def pair_sum_divisor(
    H1: tc.TupleH, H2: tc.TupleH, ell1: int, ell2: int, params: WeightParams
) -> float:
    """Pair sum by divisor-pair expansion with exact residue counting.

    Each pair (d, e) of squarefree values <= R with no prime factor <= V
    contributes mu(d) (log R/d)^a1 / a1! times mu(e) (log R/e)^a2 / a2!
    times the exact count of regular window n with d | P_H1(n) and
    e | P_H2(n), counted over the classes mod [d, e] P by _pair_counts.
    """
    vals, mu, count = _pair_counts(H1, H2, params)
    log_R = math.log(params.R)
    w1, w2 = (
        np.array([
            m * (log_R - math.log(d)) ** a / math.factorial(a)
            for d, m in zip(vals.tolist(), mu.tolist())
        ])
        for a in (H1.size + ell1, H2.size + ell2)
    )
    jd, je = np.nonzero(count)
    return prime_engine.exact_sum(w1[jd] * w2[je] * count[jd, je])


def _detector_terms(A: tc.TupleH, subsets: list, chunks: tuple, params: WeightParams) -> np.ndarray:
    """inner(n) psi(n)^2 over the n-range ns that each subset's chunk covers."""
    N, ns = params.N, chunks[0][0]
    psi = np.zeros(len(ns), dtype=np.float64)
    for H, (_, cands, m) in zip(subsets, chunks):
        psi[cands - ns.start] += lambda_window(cands, m, H, params.ell, params)
    # The primes n + a <= 3N, one sieve per run of shifts whose ranges ns + a
    # overlap or touch.  n + a runs from N + 1 + min(A): a shift 0 reaches
    # n = N + 1 itself.
    runs = []
    for a in A.shifts:
        # Past 3N no n + a counts, and ns.start + a may not fit the uint32
        # table.
        if ns.start + a > 3 * N:
            break
        if runs and a - runs[-1][-1] <= len(ns):
            runs[-1].append(a)
        else:
            runs.append([a])
    inner = np.full(len(ns), -math.log(3 * N), dtype=np.float64)
    for run in runs:
        hi = min(ns.stop - 1 + run[-1], 3 * N)
        table = prime_engine.sieve_range(ns.start + run[0], hi).primes
        for a in run:
            i, j = np.searchsorted(table, [ns.start + a, ns.stop + a])
            p = table[i:j]
            inner[p - (ns.start + a)] += np.log(p.astype(np.float64))
    inner *= psi
    inner *= psi
    return inner


def detector_sum(A: tc.TupleH, params: WeightParams) -> dict:
    """Prime-pair detector S'_R over the window, report form.

    For each n in (N, 2N] the inner weight is the sum of Lambda_R(n; H, ell)
    over K-subsets H of A for which n is regular; its square is weighted by
    (sum of log p over primes p = n + a, a in A, p <= 3N) - log 3N, and the
    total is normalized by N h^{2K+1} with h = max(A).  Positivity would
    certify a prime pair inside some length-h window.  At desk scale the
    sign depends on A and R (at N = 1e5, K = 2, ell = 1, V = 5 it is
    positive for A = {2, 6, 8, 12, 14} and negative for A = [1, 10] at
    R = (3N)^0.2), so it is reported, not asserted.
    """
    K, ell = params.K, params.ell
    h = max(A.shifts)
    if h == 0:
        raise DomainError("max(A) must be positive: h = max(A) normalizes the sum")
    if K > A.size:
        raise DomainError(f"K={K} exceeds |A|={A.size}")
    n_subsets = math.comb(A.size, K)
    if n_subsets > MAX_DETECTOR_SUBSETS:
        raise CapacityError(
            f"{n_subsets} K-subsets of A (budget {MAX_DETECTOR_SUBSETS})"
        )
    N = params.N
    subsets = [H for H in map(tc.TupleH, combinations(A.shifts, K)) if tc.is_admissible(H)]
    # Every subset's candidates over the same ranges of _CHUNK n.
    chunks = zip(*(_window_chunks(H, params, None, _CHUNK) for H in subsets))
    total = prime_engine.exact_sum(_detector_terms(A, subsets, per_H, params) for per_H in chunks)
    value = total / (N * float(h) ** (2 * K + 1))
    return {
        "value": value,
        "K": K,
        "ell": ell,
        "h": h,
        "N": N,
        "R": params.R,
        "subsets": n_subsets,
        "positive": value > 0,
    }
