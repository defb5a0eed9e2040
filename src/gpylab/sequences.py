"""Generators for the shift-set families the method applies to.

Four families, each producing the elements of A that fall in [1, N]:
a dense interval {1..h}, geometric powers {k^m}, powers with exponents of
the form x^2 + y^2, and powers with a caller-supplied exponent set.  The
interesting regime is sparse sets whose counting function still beats
C sqrt(log N) (log log N)^2.
"""

from __future__ import annotations

import math

from .errors import CapacityError, DomainError

KINDS = ("interval", "powers_k", "powers_k_sum_two_squares", "custom_exponents")


def density_threshold(N: int) -> float:
    """sqrt(log N) (log log N)^2, the method's sparseness floor up to a constant."""
    if N < 16:
        raise DomainError("N too small for the density threshold")
    return math.sqrt(math.log(N)) * math.log(math.log(N)) ** 2


def _powers(k: int, N: int, exponents) -> list:
    """k^m for the ascending exponents m, up to the first k^m > N; k >= 2,
    so from m = N.bit_length() on k^m >= 2^m > N, and no such power is
    computed."""
    out = []
    for m in exponents:
        if m >= N.bit_length() or k**m > N:
            break
        out.append(k**m)
    return out


def generate_sequence(kind: str, N: int, k: int = 2, h: int = 10, exponents=None) -> list:
    """Elements of the chosen family inside [1, N]; may be empty."""
    if kind not in KINDS:
        raise DomainError(f"unknown sequence kind {kind!r}; choose from {KINDS}")
    if N < 1:
        raise DomainError("N must be >= 1")
    if kind == "interval":
        # Only this branch needs primes, and with it numpy: the CLI parser
        # reads KINDS, and --help or a usage error should load neither.
        from . import primes as prime_engine

        if h < 1:
            raise DomainError("h must be >= 1")
        # A list holds 40 bytes per term: an 8-byte pointer and a 32-byte int.
        size = min(h, N)
        if 40 * size > prime_engine.MAX_TABLE_BYTES:
            raise CapacityError(
                f"interval of {size} terms needs {40 * size} bytes, "
                f"over guard {prime_engine.MAX_TABLE_BYTES}"
            )
        values = list(range(1, size + 1))
    elif kind == "powers_k":
        if k < 2:
            raise DomainError("k must be >= 2")
        values = _powers(k, N, range(1, N.bit_length() * 64))
    elif kind == "powers_k_sum_two_squares":
        if k < 2:
            raise DomainError("k must be >= 2")
        max_e = int(math.log(N) / math.log(k)) + 1
        es = sorted(
            {
                x * x + y * y
                for x in range(1, int(math.isqrt(max_e)) + 1)
                for y in range(1, int(math.isqrt(max_e)) + 1)
                if x * x + y * y <= max_e
            }
        )
        values = _powers(k, N, es)
    else:  # custom_exponents
        if not exponents:
            raise DomainError("custom_exponents requires a non-empty exponent list")
        if k < 2:
            raise DomainError("k must be >= 2")
        es = sorted(set(int(e) for e in exponents))
        # k^-m is not an integer; k^0 = 1 lies in [1, N].
        if es[0] < 0:
            raise DomainError(f"exponents must be >= 0, got {es[0]}")
        values = _powers(k, N, es)
    return values

