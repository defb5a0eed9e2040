"""gpylab: a numerical laboratory for prime tuples.

Sieve weights over shift sets, certified singular-series values, exact
combinatorial kernels, predicted main terms, and empirical statistics for
primes in arithmetic progressions.

Only `errors` loads with the package.  Every other public name, and the
submodules `primes`, `singular`, `tuples` and `weights`, load from their
module on first use (PEP 562), so a caller pays only for what it reads.
"""

import importlib

from .errors import CapacityError, DomainError, GpyError

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DomainError",
    "GpyError",
    "PrimeTable",
    "SingularValue",
    "TupleH",
    "WeightParams",
    "ap_error",
    "ap_error_star",
    "average_B",
    "check_monotone",
    "detector_sum",
    "discriminant",
    "is_admissible",
    "lambda_R",
    "nu_bar_p",
    "nu_p",
    "nu_star_p",
    "pair_sum_direct",
    "pair_sum_divisor",
    "pair_sum_theta",
    "polynomial_value",
    "primes_upto",
    "quasiprime_density",
    "regular_class_count",
    "regular_classes",
    "s_star",
    "sieve_range",
    "singular_series",
    "singular_series_extended",
    "theta_progression",
    "theta_sum",
]

# The module that defines each lazily served name; a module's own name
# serves the module itself.
_LAZY = {
    "primes": "primes",
    "PrimeTable": "primes",
    "ap_error": "primes",
    "ap_error_star": "primes",
    "primes_upto": "primes",
    "sieve_range": "primes",
    "theta_progression": "primes",
    "theta_sum": "primes",
    "singular": "singular",
    "SingularValue": "singular",
    "average_B": "singular",
    "check_monotone": "singular",
    "quasiprime_density": "singular",
    "s_star": "singular",
    "singular_series": "singular",
    "singular_series_extended": "singular",
    "tuples": "tuples",
    "TupleH": "tuples",
    "discriminant": "tuples",
    "is_admissible": "tuples",
    "nu_bar_p": "tuples",
    "nu_p": "tuples",
    "nu_star_p": "tuples",
    "regular_class_count": "tuples",
    "regular_classes": "tuples",
    "weights": "weights",
    "WeightParams": "weights",
    "detector_sum": "weights",
    "lambda_R": "weights",
    "pair_sum_direct": "weights",
    "pair_sum_divisor": "weights",
    "pair_sum_theta": "weights",
    "polynomial_value": "weights",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
