"""gpylab: a numerical laboratory for prime tuples.

Sieve weights over shift sets, certified singular-series values, exact
combinatorial kernels, predicted main terms, and empirical statistics for
primes in arithmetic progressions.
"""

from .errors import CapacityError, DomainError, GpyError
from .primes import PrimeTable, ap_error, ap_error_star, primes_upto, sieve_range, theta_progression, theta_sum
from .singular import SingularValue, average_B, check_monotone, quasiprime_density, s_star, singular_series, singular_series_extended
from .tuples import TupleH, discriminant, is_admissible, nu_bar_p, nu_p, nu_star_p, regular_class_count, regular_classes
from .weights import WeightParams, detector_sum, lambda_R, pair_sum_direct, pair_sum_divisor, pair_sum_theta, polynomial_value

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
