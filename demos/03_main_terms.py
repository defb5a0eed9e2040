"""Measured pair sums against their predicted main terms.

Two desk experiments with H1 = {0,2}, H2 = {0,6}, ell1 = ell2 = 1,
V = 5 and R = (3N)^0.2: the plain second moment over regular n in
(N, 2N], and the theta-weighted variant that adds log(n + h0) at primes.
Predictions come from the singular series and the residue-class counts;
the density-adjusted value rescales to the share of classes the window
actually visits.  That is a desk-scale heuristic, not the limit: it tracks
a measured sum only at small R, and the pair sum at finite R tends to the
unadjusted value as R grows.
"""

import math

from gpylab import TupleH, WeightParams, pair_sum_direct, pair_sum_theta
from gpylab.oracle import MainTermParams, compare, main_term_t4, main_term_t5

H1, H2 = TupleH((0, 2)), TupleH((0, 6))

print("plain pair sum vs prediction:")
for N in (10**5, 10**6, 10**7):
    R = (3.0 * N) ** 0.2
    params = WeightParams(K=2, ell=1, R=R, V=5, N=N)
    emp = pair_sum_direct(H1, H2, 1, 1, params)
    pred = main_term_t4(MainTermParams(H1, H2, 1, 1, R, N, 5))
    comp = compare(emp, pred["density_adjusted_mid"], pred["density_adjusted_rad"])
    print(f"  N=10^{int(math.log10(N))}: empirical={emp:12.4g}  "
          f"adjusted prediction={pred['density_adjusted_mid']:12.4g}  "
          f"ratio={comp['ratio']:.4f}")

print("\ntheta-weighted pair sum with h0 = 8 (admissible extension):")
for N in (10**5, 10**6, 10**7):
    R = (3.0 * N) ** 0.2
    params = WeightParams(K=2, ell=1, R=R, V=5, N=N)
    emp = pair_sum_theta(H1, H2, 1, 1, 8, params)
    pred = main_term_t5(MainTermParams(H1, H2, 1, 1, R, N, 5, h0=8))
    comp = compare(emp, pred["density_adjusted_mid"], pred["density_adjusted_rad"])
    print(f"  N=10^{int(math.log10(N))}: empirical={emp:12.4g}  "
          f"adjusted prediction={pred['density_adjusted_mid']:12.4g}  "
          f"ratio={comp['ratio']:.4f}")

print("\nwith h0 = 4 the extended shift set covers every residue mod 3,")
print("so both the measured sum and the prediction are exactly zero:")
N = 10**5
R = (3.0 * N) ** 0.2
params = WeightParams(K=2, ell=1, R=R, V=5, N=N)
emp = pair_sum_theta(H1, H2, 1, 1, 4, params)
pred = main_term_t5(MainTermParams(H1, H2, 1, 1, R, N, 5, h0=4))
print(f"  empirical = {emp}, predicted = {pred['mid']}")
