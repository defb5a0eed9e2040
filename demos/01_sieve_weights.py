"""Sieve weights over a window, and two routes to the same pair sum.

The weight Lambda_R(n; H, ell) is a truncated divisor sum over the
squarefree divisors of prod(n + h).  Restricted to "regular" n (no prime
factor up to V in any n + h), the weights can be evaluated for a whole
window at once, and the second moment sum(Lambda^2) has two independent
implementations: the direct per-n product and a divisor-pair expansion
with exact progression counts.  Their agreement to machine precision is
the core correctness check of the package.
"""

from gpylab import TupleH, WeightParams, lambda_R, pair_sum_direct, pair_sum_divisor

H1 = TupleH((0, 2))
H2 = TupleH((0, 6))

print("single weights at R = 30, ell = 1:")
for n in (101, 107, 149):
    print(f"  Lambda_R({n}; {{0,2}}) = {lambda_R(n, H1, 1, 30.0):+.6f}")

print("\nsecond moment over (N, 2N], direct vs divisor expansion:")
for N, R, V in ((2000, 30.0, 5), (10**4, 300.0, 5), (10**5, 1000.0, 5)):
    params = WeightParams(K=2, ell=1, R=R, V=V, N=N)
    direct = pair_sum_direct(H1, H2, 1, 1, params)
    divisor = pair_sum_divisor(H1, H2, 1, 1, params)
    gap = abs(direct - divisor) / max(abs(direct), 1e-30)
    print(f"  N={N:>6} R={R:>6.0f}: direct={direct:14.6f} "
          f"divisor={divisor:14.6f} rel gap={gap:.2e}")

print("\nthe gap stays at float rounding level at every R: the direct route")
print("evaluates each window's weights in one depth-first walk over d <= R.")
