"""Exact rational identities behind the sieve's coefficient analysis.

Every value here is an exact Fraction.  The defining sums add one integer
numerator per term over a factorial denominator and divide once at the
end.  The Z(d, u, y) alternating sum collapses to a closed product
formula, the A coefficients have two independent evaluation routes, and
the normalized |A''| values obey sharp size bounds.  A sieved mean-value inequality for the generalized
divisor function d_m(q) = m^omega(q) closes the demo.
"""

from gpylab.combinat import (
    SuitableTriplet,
    Z_closed,
    Z_sum,
    coeff_A_closed,
    coeff_A_sum,
    coeff_ratio_check,
    divisor_mean_check,
)

print("Z sum vs closed form (exact rationals):")
for d, u, y in ((0, 3, 2), (2, 4, -1), (5, 5, 0), (7, 3, 10)):
    t = SuitableTriplet(d, u, y)
    print(f"  Z({d},{u},{y}) = {Z_sum(t)} = {Z_closed(t)}   "
          f"equal: {Z_sum(t) == Z_closed(t)}")

print("\nA coefficients, sum route vs closed route:")
for j, nu, d, u, v in ((0, 0, 1, 2, 3), (1, 2, 3, 4, 4), (2, 5, 0, 3, 6)):
    s = coeff_A_sum(j, nu, d, u, v)
    c = coeff_A_closed(j, nu, d, u, v)
    print(f"  A(j={j}, nu={nu}; d={d}, u={u}, v={v}) = {s}   equal: {s == c}")

rep = coeff_ratio_check(3, 4, 4)
print(f"\nnormalized bound scan at (d,u,v)=(3,4,4): "
      f"{len(rep['violations'])} violations, max A''/2^nu = {rep['max_ratio']}")

print("\ndivisor mean values sum_(q<=x squarefree) d_m(q) vs x(1+log x)^m:")
for m in (2, 4, 6):
    rep = divisor_mean_check(10**4, m)
    print(f"  m={m}: lhs={rep['lhs']:>12}  rhs={rep['rhs']:16.1f}  holds: {rep['holds']}")
