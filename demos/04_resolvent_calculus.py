"""Derivative calculus of the normalized resolvent trace.

The map h(x) = Tr((A(x) - zI)^{-1})/N, where A(x) is the symmetric matrix
built from an upper-triangle vector x, has exact trace formulas for its
first three partial derivatives.  This script checks them against
extrapolated finite differences, shows the trace bounds in action, and
assembles the derivative-bound constants used for spectral statistics.
"""

import math

from lindeberg.functions import tanh_clamp_profile
from lindeberg.resolvent import (
    fd_agreement_check,
    lemma41_constants,
    resolvent_partials,
    trace_bound_check,
    trace_bounds,
    triu_pairs,
)
from lindeberg.sampling import rng_from
from lindeberg.spectral import upper_triangle_size

z = 1j
N = 6
rng = rng_from(99)
x = rng.uniform(-2, 2, upper_triangle_size(N))
pairs = triu_pairs(N)
alpha, beta, gamma = pairs[1], pairs[8], pairs[15]

d1, d2, d3 = resolvent_partials(x, N, z, alpha, beta, gamma)
print(f"partials of h at a random point, N = {N}, z = {z}:")
print(f"  d_a h         = {d1:+.6f}")
print(f"  d_b d_a h     = {d2:+.6f}")
print(f"  d_c d_b d_a h = {d3:+.6f}")

agree = fd_agreement_check([2, 4, 6, 8], 20, z, rng_from(1))
print("\nworst relative error vs extrapolated central differences:")
print(f"  order 1: {agree.order1:.2e}")
print(f"  order 2: {agree.order2:.2e}")
print(f"  order 3: {agree.order3:.2e}")

bounds = trace_bounds(z.imag, N)
tuple_rng = rng_from(2)
ratios = [max(r) for r in zip(*(trace_bound_check(x, N, z, tuple_rng) for _ in range(50)))]
print(f"\ntrace bounds at |Im z| = 1, N = {N}:")
print(f"  T1 = {bounds.t1:.4f}, T2 = {bounds.t2:.4f}, T3 = {bounds.t3:.4f}")
print(f"  worst measured/bound ratios over 50 random tuples: "
      f"{ratios[0]:.3f}, {ratios[1]:.3f}, {ratios[2]:.3f}")

g = tanh_clamp_profile()
print("\nsmooth clamp profile: b1 = 1, b2 = {:.4f}, b3 = {:.4f}".format(g.b2, g.b3))
print("derivative-bound constants and the induced spectral bound:")
print("     N      K1        K2        bound (unit moments)")
for N in (16, 64, 256):
    c = lemma41_constants(g.b1, g.b2, g.b3, 1.0, N)
    print(f"  {N:4d}  {c.k1:8.3f}  {c.k2:8.3f}  {c.c1 / N + c.c2 / math.sqrt(N):10.5f}")
print("the bound decays between 1/N and 1/sqrt(N), vanishing as N grows")
