"""Summarize an exchangeable vector by its sample mean and spread.

An exchangeable X cannot be replaced by independent Gaussians (its
coordinates may all be equal), but it can be replaced by the Gaussian
summary vector Y_i = mu_hat + sigma_hat (Z_i - Zbar).  This script shows the
machinery behind that bound: the prefix transform, the enumerated
conditional-moment identities, the covariance gap between the two Gaussian
structures, and the final explicit bound with constants 9.5 and 13.
"""

import numpy as np

from lindeberg.exchangeable import (
    build_g_transform,
    covariance_gap_sum,
    covariance_matrices,
    end_to_end_check,
    interpolation_difference,
    PrefixWalk,
    martingale_increment_check,
    second_moment_identity_check,
)
from lindeberg.functions import QuadraticMean
from lindeberg.sampling import standardized_multiset
from lindeberg.suites import ramp_multiset, summarization_function

n = 6
spec = standardized_multiset(np.arange(1.0, n + 1.0))
print(f"standardized multiset ({n} values):",
      np.round(spec.values, 4), "\n")

print("prefix transform G (rows rescale running prefix sums):")
print(np.round(build_g_transform(n).matrix, 4))

print("\nenumerated conditional-moment identities at i = 3:")
walk = PrefixWalk(spec, 3)  # the prefix compositions, walked once for both checks
checks = second_moment_identity_check(walk)
print(f"  E[(E(X_3|prefix))^2]      = {checks.mean_square_lhs:.6f}"
      f"  closed form {checks.mean_square_rhs:.6f}")
print(f"  Var(E(X_3^2|prefix))      = {checks.variance_lhs:.6f}"
      f"  <= {checks.variance_rhs:.6f}")
print(f"  E|E(R_3^2|prefix) - 1|    = {checks.deviation_lhs:.6f}"
      f"  <= {checks.deviation_rhs:.6f}")
print(f"  martingale increment dev  = {martingale_increment_check(walk):.2e}")

pair = covariance_matrices(n)
gap = covariance_gap_sum(n)
print(f"\ncovariance gap sum |sigma - sigma_tilde| = {gap:.6f}"
      f"  (= 3 + 2 * sum_{{k=2}}^{{{n - 1}}} 1/k, and <= 3 sqrt(n) = {3 * np.sqrt(n):.3f})")

res = interpolation_difference(QuadraticMean(3), 3, replicates=60_000, seed=5)
print("\nGaussian interpolation, quadratic test function at n = 3:")
print(f"  direct estimate   {res.direct:+.4f} +- {res.direct_stderr:.4f}")
print(f"  integral estimate {res.integral:+.4f} +- {res.integral_stderr:.4f}")
print(f"  exact value       -5/6 = {-5 / 6:+.4f}")

print("\nend-to-end bound for a ramp multiset, n = 10:")
report, = end_to_end_check(ramp_multiset(10),
                           [summarization_function("cos-alternating", 10)],
                           replicates=100_000, seed=11)
print(f"  bound    {report.bound:.4f}   (second order {report.components['second_order']:.4f}"
      f" + third order {report.components['third_order']:.4f})")
print(f"  estimate {report.estimate:+.5f} +- {report.stderr:.5f} ({report.kind})")
print(f"  dominated? {report.dominates()}")
