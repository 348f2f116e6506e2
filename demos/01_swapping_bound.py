"""Replace dependent coordinates by Gaussians, one at a time.

Takes a vector X whose coordinates are a random permutation of a fixed
multiset, compares Ef(X) against Ef(Y) for independent standard Gaussians Y,
and shows that the computed swapping bound dominates the difference.  For
this f the difference is exact: the sum of a permuted multiset is fixed and
w.Y is Gaussian.
"""

from lindeberg.swap import swapping_report
from lindeberg.suites import gaussian_comparison, suite_function, swapping_spec

n = 20
spec = swapping_spec("multiset-rademacher", n)
y_spec = gaussian_comparison(n)
f = suite_function("cos", n)

print(f"X: random permutation of a standardized +-1 multiset, n = {n}")
print("Y: independent standard Gaussians")
print("f: cos(sum(x) / sqrt(n))\n")

report, = swapping_report([f], spec, y_spec, replicates=100_000, seeds=[42])
print("bound breakdown:")
for name, value in report.components.items():
    print(f"  {name:13s} {value:10.6f}")
print(f"  total bound   {report.bound:10.6f}")
print(f"\n{report.kind} estimate of Ef(X) - Ef(Y): "
      f"{report.estimate:+.6f} +- {report.stderr:.2g}")
print(f"|estimate| <= bound + 3 stderr?  {report.dominates()}")
