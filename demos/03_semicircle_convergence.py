"""Spectra of symmetric matrices with exchangeable entries.

Fills the upper triangle of an N x N symmetric matrix with a random
permutation of a fixed multiset, normalizes by the entry spread, and tracks
how the eigenvalue distribution approaches the semicircle law as N grows:
a text histogram against the limiting density, the Kolmogorov-Smirnov
distance, and Stieltjes-transform gaps on a small complex grid.
"""

import numpy as np

from lindeberg.sampling import derive_child, sample_exchangeable
from lindeberg.spectral import (
    ENSEMBLES,
    eigenvalues,
    semicircle_density,
    thm13_experiment,
    wigner_matrix,
)
from lindeberg.standardize import center_and_scale

Z_GRID = (1j, 2j, 1 + 1j)

print("ensemble: random permutation of a standardized +-1 multiset\n")

spec = ENSEMBLES["rademacher-perm"](400)
entries = sample_exchangeable(spec.entries, seed=2)
sigma = center_and_scale(entries).sigma_hat
eigs = eigenvalues(wigner_matrix(entries, spec.N) / sigma)

print("eigenvalue histogram at N = 400 (* observed, | semicircle density):")
edges = np.linspace(-2.4, 2.4, 25)
counts, _ = np.histogram(eigs, bins=edges)
width = edges[1] - edges[0]
for k, c in enumerate(counts):
    center = 0.5 * (edges[k] + edges[k + 1])
    observed = int(round(c / (len(eigs) * width) * 60))
    reference = int(round(semicircle_density(center) * 60))
    bar = "*" * observed
    if reference < len(bar):
        bar = bar[:reference] + "|" + bar[reference + 1:]
    else:
        bar = bar + " " * (reference - len(bar)) + "|"
    print(f"  {center:+.2f} {bar}")

print("\nconvergence sweep (median over 10 seeds):")
print("     N     KS distance   worst |m(z) - m_sc(z)| on grid")
for N in (50, 100, 200, 400):
    ks, gaps = [], []
    for s in range(10):
        row = thm13_experiment(ENSEMBLES["rademacher-perm"](N), Z_GRID,
                               derive_child(31, N * 100 + s))
        ks.append(row.ks)
        gaps.append(max(abs(g) for g in row.stieltjes_gaps))
    print(f"  {N:4d}   {np.median(ks):11.4f}   {np.median(gaps):11.4f}")

print("\nfor comparison, the i.i.d. Gaussian baseline at N = 400:")
rows = [thm13_experiment(ENSEMBLES["gaussian"](400), Z_GRID, derive_child(32, s))
        for s in range(10)]
print(f"  KS median {np.median([r.ks for r in rows]):.4f}")
