"""Summarization of exchangeable vectors by their sample mean and spread.

Everything needed to compare Ef(X), for exchangeable X, against Ef(Y) for
the Gaussian summary vector Y built from (mu_hat, sigma_hat): the triangular
prefix transform G with its closed-form inverse, enumerated conditional
moment identities, the two Gaussian covariance structures and their gap,
the Gaussian integration-by-parts identity, interpolation between the two
Gaussian laws, and the final explicit bound with constants 9.5 and 13.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .functions import RidgeFunction, SmoothFunction
from .laws import normal_quadrature
from .sampling import RunningMean, derive_child, rng_from, row_blocks, sample_batch
from .specs import _ENUMERATION_BUDGET, MultisetPermutation
from .standardize import center_and_scale

if TYPE_CHECKING:  # for annotations only: the functions that form exact rationals import it
    from fractions import Fraction

_CONSISTENCY_STDERRS = 4.0  # how far apart the two interpolation estimates may be
_STEIN_DEGREE = 3
_T_GRID_SIZE = 32  # midpoint-rule nodes on the interpolation path


# ---------------------------------------------------------------------------
# The prefix transform G and its inverse
# ---------------------------------------------------------------------------


class GTransform(NamedTuple):
    """Lower-triangular transform R = G x and its closed-form inverse.

    Entries (1-based): G[i,j] = 1/(n-i+1) below the diagonal, 1 on it;
    the inverse has -1/(n-j) below the diagonal, 1 on it.  Both are stored
    explicitly; the inverse is never computed numerically.
    """

    n: int
    matrix: np.ndarray
    inverse: np.ndarray

    @property
    def col_abs_sum_max(self) -> float:
        """max_j sum_i |inverse[i, j]|, the chain-rule factor (2 for n >= 2).

        Summed with fsum: each column below the diagonal holds n-j copies of
        1/(n-j), whose correctly rounded total with the unit diagonal is
        exactly 2.
        """
        return max(math.fsum(np.abs(self.inverse[:, j])) for j in range(self.n))


def build_g_transform(n: int) -> GTransform:
    if n < 1:
        raise ValueError("n must be at least 1")
    g = np.eye(n)
    ginv = np.eye(n)
    for i in range(n):
        for j in range(i):
            g[i, j] = 1.0 / (n - i)          # 1-based: 1/(n - i + 1)
            ginv[i, j] = -1.0 / (n - 1 - j)  # 1-based: -1/(n - j)
    return GTransform(n, g, ginv)


# ---------------------------------------------------------------------------
# Enumerated conditional-moment identities for multiset specs
# ---------------------------------------------------------------------------


class PrefixWalk:
    """Every value-count composition of the first i - 1 coordinates of a permuted
    multiset, as ``cells``: (prefix values, remaining values, number of index
    sets) for each, walked once on first use and shared by the identity checks.
    Given the prefix, the rest of a permuted multiset is uniform over the values
    left, so every conditional moment depends only on which values form the
    prefix.  ``prefix_walks`` builds one for each i."""

    def __init__(self, spec: MultisetPermutation, i: int):
        self.spec, self.i = spec, i

    @cached_property
    def cells(self) -> tuple:
        law = self.spec.prefix_law(self.i - 1)
        if law is None:
            raise _past_budget()
        values, counts, compositions, _ = law
        return tuple((np.repeat(values, combo), np.repeat(values, counts - np.asarray(combo)),
                      weight) for combo, weight in compositions)


def _past_budget() -> ValueError:
    return ValueError(f"multiset too large for exhaustive enumeration (more than "
                      f"{_ENUMERATION_BUDGET} candidate value counts)")


def prefix_walks(spec: MultisetPermutation):
    """``PrefixWalk(spec, i)`` for i = 1..n, built one at a time.  Refuses at once
    a multiset whose longest prefix, the one with the most candidates, is past
    the budget."""
    if spec.prefix_law(spec.n - 1) is None:
        raise _past_budget()
    return (PrefixWalk(spec, i) for i in range(1, spec.n + 1))


def _ordered_mean(total: Fraction, repeats: int, count: int) -> float:
    """total * repeats / count as math.fsum over ``count`` ordered prefixes gives it:
    their exact total rounded once, then divided by their number.  Both are first
    scaled by the same power of two, which moves neither rounding and keeps them
    inside the floats however many prefixes there are."""
    scale = 1 << count.bit_length()
    return float(total * repeats / scale) / (count / scale)


def conditional_mean_identity_check(walk: PrefixWalk) -> float:
    """Max deviation between the enumerated conditional mean of coordinate i
    and its closed form -(sum of the prefix) / (n - i + 1).

    Exhaustive over every value-count composition of the prefix; requires a
    standardized multiset whose prefix law is within the enumeration budget.
    """
    worst = 0.0
    for prefix, remaining, _ in walk.cells:
        rest = len(remaining)
        worst = max(worst, abs(math.fsum(remaining) / rest + math.fsum(prefix) / rest))
    return worst


def martingale_increment_check(walk: PrefixWalk) -> float:
    """Max |E(R_i | prefix)| over every prefix composition; zero for centered input.

    R_i = x_i + (prefix sum) / (n - i + 1) is built for each possible next x_i.
    """
    worst = 0.0
    for prefix, remaining, _ in walk.cells:
        rest = len(remaining)
        shift = math.fsum(prefix) / rest
        worst = max(worst, abs(math.fsum([v + shift for v in remaining]) / rest))
    return worst


class SecondMomentChecks(NamedTuple):
    """Enumerated left-hand sides next to their closed-form counterparts.

    ``mean_square`` is an equality: E((E(X_i|prefix))^2) against
    (i-1)/((n-i+1)(n-1)).  The remaining three are inequalities
    (lhs <= rhs): the variance of the conditional second moment, the mean
    deviation of E(R_i^2|prefix) from 1, and E|R_i|^3 against eight times
    the marginal absolute third moment.
    """

    mean_square_lhs: float
    mean_square_rhs: float
    variance_lhs: float
    variance_rhs: float
    deviation_lhs: float
    deviation_rhs: float
    third_moment_lhs: float
    third_moment_rhs: float


def second_moment_identity_check(walk: PrefixWalk) -> SecondMomentChecks:
    from fractions import Fraction  # here and below, so that only ``identities`` loads it
    values, i = walk.spec.values, walk.i
    n = values.size
    rest = n - i + 1
    m4 = float(np.mean(values ** 4))
    m3_abs = float(np.mean(np.abs(values) ** 3))
    # exact totals over index sets of E(X_i|.)^2, E(X_i^2|.), its square, the
    # deviation of E(R_i^2|.) from 1, and the sum of |R_i|^3 over each next x_i
    totals = [Fraction(0)] * 5
    for prefix, remaining, weight in walk.cells:
        m = math.fsum(remaining) / rest
        m2 = math.fsum(v * v for v in remaining) / rest
        shift = math.fsum(prefix) / rest
        cubes = sum(Fraction(abs(v + shift) ** 3) for v in remaining)
        for k, term in enumerate((m * m, m2, m2 * m2, abs(m2 - m * m - 1.0), cubes)):
            totals[k] += Fraction(term) * weight
    # Each prefix set stands for the (i-1)! ordered prefixes of its values.
    repeats, count = math.factorial(i - 1), math.perm(n, i - 1)
    mean_square, second_mean, second_sq, deviation = (
        _ordered_mean(total, repeats, count) for total in totals[:4])
    third = _ordered_mean(totals[4], repeats, count * rest)
    variance = second_sq - second_mean ** 2
    return SecondMomentChecks(
        mean_square_lhs=mean_square,
        mean_square_rhs=(i - 1) / ((n - i + 1) * (n - 1)) if n > 1 else 0.0,
        variance_lhs=variance,
        variance_rhs=m4 / rest,
        deviation_lhs=deviation,
        deviation_rhs=2.0 * math.sqrt(m4 / rest),
        third_moment_lhs=third,
        third_moment_rhs=8.0 * m3_abs,
    )


# ---------------------------------------------------------------------------
# Covariance structures of the two Gaussian vectors
# ---------------------------------------------------------------------------


class CovariancePair(NamedTuple):
    """Covariances of the centered Gaussian vector and of the G-inverse image.

    ``sigma`` is Cov(Z_i - Zbar): (n-1)/n on the diagonal, -1/n off it.
    ``sigma_tilde`` is Cov(U) for U = G^{-1} V with V standard Gaussian, the
    product G^{-1} G^{-T} of ``build_g_transform``'s explicit inverse (never
    inverting G numerically).
    """

    n: int
    sigma: np.ndarray
    sigma_tilde: np.ndarray


def covariance_matrices(n: int) -> CovariancePair:
    if n < 2:
        raise ValueError("n must be at least 2")
    sigma = np.full((n, n), -1.0 / n)
    np.fill_diagonal(sigma, (n - 1.0) / n)

    ginv = build_g_transform(n).inverse
    return CovariancePair(n, sigma, ginv @ ginv.T)


def covariance_gap_sum(n: int) -> float:
    """Elementwise sum of |sigma - sigma_tilde|.

    Should equal 3 + 2 * sum_{k=2}^{n-1} 1/k (``harmonic_gap_closed_form``)
    and be at most 3 sqrt(n); the ``identities`` command checks both.
    """
    pair = covariance_matrices(n)
    return float(np.abs(pair.sigma - pair.sigma_tilde).sum())


def covariance_gap_sum_exact(n: int) -> Fraction:
    """Exact rational covariance gap, built from first principles.

    sigma_tilde = G^{-1} (G^{-1})^T is taken from G^{-1}'s entries as written
    here in rationals (1 on the diagonal, -1/(n-1-k) below it in column k), so
    this oracle is independent of the float ``build_g_transform`` that
    ``covariance_matrices`` multiplies out.  Below the diagonal,
    column k of G^{-1} is constant, so with S(j) = sum_{k<j} 1/(n-1-k)^2 the
    inner product of row j with each of the n-1-j rows below it is
    S(j) - 1/(n-1-j), and the diagonal entry is S(i) + 1: O(n) rational
    operations in all.
    """
    from fractions import Fraction
    total = Fraction(0)
    prefix = Fraction(0)  # S(j)
    for j in range(n):
        total += abs(Fraction(n - 1, n) - (prefix + 1))
        if j < n - 1:
            below = Fraction(-1, n - 1 - j)  # G^{-1}[i, j] for every i > j
            total += 2 * (n - 1 - j) * abs(Fraction(-1, n) - (prefix + below))
            prefix += below * below
    return total


def harmonic_gap_closed_form(n: int) -> Fraction:
    from fractions import Fraction
    return Fraction(3) + 2 * sum(Fraction(1, k) for k in range(2, n))


# ---------------------------------------------------------------------------
# Gaussian integration by parts (Stein identity)
# ---------------------------------------------------------------------------


def _gaussian_moment(cov: np.ndarray, idx: tuple) -> float:
    """E[xi_{i1} ... xi_{ik}] for centered Gaussian xi, k <= 4, by pairings."""
    k = len(idx)
    if k == 0:
        return 1.0
    if k % 2 == 1:
        return 0.0
    if k == 2:
        return float(cov[idx[0], idx[1]])
    a, b, c, d = idx
    return float(cov[a, b] * cov[c, d] + cov[a, c] * cov[b, d] + cov[a, d] * cov[b, c])


def stein_exact_check(cov) -> float:
    """Worst identity error over monomials up to ``_STEIN_DEGREE`` and coordinates i.

    Both sides of E(xi_i h(xi)) = sum_j Cov(xi_i, xi_j) E(d_j h) are
    evaluated in closed form through moment pairings, so the result is pure
    rounding error.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    worst = 0.0
    for deg in range(_STEIN_DEGREE + 1):
        for mono in combinations_with_replacement(range(n), deg):
            for i in range(n):
                lhs = _gaussian_moment(cov, (i,) + mono)
                rhs = 0.0
                for j in set(mono):
                    count = mono.count(j)
                    reduced = list(mono)
                    reduced.remove(j)
                    rhs += cov[i, j] * count * _gaussian_moment(cov, tuple(reduced))
                worst = max(worst, abs(lhs - rhs))
    return worst


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """R with R R^T = cov, from one eigendecomposition; raises unless cov is PSD."""
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < -1e-10 * max(vals.max(), 1.0):
        raise ValueError("covariance must be positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def stein_mc_check(h: RidgeFunction, cov, replicates: int, seed: int):
    """Monte Carlo check of the identity for a ridge h = g(w.x).

    Returns (max |mean residual| over i, max allowed = 4 stderr).  The
    residual per draw is xi_i h(xi) - sum_j cov_ij d_j h(xi), with
    d_j h = g'(w.xi) w_j, so the two sides share randomness and the
    stderr accounts for their correlation.
    """
    cov = np.asarray(cov, dtype=float)
    root = _psd_root(cov)
    xi = rng_from(seed).standard_normal((replicates, cov.shape[0])) @ root.T
    hv = np.asarray(h(xi), dtype=float)
    grads = np.asarray(h.profile.d1(h.argument(xi)))[:, None] * h.weights
    resid = xi * hv[:, None] - grads @ cov.T
    means = resid.mean(axis=0)
    errs = resid.std(axis=0, ddof=1) / math.sqrt(replicates)
    worst = int(np.argmax(np.abs(means)))
    return float(abs(means[worst])), float(4.0 * errs[worst])


# ---------------------------------------------------------------------------
# Gaussian interpolation between the two covariance structures
# ---------------------------------------------------------------------------


class InterpolationResult(NamedTuple):
    direct: float
    direct_stderr: float
    integral: float
    integral_stderr: float
    bound: float

    def consistent(self) -> bool:
        gap = abs(self.direct - self.integral)
        return gap <= _CONSISTENCY_STDERRS * math.hypot(self.direct_stderr, self.integral_stderr)


def interpolation_difference(f0: SmoothFunction, n: int, replicates: int = 40_000,
                             seed: int = 0) -> InterpolationResult:
    """Two independent estimates of E f0(Z - Zbar) - E f0(G^{-1} V).

    The direct estimate averages f0 over fresh draws of both Gaussian
    vectors.  The second integrates the interpolation path W_t =
    sqrt(1-t) U + sqrt(t) Ztilde: the derivative in t reduces, through the
    integration-by-parts identity, to half the covariance gap contracted
    against the Hessian of f0, integrated over t with a midpoint rule of
    ``_T_GRID_SIZE`` nodes.  The same draws serve every grid node, so doubling
    the grid probes only the quadrature error.  Both estimates must agree
    within Monte Carlo error and respect the bound L2' * (covariance gap
    sum) / 2.
    """
    pair = covariance_matrices(n)
    delta = pair.sigma - pair.sigma_tilde
    ginv = build_g_transform(n).inverse

    rng = rng_from(derive_child(seed, 0))
    z = rng.standard_normal((replicates, n))
    zt = z - z.mean(axis=1, keepdims=True)
    v = rng.standard_normal((replicates, n))
    u = v @ ginv.T
    fz = np.asarray(f0(zt), dtype=float)
    fu = np.asarray(f0(u), dtype=float)
    direct = float(fz.mean() - fu.mean())
    direct_err = math.sqrt(fz.var(ddof=1) / replicates + fu.var(ddof=1) / replicates)

    per_node = max(min(replicates // 4, 20_000), 256)
    rng_path = rng_from(derive_child(seed, 1))
    zp = rng_path.standard_normal((per_node, n))
    ztp = zp - zp.mean(axis=1, keepdims=True)
    up = rng_path.standard_normal((per_node, n)) @ ginv.T
    path_mean = np.zeros(per_node)
    for m in range(_T_GRID_SIZE):
        t = (m + 0.5) / _T_GRID_SIZE
        w = math.sqrt(1.0 - t) * up + math.sqrt(t) * ztp
        path_mean += np.asarray(f0.hessian_quad(w, delta), dtype=float)
    path_mean /= _T_GRID_SIZE
    path_avg, path_err = RunningMean().add(path_mean).result()
    integral, integral_err = 0.5 * path_avg, 0.5 * path_err

    bound = 0.5 * f0.mixed_bounds[1] * covariance_gap_sum(n)
    return InterpolationResult(direct, direct_err, integral, integral_err, bound)


# ---------------------------------------------------------------------------
# The explicit summarization bound
# ---------------------------------------------------------------------------


def thm12_terms(m3: float, m4: float, l2p: float, l3p: float, n: int) -> dict:
    """The two terms of the bound: 9.5 sqrt(m4) L2' sqrt(n) and 13 m3 L3' n."""
    if min(m3, m4, l2p, l3p) < 0:
        raise ValueError("moments and derivative bounds must be nonnegative")
    return {"second_order": 9.5 * math.sqrt(m4) * l2p * math.sqrt(n),
            "third_order": 13.0 * m3 * l3p * n}


def _summary_mean(f: RidgeFunction, mu: float, sigma: float):
    """(Ef(Y), stated error) for the Gaussian summary vector Y of a ridge
    f = g(w.y), from w.Y ~ N(mu sum(w), sigma^2 |w - mean(w)|^2).  Raises
    ValueError when the quadrature cannot resolve g.
    """
    w = f.weights
    law = normal_quadrature(mu * float(w.sum()), sigma * float(np.linalg.norm(w - w.mean())))
    summary = None if law is None else law.expect(f.profile.value)
    if summary is None:
        raise ValueError(f"the quadrature cannot resolve Ef(Y) for {f.profile.name} "
                         f"at mu_hat = {mu:g}, sigma_hat = {sigma:g}")
    return summary


def _ridge_moments(f: RidgeFunction, mu: float, sigma: float, n: int):
    """(E S, Var S) of the ridge argument S = w.X of a ridge f, for X a uniform
    permutation of n values with mean mu and spread sigma (divisor n): mu sum(w)
    and sigma^2 n / (n - 1) |w - mean(w)|^2 (docs/derivations.md, "Control
    variates")."""
    w = f.weights
    spread = float(np.sum(np.square(w - w.mean())))
    return mu * float(w.sum()), sigma * sigma * n / (n - 1) * spread


def _add_block(mean: RunningMean, f: RidgeFunction, x, ey, moment) -> None:
    """Feed one block's differences f(x) - ey to ``mean``, with the controls
    S - E S and (S - E S)^2 - Var S, where ``moment`` = (E S, Var S).  S is
    computed once, for g and for both controls; the block's columns are freed
    on return, before the next function is evaluated."""
    s = f.argument(x)
    diff = np.subtract(f.profile.value(s), ey, dtype=float)
    s -= moment[0]  # S - E S, in place once g has read S
    square = np.square(s)
    square -= moment[1]
    mean.add(diff, s, square)


def end_to_end_check(spec: MultisetPermutation, functions,
                     replicates: int = 100_000, seed: int = 0) -> list:
    """Bound-versus-estimate reports, one per ridge f, for a fixed multiset.

    Fixing the multiset makes mu_hat, sigma_hat, and the centered absolute
    moments deterministic, so each bound is a single number.  Ef(Y) is exact:
    w.Y is Gaussian (``_summary_mean``), and the quadrature's stated error is
    added to the stderr.  Ef(X) - Ef(Y) is then a Monte Carlo mean over X with
    control variates: for f = g(S), S = w.X, the differences are regressed on
    S - E S and (S - E S)^2 - Var S, whose exact means are zero
    (``_ridge_moments``), and the estimate is their mean less the fitted part
    (``RunningMean``).  X is drawn once for all the functions, in row blocks,
    from one generator; each block's differences and controls go into each
    f's accumulator, so memory does not grow with ``replicates``.  Each report
    equals the one-function call with the same seed, and the functions'
    estimates share their Monte Carlo error.  Only genuinely exchangeable,
    non-constant multiset specs are accepted here; weakly dependent chains
    belong to the swapping bound.
    """
    from .swap import BoundReport  # here, so that ``identities`` never loads swap
    if not isinstance(spec, MultisetPermutation):
        raise TypeError("end_to_end_check requires a MultisetPermutation spec")
    if not functions:
        raise ValueError("give at least one function")
    if not all(isinstance(f, RidgeFunction) for f in functions):
        raise TypeError("end_to_end_check requires ridge functions")
    values = spec.values
    n = values.size
    std = center_and_scale(values)
    mu, sigma = std.mu_hat, std.sigma_hat
    if sigma == 0:
        raise ValueError("end_to_end_check requires a multiset that is not constant")
    m3 = float(np.mean(np.abs(values - mu) ** 3))
    m4 = float(np.mean((values - mu) ** 4))

    summaries = [_summary_mean(f, mu, sigma) for f in functions]
    moments = [_ridge_moments(f, mu, sigma, n) for f in functions]
    x_rng = rng_from(derive_child(seed, 0))
    means = [RunningMean(2) for _ in functions]
    for block in row_blocks(replicates, n):
        x = sample_batch(spec, x_rng, block.stop - block.start)
        for mean, f, summary, moment in zip(means, functions, summaries, moments):
            _add_block(mean, f, x, summary[0], moment)
        del x  # before the next block is drawn
    reports = []
    for mean, f, summary in zip(means, functions, summaries):
        components = thm12_terms(m3, m4, f.mixed_bounds[1], f.mixed_bounds[2], n)
        estimate, stderr = mean.result()
        reports.append(BoundReport(estimate, stderr + summary[1], replicates, "mc", components))
    return reports
