"""Resolvent calculus for the normalized trace of (A(x) - zI)^{-1}.

For the symmetric matrix map A(x) built from an upper-triangle vector, the
map h(x) = Tr(G(x))/N with G = (A - zI)^{-1} has explicit trace formulas
for its partial derivatives.  This module evaluates them, bounds them
through Hilbert-Schmidt norm estimates, and assembles the constants that
turn those bounds into the summarization bound for spectral statistics.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from .functions import GProfile, finite_difference
from .spectral import _require_symmetric, check_z, wigner_matrix


class ResolventWorkspace:
    """Eigendecomposition-backed resolvent of a symmetric matrix.

    One real symmetric eigensolve gives G = Q diag(1/(lambda - z)) Q^T, so
    no complex linear solves are needed and each eigenvalue of G has
    magnitude at most 1/|Im z|.
    """

    def __init__(self, matrix, z: complex):
        a = np.asarray(matrix, dtype=float)
        _require_symmetric(a, "matrix must be symmetric")
        self.matrix = a
        self.z = check_z(z)
        self.eigenvalues, self.vectors = np.linalg.eigh(a)
        self.G = (self.vectors / (self.eigenvalues - self.z)) @ self.vectors.T

    def trace_mean(self) -> complex:
        return complex(np.trace(self.G)) / self.matrix.shape[0]


def h_value_hp(x, N: int, z: complex):
    """Tr((A(x) - zI)^{-1}) / N in extended precision, for an entry vector (n,)
    or for each row of a stack (m, n), each row with its own pivots.

    Partial-pivot elimination on clongdouble keeps the evaluation noise near
    1e-19, which third-order finite differences need; the eigendecomposition
    path bottoms out around 1e-14 and would dominate the difference quotients.
    """
    stack = np.atleast_2d(np.asarray(x, dtype=np.longdouble))
    rows = np.arange(len(stack))
    i, j = np.triu_indices(N)
    # Gauss-Jordan on [A - zI | I]: the right half ends as the inverse
    aug = np.zeros((len(stack), N, 2 * N), dtype=np.clongdouble)
    aug[:, i, j] = stack / np.sqrt(np.longdouble(N))
    aug[:, j, i] = aug[:, i, j]
    aug[:, :, :N] -= np.clongdouble(z) * np.eye(N, dtype=np.clongdouble)
    aug[:, :, N:] = np.eye(N)
    for col in range(N):
        piv = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
        aug[rows, col], aug[rows, piv] = aug[rows, piv], aug[rows, col]
        aug[:, col] /= aug[:, col, col, None]
        f = aug[:, :, col, None].copy()
        f[:, col] = 0
        aug -= f * aug[:, col, None]
    traces = aug[:, :, N:].diagonal(axis1=1, axis2=2).sum(axis=1) / N
    return traces if np.ndim(x) > 1 else traces[0]


# ---------------------------------------------------------------------------
# Upper-triangle index pairs and entry-level traces
# ---------------------------------------------------------------------------


def triu_pairs(N: int):
    """Row-major list of (i, j) with i <= j, matching the entry vector order."""
    return [(i, j) for i in range(N) for j in range(i, N)]


def _checked_pair(alpha, N: int):
    i, j = (int(v) for v in alpha)
    if not (0 <= i <= j < N):
        raise ValueError("index pair must satisfy 0 <= i <= j < N")
    return i, j


def _trace(g: np.ndarray, pairs) -> complex:
    """Tr(G D_1 G D_2 ... D_k G) from entries of G, with D_m = dA/dx_{pairs[m]}.

    D_m is N^{-1/2} times the sum of e_a e_b^T over (a, b) in {(i, j), (j, i)},
    one term when i = j.  Expanding every D_m turns the trace into at most
    2^k products (G^2)_{b_k a_1} G_{b_1 a_2} ... G_{b_{k-1} a_k}.
    """
    N = g.shape[0]
    ends = [sorted({(i, j), (j, i)}) for i, j in (_checked_pair(p, N) for p in pairs)]
    total = 0j
    for choice in product(*ends):
        chain = math.prod(g[b, a] for (_, b), (a, _) in zip(choice, choice[1:]))
        total += chain * (g[choice[-1][1]] @ g[:, choice[0][0]])
    return total / math.sqrt(N) ** len(pairs)


def _h_derivative(g: np.ndarray, pairs) -> complex:
    """The partial of h along every pair: (-1)^k / N times the sum of the
    trace over all k! orderings of the k pairs."""
    k = len(pairs)
    return (-1) ** k * sum(_trace(g, p) for p in permutations(pairs)) / g.shape[0]


def resolvent_partials(x, N: int, z: complex, alpha, beta, gamma):
    """(d_alpha h, d_beta d_alpha h, d_gamma d_beta d_alpha h) at x, from the
    exact trace formulas.  The second order sums the two orderings of
    (beta, alpha); the third sums all six orderings.
    """
    g = ResolventWorkspace(wigner_matrix(x, N), z).G
    return tuple(_h_derivative(g, pairs)
                 for pairs in ((alpha,), (alpha, beta), (alpha, beta, gamma)))


# ---------------------------------------------------------------------------
# Finite-difference verification of the trace formulas
# ---------------------------------------------------------------------------


def flat_index(pair, N: int) -> int:
    """Row-major position of an (i, j) pair in the upper-triangle vector."""
    i, j = pair
    return i * N - i * (i - 1) // 2 + (j - i)


class FdAgreement(NamedTuple):
    """Worst relative errors of the trace formulas against finite differences."""

    order1: float
    order2: float
    order3: float
    cases: tuple


def fd_agreement_check(N_values, tuples: int, z: complex, rng) -> FdAgreement:
    """Compare all three derivative orders against extrapolated differences.

    Random (x, alpha, beta, gamma) tuples with N drawn from ``N_values``;
    both the real and imaginary parts are checked, from one stacked
    extended-precision solve per order.  Steps are powers of two so the
    perturbed points carry no representation error.
    """
    z = check_z(z)
    worst = [0.0, 0.0, 0.0]
    cases = []
    for _ in range(tuples):
        N = int(rng.choice(list(N_values)))
        pairs = triu_pairs(N)
        x = rng.uniform(-2.0, 2.0, len(pairs)).astype(np.longdouble)
        alpha, beta, gamma = (pairs[int(rng.integers(len(pairs)))] for _ in range(3))
        d1, d2, d3 = resolvent_partials(x.astype(float), N, z, alpha, beta, gamma)
        fa, fb, fc = (flat_index(p, N) for p in (alpha, beta, gamma))
        h = lambda stack: h_value_hp(stack, N, z)
        fd = (
            finite_difference(h, x, (fa,), 0.03125),
            finite_difference(h, x, (fa, fb), 0.0625),
            finite_difference(h, x, (fa, fb, fc), 0.0625),
        )
        for part in (np.real, np.imag):
            analytic = (float(part(d1)), float(part(d2)), float(part(d3)))
            for k in range(3):
                reference = float(part(fd[k]))
                rel = abs(analytic[k] - reference) / max(abs(analytic[k]), 1e-300)
                worst[k] = max(worst[k], rel)
                cases.append((N, k + 1, analytic[k], reference, rel))
    return FdAgreement(worst[0], worst[1], worst[2], tuple(cases))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt machinery and the trace bounds
# ---------------------------------------------------------------------------


class DerivativeBounds(NamedTuple):
    """Trace bounds T_r and the induced bounds H_r on the partials of h.

    T1 = 2 |v|^-2 N^-1/2 caps |Tr(G dA G)|; T2 = 2 |v|^-3 N^-1 the two-factor
    trace; T3 = 2^{3/2} |v|^-4 N^-3/2 the three-factor trace.  The partials
    of h inherit them with multiplicities 1, 2, 6 and the 1/N prefactor.
    """

    t1: float
    t2: float
    t3: float
    h1: float
    h2: float
    h3: float


def trace_bounds(v: float, N: int) -> DerivativeBounds:
    av = abs(check_z(complex(0.0, v)).imag)
    t1 = 2.0 / (av ** 2 * math.sqrt(N))
    t2 = 2.0 / (av ** 3 * N)
    t3 = 2.0 ** 1.5 / (av ** 4 * N ** 1.5)
    return DerivativeBounds(t1, t2, t3, t1 / N, 2.0 * t2 / N, 6.0 * t3 / N)


class TraceRatios(NamedTuple):
    """Measured |trace| / bound, per order; all must stay at or below 1."""

    order1: float
    order2: float
    order3: float


def trace_bound_check(x, N: int, z: complex, rng) -> TraceRatios:
    """Measured-to-bound trace ratios at one random index tuple drawn from ``rng``."""
    g = ResolventWorkspace(wigner_matrix(x, N), z).G
    bounds = trace_bounds(z.imag, N)
    pairs = triu_pairs(N)
    picks = [pairs[int(rng.integers(len(pairs)))] for _ in range(3)]
    return TraceRatios(*(abs(_trace(g, picks[:k + 1])) / cap
                         for k, cap in enumerate((bounds.t1, bounds.t2, bounds.t3))))


# ---------------------------------------------------------------------------
# Constants for the spectral application of the summarization bound
# ---------------------------------------------------------------------------


class Lemma41Constants(NamedTuple):
    """Derivative-bound constants for f = g(Re h) at a fixed z and order N.

    Chain-rule expansion against the H_r bounds gives, for B_r = sup|g^(r)|:

      order 2: |d2 f| <= B2 H1^2 + B1 H2
                      = N^-2 (4 B2 |v|^-4 / N + 4 B1 |v|^-3)          = K1 N^-2
      order 3: |d3 f| <= B3 H1^3 + 3 B2 H1 H2 + B1 H3
                      = N^-5/2 (8 B3 |v|^-6 / N^2 + 24 B2 |v|^-5 / N
                                + 6 * 2^{3/2} B1 |v|^-4)              = K2 N^-5/2

    so L2' <= K1 N^-2 and L3' <= K2 N^-5/2.
    """

    k1: float
    k2: float
    l2p_bound: float
    l3p_bound: float
    c1: float
    c2: float


def lemma41_constants(b1: float, b2: float, b3: float, v: float, N: int) -> Lemma41Constants:
    if min(b1, b2, b3) < 0:
        raise ValueError("derivative bounds must be nonnegative")
    h = trace_bounds(v, N)
    # Products, not powers, of the H_r: for |v| = 1e-60 they overflow to inf (nan
    # against a zero B_r), for |v| = 1e60 they underflow toward 0, as the constants
    # do.  C1 >= K1 and C2 >= K2, so two finite C's mean every constant is finite.
    l2p = b2 * h.h1 * h.h1 + b1 * h.h2
    l3p = b3 * h.h1 * h.h1 * h.h1 + 3.0 * b2 * h.h1 * h.h2 + b1 * h.h3
    k1, k2 = l2p * N ** 2, l3p * N ** 2.5
    c1 = 9.5 * k1 * math.sqrt((N + 1) / (2.0 * N))
    c2 = 6.5 * k2 * (N + 1) / N
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(f"Lemma 4.1 constants overflow a float at |Im z| = {abs(v):g}")
    return Lemma41Constants(k1, k2, l2p, l3p, c1, c2)


def composed_partials(profile: GProfile, x, N: int, z: complex,
                      alpha, beta=None, gamma=None):
    """Partials of f = g(Re h) by the chain rule on the exact trace formulas."""
    ws = ResolventWorkspace(wigner_matrix(x, N), z)
    u = ws.trace_mean().real
    d = lambda *pairs: _h_derivative(ws.G, pairs).real
    if gamma is not None:
        d_a, d_b, d_c = d(alpha), d(beta), d(gamma)
        return (float(profile.d3(u)) * d_a * d_b * d_c
                + float(profile.d2(u)) * (d(alpha, beta) * d_c + d(alpha, gamma) * d_b
                                          + d(beta, gamma) * d_a)
                + float(profile.d1(u)) * d(alpha, beta, gamma))
    if beta is not None:
        return float(profile.d2(u)) * d(alpha) * d(beta) + float(profile.d1(u)) * d(alpha, beta)
    return float(profile.d1(u)) * d(alpha)
