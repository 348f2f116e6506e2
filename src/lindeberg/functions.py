"""Smooth test functions: their values and declared sup bounds on their partials.

The paper's bounds see f only through sup bounds on its partials up to
order 3, so a ``SmoothFunction`` is something to call plus the bounds it
declares.  The built-in family is ridge functions g(w.x + b), whose r-th
partials are g^(r)(w.x + b) times r weights, for profiles g that carry
analytic derivatives and their suprema; plus the mean-of-squares map.
``finite_difference`` is the central-difference reference that analytic
partials are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_EPS = float(np.finfo(float).eps)


def _sigmoid(u):
    # dtype-preserving logistic; scipy's expit would downcast long doubles
    u = np.asarray(u)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


# ---------------------------------------------------------------------------
# Scalar profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GProfile:
    """Scalar g with derivatives up to order 3 and sup bounds b1, b2, b3."""

    name: str
    value: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    b1: float
    b2: float
    b3: float


def cos_profile() -> GProfile:
    return GProfile("cos", np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u),
                    np.sin, 1.0, 1.0, 1.0)


def inv_quad_profile() -> GProfile:
    """g(u) = 1 / (1 + u^2), a smooth rational decay."""
    g = lambda u: 1.0 / (1.0 + u * u)
    d1 = lambda u: -2.0 * u / (1.0 + u * u) ** 2
    d2 = lambda u: (6.0 * u * u - 2.0) / (1.0 + u * u) ** 3
    d3 = lambda u: 24.0 * u * (1.0 - u * u) / (1.0 + u * u) ** 4
    # sup|g'| = 3*sqrt(3)/8 at u = 1/sqrt(3); sup|g''| = 2 at u = 0;
    # sup|g'''| = 4.66856... at u^2 = 1 - 2/sqrt(5), rounded up.
    return GProfile("inv_quad", g, d1, d2, d3, 3.0 * math.sqrt(3.0) / 8.0, 2.0, 4.669)


def logistic_step_profile(threshold: float = 0.0, width: float = 1.0) -> GProfile:
    """Smoothed indicator of u <= threshold via a logistic ramp."""
    t, w = float(threshold), float(width)
    s = lambda u: _sigmoid((u - t) / w)
    g = s
    d1 = lambda u: s(u) * (1.0 - s(u)) / w
    d2 = lambda u: s(u) * (1.0 - s(u)) * (1.0 - 2.0 * s(u)) / w ** 2
    d3 = lambda u: s(u) * (1.0 - s(u)) * (1.0 - 6.0 * s(u) + 6.0 * s(u) ** 2) / w ** 3
    return GProfile(f"logistic_step(t={t},w={w})", g, d1, d2, d3,
                    0.25 / w, 1.0 / (6.0 * math.sqrt(3.0) * w ** 2), 0.125 / w ** 3)


def tanh_clamp_profile(scale: float = 1.0) -> GProfile:
    """g(u) = scale * tanh(u / scale), a smooth clamp to (-scale, scale).

    sup|g'| = 1; sup|g''| = 4/(3*sqrt(3)*scale) since |2 t (1-t^2)| with
    t = tanh peaks at t = 1/sqrt(3); sup|g'''| = 2/scale^2, attained at u = 0
    where |2 (1-t^2)(1-3t^2)| is maximal.
    """
    s = float(scale)
    g = lambda u: s * np.tanh(u / s)
    d1 = lambda u: 1.0 / np.cosh(u / s) ** 2
    d2 = lambda u: -2.0 * np.tanh(u / s) / (s * np.cosh(u / s) ** 2)
    d3 = lambda u: -2.0 * (1.0 - 3.0 * np.tanh(u / s) ** 2) / (s ** 2 * np.cosh(u / s) ** 2)
    return GProfile(f"tanh_clamp(s={s})", g, d1, d2, d3,
                    1.0, 4.0 / (3.0 * math.sqrt(3.0) * s), 2.0 / s ** 2)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_difference(f, x, indices: Sequence[int], step: float | None = None,
                      richardson: bool = False) -> float:
    """Mixed partial of ``f`` at ``x`` by nested central differences.

    ``indices`` lists the coordinates to differentiate in (repeats allowed,
    up to order 3).  The default step balances truncation against roundoff
    for the requested order: (1 + |x_i|) * eps^(1/(order+2)), the cube-root
    rule at order 1.  ``richardson`` extrapolates over the steps h, h/2 and
    h/4, which cancels the h^2 and h^4 truncation terms.  The evaluation
    dtype of ``x`` is preserved, so long-double inputs run the whole stencil
    in extended precision.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(float)
    indices = tuple(int(i) for i in indices)
    order = len(indices)
    if order == 0 or order > 3:
        raise ValueError("order must be between 1 and 3")
    if step is None:
        scale = 1.0 + max(abs(float(x[i])) for i in indices)
        step = scale * _EPS ** (1.0 / (order + 2))

    def nested(base, idxs, h):
        if not idxs:
            return f(base)
        i, rest = idxs[0], idxs[1:]
        xp = base.copy()
        xp[i] += h
        xm = base.copy()
        xm[i] -= h
        return (nested(xp, rest, h) - nested(xm, rest, h)) / (2.0 * h)

    if not richardson:
        return float(nested(x, indices, step))
    d1 = nested(x, indices, step)
    d2 = nested(x, indices, step / 2.0)
    d4 = nested(x, indices, step / 4.0)
    return float((64.0 * d4 - 20.0 * d2 + d1) / 45.0)


# ---------------------------------------------------------------------------
# Smooth functions on R^n
# ---------------------------------------------------------------------------


class SmoothFunction:
    """f: R^n -> R with declared sup bounds on its partials up to order 3.

    ``unmixed_bounds`` bounds |d^r f / dx_i^r|; ``mixed_bounds`` bounds every
    r-th order partial including mixed ones; an unknown bound is infinite.
    Calling the object evaluates f; the input may be a single vector (n,)
    or a stack of rows (..., n).
    """

    def __init__(self, arity: int, unmixed_bounds, mixed_bounds):
        self.arity = int(arity)
        self.unmixed_bounds = tuple(unmixed_bounds)
        self.mixed_bounds = tuple(mixed_bounds)

    def __call__(self, x):
        raise NotImplementedError


class RidgeFunction(SmoothFunction):
    """f(x) = g(w.x + b) for a profile g.

    An r-th partial is g^(r)(w.x + b) times r weights, so both bounds are
    b_r max|w|^r.
    """

    def __init__(self, profile: GProfile, weights, offset: float = 0.0):
        w = np.asarray(weights, dtype=float)
        wmax = float(np.max(np.abs(w))) if w.size else 0.0
        bounds = tuple(b * wmax ** r for r, b in
                       enumerate((profile.b1, profile.b2, profile.b3), start=1))
        super().__init__(w.size, bounds, bounds)
        self.profile = profile
        self.weights = w
        self.offset = float(offset)

    def argument(self, x):
        """w.x + b along the last axis.  einsum sums each row on its own, so a row's
        value does not depend on the batch around it or on BLAS threads."""
        return np.einsum("...j,j->...", np.asarray(x, dtype=float), self.weights) + self.offset

    def __call__(self, x):
        return self.profile.value(self.argument(x))

    def hessian_quad(self, rows, weight):
        """sum_ij d_i d_j f(x) * weight_ij for each row x; shape (R,)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        quad = float(self.weights @ weight @ self.weights)
        return np.asarray(self.profile.d2(self.argument(rows))) * quad


class QuadraticMean(SmoothFunction):
    """f(x) = mean(x_i^2).  First partials are unbounded; second are 2/n."""

    def __init__(self, arity: int):
        bounds = (math.inf, 2.0 / arity, 0.0)
        super().__init__(arity, bounds, bounds)

    def __call__(self, x):
        return np.mean(np.square(np.asarray(x, dtype=float)), axis=-1)

    def hessian_quad(self, rows, weight):
        """sum_ij d_i d_j f(x) * weight_ij for each row x; shape (R,)."""
        rows = np.atleast_2d(rows)
        return np.full(rows.shape[0], 2.0 * float(np.trace(weight)) / self.arity)


def sum_ridge(profile: GProfile, n: int) -> RidgeFunction:
    """f(x) = g(sum(x) / sqrt(n)), the normalized-sum test function."""
    return RidgeFunction(profile, np.full(n, 1.0 / math.sqrt(n)))
