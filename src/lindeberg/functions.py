"""Smooth test functions: their values and declared sup bounds on their partials.

The paper's bounds see f only through sup bounds on its partials up to
order 3, so a ``SmoothFunction`` is something to call plus the bounds it
declares.  The built-in family is ridge functions g(w.x), whose r-th
partials are g^(r)(w.x) times r weights, for profiles g that carry
analytic derivatives and their suprema; plus the mean-of-squares map.
``finite_difference`` is the central-difference reference that analytic
partials are checked against.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .value import Value


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


class GProfile(Value):
    """Scalar g (``name``, ``value``) with derivatives d1, d2, d3 up to order 3 and
    sup bounds b1, b2, b3 on them."""

    __slots__ = _fields = ("name", "value", "d1", "d2", "d3", "b1", "b2", "b3")


def cos_profile() -> GProfile:
    return GProfile("cos", np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u),
                    np.sin, 1.0, 1.0, 1.0)


# Up to this |u| no power of 1 + u^2 in inv_quad's derivatives overflows a
# float (the fourth does past 3.7e38).
_INV_QUAD_TAIL = 1e38


def _with_tail(near, far):
    """u -> near(u), or far(1 / u) where |u| > _INV_QUAD_TAIL."""

    def h(u):
        u = np.asarray(u)
        tail = np.abs(u) > _INV_QUAD_TAIL
        if not tail.any():
            return near(u)
        return np.where(tail, far(1.0 / np.where(tail, u, 1.0)), near(np.where(tail, 0.0, u)))

    return h


def inv_quad_profile() -> GProfile:
    """g(u) = 1 / (1 + u^2), a smooth rational decay.  Past |u| = 1e38 each of
    g, g', g'', g''' is its leading term in s = 1/u (exact to 1e-76 relative),
    which goes to 0 without an overflow."""
    g = _with_tail(lambda u: 1.0 / (1.0 + u * u), lambda s: s * s)
    d1 = _with_tail(lambda u: -2.0 * u / (1.0 + u * u) ** 2, lambda s: -2.0 * s ** 3)
    d2 = _with_tail(lambda u: (6.0 * u * u - 2.0) / (1.0 + u * u) ** 3, lambda s: 6.0 * s ** 4)
    d3 = _with_tail(lambda u: 24.0 * u * (1.0 - u * u) / (1.0 + u * u) ** 4,
                    lambda s: -24.0 * s ** 5)
    # sup|g'| = 3*sqrt(3)/8 at u = 1/sqrt(3); sup|g''| = 2 at u = 0;
    # sup|g'''| = 4.66856... at u^2 = 1 - 2/sqrt(5), rounded up.
    return GProfile("inv_quad", g, d1, d2, d3, 3.0 * math.sqrt(3.0) / 8.0, 2.0, 4.669)


def logistic_step_profile() -> GProfile:
    """Smoothed indicator of u >= 0: the logistic ramp s(u / w) of width w = 0.5."""
    w = 0.5
    s = lambda u: _sigmoid(u / w)
    g = s
    d1 = lambda u: s(u) * (1.0 - s(u)) / w
    d2 = lambda u: s(u) * (1.0 - s(u)) * (1.0 - 2.0 * s(u)) / w ** 2
    d3 = lambda u: s(u) * (1.0 - s(u)) * (1.0 - 6.0 * s(u) + 6.0 * s(u) ** 2) / w ** 3
    return GProfile("logistic_step(t=0.0,w=0.5)", g, d1, d2, d3,
                    0.25 / w, 1.0 / (6.0 * math.sqrt(3.0) * w ** 2), 0.125 / w ** 3)


def tanh_clamp_profile() -> GProfile:
    """g(u) = tanh(u), a smooth clamp to (-1, 1).

    sup|g'| = 1; sup|g''| = 4/(3*sqrt(3)) since |2 t (1-t^2)| with t = tanh
    peaks at t = 1/sqrt(3); sup|g'''| = 2, attained at u = 0 where
    |2 (1-t^2)(1-3t^2)| is maximal.
    """
    d1 = lambda u: 1.0 / np.cosh(u) ** 2
    d2 = lambda u: -2.0 * np.tanh(u) / np.cosh(u) ** 2
    d3 = lambda u: -2.0 * (1.0 - 3.0 * np.tanh(u) ** 2) / np.cosh(u) ** 2
    return GProfile("tanh_clamp(s=1.0)", np.tanh, d1, d2, d3,
                    1.0, 4.0 / (3.0 * math.sqrt(3.0)), 2.0)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_difference(f, x, indices: Sequence[int], step: float):
    """Mixed partial of ``f`` at ``x`` along ``indices`` (repeats allowed, order
    k = 1 to 3): nested central differences at the steps h, h/2 and h/4,
    Richardson-extrapolated to cancel the h^2 and h^4 truncation terms.

    ``f`` maps a stack of points (m, n) to m values and is called once, on all
    3 * 2^k stencil points, in the dtype of ``x``: long-double inputs run the
    whole stencil in extended precision.  A complex ``f`` is differenced part
    by part and gives a complex result; a real one gives a float.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(float)
    indices = tuple(int(i) for i in indices)
    order = len(indices)
    if order == 0 or order > 3:
        raise ValueError("order must be between 1 and 3")
    # point (l, s_1, ..., s_k) is x + sum_m (-1)^s_m (step / 2^l) e_{i_m}, its
    # shifts added one index at a time, as nested differences add them
    shape = (3,) + (2,) * order
    grid = np.indices(shape)
    h = step / 2.0 ** grid[0]
    points = np.repeat(x[None], h.size, axis=0)
    for m, i in enumerate(indices):
        points[:, i] += ((1 - 2 * grid[1 + m]) * h).ravel()
    values = np.asarray(f(points)).reshape(shape)

    def extrapolate(d, h=h):
        for _ in indices:  # innermost index first, each level over its own 2h
            d, h = (d[..., 0] - d[..., 1]) / (2.0 * h[..., 0]), h[..., 0]
        return float((64.0 * d[2] - 20.0 * d[1] + d[0]) / 45.0)

    if np.iscomplexobj(values):
        return complex(extrapolate(values.real), extrapolate(values.imag))
    return extrapolate(values)


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
    """f(x) = g(w.x) for a profile g.

    An r-th partial is g^(r)(w.x) times r weights, so both bounds are
    b_r max|w|^r.  A shifted profile covers an offset.
    """

    def __init__(self, profile: GProfile, weights):
        w = np.asarray(weights, dtype=float)
        wmax = float(np.max(np.abs(w))) if w.size else 0.0
        bounds = tuple(b * wmax ** r for r, b in
                       enumerate((profile.b1, profile.b2, profile.b3), start=1))
        super().__init__(w.size, bounds, bounds)
        self.profile = profile
        self.weights = w

    def argument(self, x):
        """w.x along the last axis.  einsum sums each row on its own, so a row's
        value does not depend on the batch around it or on BLAS threads."""
        return np.einsum("...j,j->...", np.asarray(x, dtype=float), self.weights)

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
