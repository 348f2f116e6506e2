"""Smooth test functions with derivative access and declared sup bounds.

The built-in family is ridge functions g(w.x + b) for profiles g with known
derivative suprema, plus the mean-of-squares map.  Ridge functions are closed
under affine changes of variables, which is exactly what the swapping and
summarization arguments need.  Anything else can be wrapped as a
``CustomFunction`` and falls back to central finite differences.
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

    def derivative(self, u, order: int):
        if order == 0:
            return self.value(u)
        return (self.d1, self.d2, self.d3)[order - 1](u)


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


def identity_profile() -> GProfile:
    return GProfile("identity", lambda u: u, lambda u: np.ones_like(np.asarray(u, dtype=float)),
                    lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                    lambda u: np.zeros_like(np.asarray(u, dtype=float)), 1.0, 0.0, 0.0)


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
                      richardson: int = 0) -> float:
    """Mixed partial of ``f`` at ``x`` by nested central differences.

    ``indices`` lists the coordinates to differentiate in (repeats allowed,
    up to order 3).  The default step balances truncation against roundoff
    for the requested order: (1 + |x_i|) * eps^(1/(order+2)), the cube-root
    rule at order 1.  ``richardson`` adds extrapolation levels (1 cancels
    the h^2 truncation term, 2 also cancels h^4).  The evaluation dtype of
    ``x`` is preserved, so long-double inputs run the whole stencil in
    extended precision.
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

    levels = int(richardson)
    if levels == 0:
        return float(nested(x, indices, step))
    if levels == 1:
        coarse = nested(x, indices, step)
        fine = nested(x, indices, step / 2.0)
        return float((4.0 * fine - coarse) / 3.0)
    d1 = nested(x, indices, step)
    d2 = nested(x, indices, step / 2.0)
    d4 = nested(x, indices, step / 4.0)
    return float((64.0 * d4 - 20.0 * d2 + d1) / 45.0)


# ---------------------------------------------------------------------------
# Smooth functions on R^n
# ---------------------------------------------------------------------------


class SmoothFunction:
    """f: R^n -> R, with partials up to order 3 and declared sup bounds.

    ``unmixed_bounds`` bounds |d^r f / dx_i^r|; ``mixed_bounds`` bounds every
    r-th order partial including mixed ones.  Subclasses provide analytic
    derivatives; the base class falls back to central differences.

    Calling the object evaluates f; the input may be a single vector (n,)
    or a stack of rows (..., n).
    """

    def __init__(self, arity: int, name: str = ""):
        self.arity = int(arity)
        self.name = name
        self.unmixed_bounds = (math.inf, math.inf, math.inf)
        self.mixed_bounds = (math.inf, math.inf, math.inf)

    def __call__(self, x):
        raise NotImplementedError

    def partial(self, x, i: int, order: int = 1) -> float:
        """Unmixed partial d^order f / dx_i^order at a single point."""
        return finite_difference(self, np.asarray(x, dtype=float), (i,) * order)

    def mixed_partial(self, x, indices: Sequence[int]) -> float:
        return finite_difference(self, np.asarray(x, dtype=float), indices)

    def gradient(self, x) -> np.ndarray:
        return np.array([self.partial(x, i, 1) for i in range(self.arity)])

    def hessian(self, x) -> np.ndarray:
        h = np.empty((self.arity, self.arity))
        for i in range(self.arity):
            for j in range(i, self.arity):
                h[i, j] = h[j, i] = self.mixed_partial(x, (i, j))
        return h

    def hessian_quad(self, rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """sum_ij d_i d_j f(x) * weight_ij for each row x; shape (R,)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return np.array([float(np.sum(self.hessian(r) * weight)) for r in rows])


class RidgeFunction(SmoothFunction):
    """f(x) = g(w.x + b) for a profile g; all derivatives are analytic."""

    def __init__(self, profile: GProfile, weights, offset: float = 0.0):
        w = np.asarray(weights, dtype=float)
        super().__init__(w.size, f"{profile.name}[ridge]")
        self.profile = profile
        self.weights = w
        self.offset = float(offset)
        wmax = float(np.max(np.abs(w))) if w.size else 0.0
        bounds = tuple(b * wmax ** r for r, b in
                       enumerate((profile.b1, profile.b2, profile.b3), start=1))
        self.unmixed_bounds = bounds
        self.mixed_bounds = bounds

    def argument(self, x):
        """w.x + b along the last axis.  einsum sums each row on its own, so a row's
        value does not depend on the batch around it or on BLAS threads."""
        return np.einsum("...j,j->...", np.asarray(x, dtype=float), self.weights) + self.offset

    def __call__(self, x):
        return self.profile.value(self.argument(x))

    def partial(self, x, i, order=1):
        u = self.argument(x)
        return float(self.profile.derivative(u, order)) * self.weights[i] ** order

    def mixed_partial(self, x, indices):
        u = self.argument(x)
        return float(self.profile.derivative(u, len(indices))) * float(
            np.prod(self.weights[list(indices)]))

    def gradient(self, x):
        return float(self.profile.d1(self.argument(x))) * self.weights

    def hessian(self, x):
        return float(self.profile.d2(self.argument(x))) * np.outer(self.weights, self.weights)

    def hessian_quad(self, rows, weight):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        quad = float(self.weights @ weight @ self.weights)
        return np.asarray(self.profile.d2(self.argument(rows))) * quad

    def compose_linear(self, matrix) -> "RidgeFunction":
        """The map x -> f(M x); a ridge with weights M^T w."""
        m = np.asarray(matrix, dtype=float)
        return RidgeFunction(self.profile, m.T @ self.weights, self.offset)

    def shift_scale(self, mu: float, sigma: float) -> "RidgeFunction":
        """The map x -> f(mu + sigma x)."""
        return RidgeFunction(self.profile, sigma * self.weights,
                             self.offset + mu * float(self.weights.sum()))


class QuadraticMean(SmoothFunction):
    """f(x) = mean(x_i^2).  First partials are unbounded; second are 2/n."""

    def __init__(self, arity: int):
        super().__init__(arity, "mean_of_squares")
        self.unmixed_bounds = (math.inf, 2.0 / arity, 0.0)
        self.mixed_bounds = (math.inf, 2.0 / arity, 0.0)

    def __call__(self, x):
        return np.mean(np.square(np.asarray(x, dtype=float)), axis=-1)

    def partial(self, x, i, order=1):
        if order == 1:
            return 2.0 * float(np.asarray(x, dtype=float)[i]) / self.arity
        if order == 2:
            return 2.0 / self.arity
        return 0.0

    def mixed_partial(self, x, indices):
        if len(indices) == 1:
            return self.partial(x, indices[0], 1)
        if len(indices) == 2 and indices[0] == indices[1]:
            return 2.0 / self.arity
        return 0.0

    def gradient(self, x):
        return 2.0 * np.asarray(x, dtype=float) / self.arity

    def hessian(self, x):
        return (2.0 / self.arity) * np.eye(self.arity)

    def hessian_quad(self, rows, weight):
        rows = np.atleast_2d(rows)
        return np.full(rows.shape[0], 2.0 * float(np.trace(weight)) / self.arity)


class CustomFunction(SmoothFunction):
    """Wrap a bare evaluator; every derivative comes from finite differences."""

    def __init__(self, arity: int, value: Callable, name: str = "custom",
                 unmixed_bounds=None, mixed_bounds=None):
        super().__init__(arity, name)
        self._value = value
        if unmixed_bounds is not None:
            self.unmixed_bounds = tuple(unmixed_bounds)
        if mixed_bounds is not None:
            self.mixed_bounds = tuple(mixed_bounds)

    def __call__(self, x):
        return self._value(np.asarray(x, dtype=float))


def sum_ridge(profile: GProfile, n: int) -> RidgeFunction:
    """f(x) = g(sum(x) / sqrt(n)), the normalized-sum test function."""
    return RidgeFunction(profile, np.full(n, 1.0 / math.sqrt(n)))


def linear_form(weights) -> RidgeFunction:
    return RidgeFunction(identity_profile(), weights)


def constant_function(n: int, c: float = 0.0) -> RidgeFunction:
    prof = GProfile("const", lambda u: np.full_like(np.asarray(u, dtype=float), c),
                    lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                    lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                    lambda u: np.zeros_like(np.asarray(u, dtype=float)), 0.0, 0.0, 0.0)
    return RidgeFunction(prof, np.zeros(n))


def taylor_step_check(f: SmoothFunction, base, delta: float, i: int) -> float:
    """Residual of the second-order Taylor step in coordinate i.

    Returns |f(base + delta e_i) - f(base) - delta f_i - delta^2/2 f_ii|;
    a third-derivative bound L3 caps it at |delta|^3 L3 / 6.
    """
    base = np.asarray(base, dtype=float)
    shifted = base.copy()
    shifted[i] += delta
    expansion = (float(f(base)) + delta * f.partial(base, i, 1)
                 + 0.5 * delta * delta * f.partial(base, i, 2))
    return abs(float(f(shifted)) - expansion)


def derivative_bound_violation(f: SmoothFunction, rng: np.random.Generator,
                               trials: int = 100, box: float = 3.0) -> float:
    """Worst excess of |unmixed partial| over its declared bound (<= 0 passes)."""
    worst = -math.inf
    for _ in range(trials):
        x = rng.uniform(-box, box, f.arity)
        for order in (1, 2, 3):
            bound = f.unmixed_bounds[order - 1]
            if math.isinf(bound):
                continue
            for i in range(f.arity):
                worst = max(worst, abs(f.partial(x, i, order)) - bound)
    return worst


def finite_difference_agreement(f: SmoothFunction, rng: np.random.Generator,
                                trials: int = 20, box: float = 2.0) -> float:
    """Max relative error between analytic partials and central differences.

    Higher orders use wide Richardson-extrapolated stencils; the narrow
    default steps would sit on the roundoff floor of a third difference.
    Deviations are measured relative to max(|analytic|, 1e-3) so that near
    roots of a derivative the comparison stays absolute at the same scale.
    """
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(-box, box, f.arity)
        i = int(rng.integers(f.arity))
        hi = x.astype(np.longdouble)
        for order, step in ((1, None), (2, 0.01), (3, 0.02)):
            analytic = f.partial(x, i, order)
            numeric = finite_difference(f, hi, (i,) * order, step=step,
                                        richardson=0 if order == 1 else 2)
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), 1e-3))
    return worst
