import math

import numpy as np
import pytest

from lindeberg.functions import (
    GProfile,
    QuadraticMean,
    RidgeFunction,
    cos_profile,
    finite_difference,
    inv_quad_profile,
    logistic_step_profile,
    sum_ridge,
    tanh_clamp_profile,
)


def _partials(f: RidgeFunction, x, order: int):
    """Every d^order f / dx_i^order of a ridge f = g(w.x + b) at x, along a new
    last axis: g^(order)(w.x + b) w_i^order, from the profile's derivative."""
    d = (f.profile.d1, f.profile.d2, f.profile.d3)[order - 1]
    return np.asarray(d(f.argument(x)))[..., None] * f.weights ** order


def derivative_bound_violation(f: RidgeFunction, rng: np.random.Generator,
                               trials: int = 100, box: float = 3.0) -> float:
    """Worst excess of |unmixed partial| over its declared bound (<= 0 passes)."""
    x = rng.uniform(-box, box, (trials, f.arity))
    return max(float(np.max(np.abs(_partials(f, x, order)))) - f.unmixed_bounds[order - 1]
               for order in (1, 2, 3))


def finite_difference_agreement(f: RidgeFunction, rng: np.random.Generator,
                                trials: int = 20, box: float = 2.0) -> float:
    """Max relative error between the profile's analytic partials and central
    differences of f.

    The stencils are wide and extrapolated; narrow steps would sit on the
    roundoff floor of a third difference.  Deviations are measured relative
    to max(|analytic|, 1e-3) so that near roots of a derivative the
    comparison stays absolute at the same scale.
    """
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(-box, box, f.arity)
        i = int(rng.integers(f.arity))
        hi = x.astype(np.longdouble)
        for order, step in ((1, 0.01), (2, 0.01), (3, 0.02)):
            analytic = float(_partials(f, x, order)[i])
            numeric = finite_difference(f, hi, (i,) * order, step)
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), 1e-3))
    return worst


ALL_PROFILES = [
    cos_profile(),
    inv_quad_profile(),
    logistic_step_profile(),
    tanh_clamp_profile(),
]


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_declared_bounds_hold_at_random_points(profile):
    rng = np.random.default_rng(17)
    f = RidgeFunction(profile, rng.uniform(-1, 1, 5))
    assert derivative_bound_violation(f, rng, trials=100) <= 0.0

@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_analytic_derivatives_match_finite_differences(profile):
    rng = np.random.default_rng(71)
    f = RidgeFunction(profile, rng.uniform(-1, 1, 4))
    assert finite_difference_agreement(f, rng, trials=25) <= 1e-6


def test_quadratic_mean_derivatives():
    f = QuadraticMean(5)
    x = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    assert f(x) == pytest.approx(np.mean(x**2))
    assert f.unmixed_bounds == f.mixed_bounds == (math.inf, 0.4, 0.0)
    # the Hessian is (2/n) I, so its contraction with a weight is 2 tr(weight) / n
    weight = np.arange(25.0).reshape(5, 5)
    assert f.hessian_quad(np.stack([x, 2.0 * x]), weight) == pytest.approx([24.0, 24.0])


def test_vectorized_evaluation_matches_scalar():
    f = sum_ridge(inv_quad_profile(), 4)
    rows = np.random.default_rng(5).standard_normal((10, 4))
    vec = f(rows)
    assert vec.shape == (10,)
    assert vec[3] == pytest.approx(float(f(rows[3])))



def test_inv_quad_goes_to_zero_past_the_tail_without_warning(recwarn):
    profile = inv_quad_profile()
    parts = (profile.value, profile.d1, profile.d2, profile.d3)
    huge = np.array([1e162, -1e200, -1.7e308, np.inf])
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow is the point
        for part in parts:
            assert np.all(part(huge) == 0.0)
            # where u^2 first overflows, g is a subnormal 1/u^2 and its derivatives are 0
            assert np.all(np.abs(part(np.array([1.3e154, -1.4e154]))) < 1e-307)
    # from 1e38 on, where the powers of 1 + u^2 would start to overflow, each part
    # is its leading term in 1/u: the two forms agree to rounding either side of it
    for part, leading in zip(parts, (lambda u: u ** -2.0, lambda u: -2.0 * u ** -3.0,
                                     lambda u: 6.0 * u ** -4.0, lambda u: -24.0 * u ** -5.0)):
        for u in (9e37, 1e38, 1.1e38, 1e60, -3e100):
            assert float(part(u)) == pytest.approx(leading(u), rel=1e-14)
    assert not recwarn.list


def test_inv_quad_below_the_tail_is_the_plain_formula():
    profile = inv_quad_profile()
    scales = 10.0 ** np.arange(-3, 7).repeat(100)
    u = np.concatenate([np.random.default_rng(3).standard_normal(1000) * scales,
                        [0.0, -0.0, 1e38, -1e38, np.nan]])
    assert np.array_equal(profile.value(u), 1.0 / (1.0 + u * u), equal_nan=True)
    assert np.array_equal(profile.d3(u), 24.0 * u * (1.0 - u * u) / (1.0 + u * u) ** 4,
                          equal_nan=True)

def _taylor_residual(f: RidgeFunction, base, delta: float, i: int) -> float:
    """|f(base + delta e_i) - f(base) - delta f_i - delta^2/2 f_ii| for a ridge f;
    a third-derivative bound L3 caps it at |delta|^3 L3 / 6."""
    base = np.asarray(base, dtype=float)
    shifted = base.copy()
    shifted[i] += delta
    expansion = (float(f(base)) + delta * float(_partials(f, base, 1)[i])
                 + 0.5 * delta * delta * float(_partials(f, base, 2)[i]))
    return abs(float(f(shifted)) - expansion)


class TestTaylorStep:
    def test_linear_has_zero_residual(self):
        identity = GProfile("identity", lambda u: u, np.ones_like, np.zeros_like,
                            np.zeros_like, 1.0, 0.0, 0.0)
        f = RidgeFunction(identity, [2.0, -1.0, 0.5])
        base = np.array([0.4, 1.0, 0.0])
        assert _taylor_residual(f, base, 0.7, 1) <= 1e-14

    def test_cubic_boundary_case(self):
        # oracle: (z + d)^3 - z^3 - 3 z^2 d - 3 z d^2 = d^3; at z=0, d=0.5
        # the residual is exactly 0.125 = |d|^3 * 6 / 6
        cube = GProfile("cube", lambda u: u ** 3, lambda u: 3.0 * u * u, lambda u: 6.0 * u,
                        lambda u: np.full_like(u, 6.0), math.inf, math.inf, 6.0)
        f = RidgeFunction(cube, [1.0, 0.0])
        residual = _taylor_residual(f, np.array([0.0, 1.0]), 0.5, 0)
        assert residual == 0.125
        assert residual <= 0.5**3 * f.unmixed_bounds[2] / 6.0

    def test_residual_bounded_by_third_derivative(self):
        f = sum_ridge(cos_profile(), 6)
        base = np.zeros(6)
        delta = 0.8
        bound = abs(delta) ** 3 * f.unmixed_bounds[2] / 6.0
        assert _taylor_residual(f, base, delta, 2) <= bound + 1e-12


def test_finite_difference_rejects_bad_order():
    with pytest.raises(ValueError):
        finite_difference(lambda x: x[:, 0], np.zeros(2), (), 0.1)
    with pytest.raises(ValueError):
        finite_difference(lambda x: x[:, 0], np.zeros(2), (0, 0, 0, 0), 0.1)


def _nested_difference(f, x, indices, step):
    """Richardson-extrapolated nested central differences, one point per call
    of ``f``: the recursion the stacked stencil reproduces."""
    def nested(base, idxs, h):
        if not idxs:
            return f(base)
        xp, xm = base.copy(), base.copy()
        xp[idxs[0]] += h
        xm[idxs[0]] -= h
        return (nested(xp, idxs[1:], h) - nested(xm, idxs[1:], h)) / (2.0 * h)

    d1, d2, d4 = (nested(x, tuple(indices), step / k) for k in (1.0, 2.0, 4.0))
    return float((64.0 * d4 - 20.0 * d2 + d1) / 45.0)


@pytest.mark.parametrize("indices", [(1,), (2, 0), (1, 1), (0, 2, 1), (2, 2, 0), (1, 1, 1)])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stacked_stencil_matches_the_nested_recursion(indices, dtype):
    # elementwise and dtype-preserving: a row's value does not depend on the
    # stack around it, and long-double inputs stay long double throughout
    f = lambda x: (np.cos(0.7 * x[..., 0] - 1.3 * x[..., 1])
                   + x[..., 1] ** 3 / (1.0 + x[..., 2] ** 2))
    x = np.array([0.3, -0.9, 1.7], dtype=dtype)
    for step in (0.01, 0.02, 0.0625):
        assert finite_difference(f, x, indices, step) == _nested_difference(f, x, indices, step)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_finite_difference_calls_f_once_on_the_whole_stencil(order):
    f = sum_ridge(cos_profile(), 4)
    shapes = []

    def spy(stack):
        shapes.append(np.shape(stack))
        return f(stack)

    finite_difference(spy, np.full(4, 0.3), (0, 3, 1)[:order], 0.02)
    assert shapes == [(3 * 2 ** order, 4)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_complex_f_is_differenced_part_by_part(order):
    # exp(i w.x) has real and imaginary parts of equal size; a step that is
    # not a power of two makes every division round
    w = np.array([0.9, -0.4, 1.3])
    f = lambda stack: (1.0 + 0.5j) * np.exp(1j * (stack @ w))
    x = np.array([0.2, 1.1, -0.6], dtype=np.longdouble)
    idx = (2, 0, 2)[:order]
    got = finite_difference(f, x, idx, 0.01)
    assert isinstance(got, complex)
    assert got == complex(finite_difference(lambda s: f(s).real, x, idx, 0.01),
                          finite_difference(lambda s: f(s).imag, x, idx, 0.01))
    assert got == pytest.approx((1.0 + 0.5j) * np.exp(1j * float(x @ w))
                                * np.prod(1j * w[list(idx)]), rel=1e-6)


def test_ridge_mixed_partial_product_rule():
    # a mixed partial of g(w.x) is g'''(w.x) times its weights, so the one
    # bound b3 max|w|^3 covers mixed partials too
    f = RidgeFunction(cos_profile(), [0.5, -1.0, 0.25])
    x = np.array([0.1, 0.2, 0.3])
    u = float(x @ f.weights)
    expected = math.sin(u) * 0.5 * (-1.0) * 0.25  # third derivative of cos is sin
    numeric = finite_difference(f, x, (0, 1, 2), 0.02)
    assert numeric == pytest.approx(expected, rel=1e-6)
    assert abs(expected) <= f.mixed_bounds[2]


@pytest.mark.parametrize("n", [1, 3, 5, 7, 101])
def test_ridge_rows_do_not_depend_on_the_batch(n):
    rng = np.random.default_rng(n)
    f = RidgeFunction(cos_profile(), rng.standard_normal(n))
    x = rng.standard_normal((1000, n))
    whole = f.argument(x)
    for block in (1, 3, 7, 64, 999):
        parts = np.concatenate([f.argument(x[s:s + block]) for s in range(0, len(x), block)])
        assert np.array_equal(parts, whole), block
    assert all(f.argument(x[k]) == whole[k] for k in range(0, len(x), 37))
    assert np.array_equal(f(x[1:]), np.cos(whole[1:]))  # a batch that starts one row in
