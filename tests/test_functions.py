import math

import numpy as np
import pytest

from lindeberg import (
    CustomFunction,
    QuadraticMean,
    RidgeFunction,
    cos_profile,
    finite_difference,
    inv_quad_profile,
    linear_form,
    logistic_step_profile,
    sum_ridge,
    tanh_clamp_profile,
    taylor_step_check,
)
from lindeberg.functions import derivative_bound_violation, finite_difference_agreement

ALL_PROFILES = [
    cos_profile(),
    inv_quad_profile(),
    logistic_step_profile(0.0, 0.5),
    logistic_step_profile(1.0, 2.0),
    tanh_clamp_profile(1.0),
    tanh_clamp_profile(0.3),
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
    assert f.partial(x, 1, 1) == pytest.approx(-4.0 / 5.0)
    assert f.partial(x, 1, 2) == pytest.approx(2.0 / 5.0)
    assert f.partial(x, 1, 3) == 0.0
    assert np.allclose(f.hessian(x), 0.4 * np.eye(5))


def test_custom_function_falls_back_to_differences():
    f = CustomFunction(3, lambda x: np.sin(x[..., 0]) * np.cos(x[..., 2]))
    x = np.array([0.3, 9.9, -0.6])
    assert f.partial(x, 0, 1) == pytest.approx(math.cos(0.3) * math.cos(-0.6), rel=1e-8)
    assert f.partial(x, 2, 2) == pytest.approx(-math.sin(0.3) * math.cos(-0.6), rel=1e-5)
    assert f.mixed_partial(x, (0, 2)) == pytest.approx(
        -math.cos(0.3) * math.sin(-0.6), rel=1e-5)


def test_vectorized_evaluation_matches_scalar():
    f = sum_ridge(inv_quad_profile(), 4)
    rows = np.random.default_rng(5).standard_normal((10, 4))
    vec = f(rows)
    assert vec.shape == (10,)
    assert vec[3] == pytest.approx(float(f(rows[3])))


class TestTaylorStep:
    def test_linear_has_zero_residual(self):
        f = linear_form([2.0, -1.0, 0.5])
        base = np.array([0.4, 1.0, 0.0])
        assert taylor_step_check(f, base, 0.7, 1) <= 1e-14

    def test_pure_square_is_exact(self):
        f = QuadraticMean(2)
        assert taylor_step_check(f, np.array([0.3, 0.0]), 1.0, 1) <= 1e-14

    def test_cubic_boundary_case(self):
        # oracle: (z + d)^3 - z^3 - 3 z^2 d - 3 z d^2 = d^3; at z=0, d=0.5
        # the residual is exactly 0.125 = |d|^3 * 6 / 6
        f = CustomFunction(2, lambda x: x[..., 0] ** 3)
        residual = taylor_step_check(f, np.array([0.0, 1.0]), 0.5, 0)
        assert residual == pytest.approx(0.125, rel=1e-6)
        assert residual <= 0.5**3 * 6.0 / 6.0 + 1e-9

    def test_residual_bounded_by_third_derivative(self):
        f = sum_ridge(cos_profile(), 6)
        base = np.zeros(6)
        delta = 0.8
        bound = abs(delta) ** 3 * f.unmixed_bounds[2] / 6.0
        assert taylor_step_check(f, base, delta, 2) <= bound + 1e-12


def test_compose_linear_transforms_weights():
    f0 = sum_ridge(cos_profile(), 3)
    m = np.array([[1.0, 0.0, 0.0], [-0.5, 1.0, 0.0], [-0.5, -1.0, 1.0]])
    f1 = f0.compose_linear(m)
    x = np.array([0.2, -0.7, 1.1])
    assert f1(x) == pytest.approx(float(f0(m @ x)), rel=1e-14)
    assert np.allclose(f1.weights, m.T @ f0.weights)


def test_shift_scale_matches_composition():
    f = sum_ridge(inv_quad_profile(), 4)
    g = f.shift_scale(mu=1.5, sigma=0.7)
    x = np.array([0.1, -0.2, 0.4, 2.0])
    assert g(x) == pytest.approx(float(f(1.5 + 0.7 * x)), rel=1e-14)
    # sup bounds scale by sigma^r for the normalized-sum weights
    for r in range(3):
        assert g.mixed_bounds[r] == pytest.approx(
            f.mixed_bounds[r] * 0.7 ** (r + 1), rel=1e-12)


def test_finite_difference_rejects_bad_order():
    with pytest.raises(ValueError):
        finite_difference(lambda x: x[0], np.zeros(2), ())
    with pytest.raises(ValueError):
        finite_difference(lambda x: x[0], np.zeros(2), (0, 0, 0, 0))


def test_ridge_mixed_partial_product_rule():
    f = RidgeFunction(cos_profile(), [0.5, -1.0, 0.25])
    x = np.array([0.1, 0.2, 0.3])
    u = float(x @ f.weights)
    expected = math.sin(u) * 0.5 * (-1.0) * 0.25  # third derivative of cos is sin
    assert f.mixed_partial(x, (0, 1, 2)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 101])
def test_ridge_rows_do_not_depend_on_the_batch(n):
    rng = np.random.default_rng(n)
    f = RidgeFunction(cos_profile(), rng.standard_normal(n), offset=0.3)
    x = rng.standard_normal((1000, n))
    whole = f.argument(x)
    for block in (1, 3, 7, 64, 999):
        parts = np.concatenate([f.argument(x[s:s + block]) for s in range(0, len(x), block)])
        assert np.array_equal(parts, whole), block
    assert all(f.argument(x[k]) == whole[k] for k in range(0, len(x), 37))
    assert np.array_equal(f(x[1:]), np.cos(whole[1:]))  # a batch that starts one row in
