import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import OpaqueFunction
from lindeberg.exchangeable import (
    PrefixWalk,
    _gaussian_moment,
    _ridge_moments,
    _summary_mean,
    build_g_transform,
    conditional_mean_identity_check,
    covariance_gap_sum,
    covariance_gap_sum_exact,
    covariance_matrices,
    end_to_end_check,
    harmonic_gap_closed_form,
    interpolation_difference,
    martingale_increment_check,
    second_moment_identity_check,
    stein_exact_check,
    stein_mc_check,
    thm12_terms,
)
from lindeberg.functions import (GProfile, QuadraticMean, RidgeFunction, cos_profile,
                                 inv_quad_profile, sum_ridge)
from lindeberg.laws import uniform
from lindeberg.sampling import (RunningMean, derive_child, rng_from, row_blocks, sample_batch,
                                standardized_multiset)
from lindeberg.specs import IidFromDistribution, MultisetPermutation
from lindeberg.standardize import center_and_scale
from lindeberg.suites import SUMMARIZATION_FUNCTION_KINDS, ramp_multiset, summarization_function

IDENTITY = GProfile("identity", lambda u: u, np.ones_like, np.zeros_like, np.zeros_like,
                    1.0, 0.0, 0.0)

MULTISETS = {
    n: [standardized_multiset(np.arange(1.0, n + 1.0)),
        standardized_multiset([-1.0] * (n // 2) + [1.0] * (n - n // 2))]
    for n in range(3, 8)
}


class TestGTransform:
    def test_three_by_three_entries(self):
        gt = build_g_transform(3)
        assert np.allclose(gt.matrix, [[1, 0, 0], [0.5, 1, 0], [1, 1, 1]], atol=0)
        assert np.allclose(gt.inverse, [[1, 0, 0], [-0.5, 1, 0], [-0.5, -1, 1]], atol=0)

    def test_scalar_case(self):
        gt = build_g_transform(1)
        assert gt.matrix == [[1.0]] and gt.inverse == [[1.0]]
        assert gt.col_abs_sum_max == 1.0

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
    def test_product_is_identity(self, n):
        gt = build_g_transform(n)
        err = np.max(np.abs(gt.matrix @ gt.inverse - np.eye(n)))
        assert err <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 17, 240])
    def test_chain_rule_factor_is_two(self, n):
        assert build_g_transform(n).col_abs_sum_max == 2.0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            build_g_transform(0)


class TestRTransform:
    """R = G x for a standardized x."""

    def test_two_point(self):
        assert build_g_transform(2).matrix @ [-1.0, 1.0] == pytest.approx([-1.0, 0.0])

    def test_zero_vector(self):
        assert np.array_equal(build_g_transform(4).matrix @ np.zeros(4), np.zeros(4))

    def test_hand_computed_three_point(self):
        # oracle: G(3) rows applied by hand to (-a, 0, a) with a = sqrt(3/2):
        # row2 gives 0 + a * 1/2 * (-1) = -a/2, row3 sums to zero
        a = math.sqrt(1.5)
        r = build_g_transform(3).matrix @ [-a, 0.0, a]
        assert r == pytest.approx([-a, -a / 2.0, 0.0], abs=1e-14)


@pytest.mark.parametrize("n", sorted(MULTISETS))
def test_conditional_mean_identity_exhaustive(n):
    for spec in MULTISETS[n]:
        for i in range(1, n + 1):
            assert conditional_mean_identity_check(PrefixWalk(spec, i)) <= 1e-12


@pytest.mark.parametrize("n", sorted(MULTISETS))
def test_martingale_increments_vanish(n):
    for spec in MULTISETS[n]:
        for i in range(1, n + 1):
            assert martingale_increment_check(PrefixWalk(spec, i)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_martingale_increments_match_g_transform(n):
    # oracle: R = G x over every permutation of the multiset's positions,
    # grouped by the ordered prefix of positions; E(R_i | prefix) is the
    # group mean.  The two uncentered multisets (the second with repeats)
    # make the expected value |sum x| / (n - i + 1) rather than zero.
    g = build_g_transform(n).matrix
    for values in (MULTISETS[n][0].values if n >= 3 else (-1.0, 1.0),
                   np.arange(1.0, n + 1.0), [2.0] * (n - 1) + [-3.5]):
        spec = MultisetPermutation(values)
        for i in range(1, n + 1):
            groups = {}
            for perm in itertools.permutations(range(n)):
                r = g @ spec.values[list(perm)]
                groups.setdefault(perm[: i - 1], []).append(r[i - 1])
            reference = max(abs(np.mean(rs)) for rs in groups.values())
            assert martingale_increment_check(PrefixWalk(spec, i)) == pytest.approx(reference,
                                                                                    abs=1e-12)


def test_conditional_mean_square_value():
    # at n=3, i=2 the closed form (i-1)/((n-i+1)(n-1)) is 1/4
    spec = MULTISETS[3][0]
    checks = second_moment_identity_check(PrefixWalk(spec, 2))
    assert checks.mean_square_rhs == 0.25
    assert checks.mean_square_lhs == pytest.approx(0.25, abs=1e-13)
    empty = second_moment_identity_check(PrefixWalk(spec, 1))
    assert empty.mean_square_rhs == 0.0
    assert empty.mean_square_lhs == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", sorted(MULTISETS))
def test_second_moment_inequalities_exact_mode(n):
    for spec in MULTISETS[n]:
        for i in range(1, n + 1):
            c = second_moment_identity_check(PrefixWalk(spec, i))
            assert abs(c.mean_square_lhs - c.mean_square_rhs) <= 1e-12
            assert c.variance_lhs <= c.variance_rhs + 1e-12
            assert c.deviation_lhs <= c.deviation_rhs + 1e-12
            assert c.third_moment_lhs <= c.third_moment_rhs + 1e-12


def _second_moments_over_ordered_prefixes(values, i):
    """Every ordered prefix enumerated, each mean one fsum over the full list."""
    n, rest = values.size, values.size - i + 1
    sq_means, cond_seconds, r_devs, r_cubes = [], [], [], []
    for prefix in itertools.permutations(range(n), i - 1):
        remaining = [values[j] for j in range(n) if j not in prefix]
        m = math.fsum(remaining) / rest
        m2 = math.fsum(v * v for v in remaining) / rest
        sq_means.append(m * m)
        cond_seconds.append(m2)
        r_devs.append(abs(m2 - m * m - 1.0))
    for prefix in itertools.permutations(range(n), i):
        r = values[prefix[-1]] + math.fsum(values[list(prefix[:-1])]) / rest
        r_cubes.append(abs(r) ** 3)
    mean = lambda terms: math.fsum(terms) / len(terms)
    return (mean(sq_means), mean(cond_seconds) ** 2, mean([v * v for v in cond_seconds]),
            mean(r_devs), mean(r_cubes))


@pytest.mark.parametrize("n", sorted(MULTISETS))
def test_prefix_sets_reproduce_the_ordered_enumeration(n):
    for spec in MULTISETS[n]:
        for i in range(1, n + 1):
            c = second_moment_identity_check(PrefixWalk(spec, i))
            mean_square, second_mean_sq, second_sq, deviation, third = (
                _second_moments_over_ordered_prefixes(spec.values, i))
            assert c.mean_square_lhs == mean_square
            assert c.variance_lhs == second_sq - second_mean_sq
            assert c.deviation_lhs == deviation
            assert c.third_moment_lhs == third


def _index_set_walk(values, i):
    """(prefix values, remaining values) for every index set of the first i - 1
    coordinates: the walk over positions, one step per index set."""
    n = values.size
    for prefix in itertools.combinations(range(n), i - 1):
        taken = set(prefix)
        yield values[list(prefix)], [values[j] for j in range(n) if j not in taken]


def _repeated_mean(terms, repeats, count):
    """math.fsum over a list holding each term ``repeats`` times, divided by ``count``."""
    return float(sum(map(Fraction, terms)) * repeats) / count


def _identity_checks_over_index_sets(values, i):
    """The conditional-mean and martingale deviations and the four enumerated
    second-moment left-hand sides, each from the walk over index sets."""
    n, rest = values.size, values.size - i + 1
    worst_mean = worst_mart = 0.0
    sq_means, cond_seconds, r_devs, r_cubes = [], [], [], []
    for prefix, remaining in _index_set_walk(values, i):
        shift = math.fsum(prefix) / rest
        worst_mean = max(worst_mean, abs(math.fsum(remaining) / rest + shift))
        worst_mart = max(worst_mart, abs(math.fsum([v + shift for v in remaining]) / rest))
        m = math.fsum(remaining) / rest
        m2 = math.fsum(v * v for v in remaining) / rest
        sq_means.append(m * m)
        cond_seconds.append(m2)
        r_devs.append(abs(m2 - m * m - 1.0))
        r_cubes += [abs(v + shift) ** 3 for v in remaining]
    repeats, count = math.factorial(i - 1), math.perm(n, i - 1)
    second_mean = _repeated_mean(cond_seconds, repeats, count)
    second_sq = _repeated_mean([v * v for v in cond_seconds], repeats, count)
    return (worst_mean, worst_mart, _repeated_mean(sq_means, repeats, count),
            second_sq - second_mean ** 2, _repeated_mean(r_devs, repeats, count),
            _repeated_mean(r_cubes, repeats, math.perm(n, i)))


@pytest.mark.parametrize("spec", [
    MultisetPermutation([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0]),
    ramp_multiset(9),
], ids=["repeats", "standardized-ramp"])
def test_prefix_law_walk_is_bit_identical_to_the_index_set_walk(spec):
    # the value-count compositions, each weighted by its number of index sets,
    # give every result to the bit, as fsum and rational totals ignore order
    for i in range(1, spec.n + 1):
        walk = PrefixWalk(spec, i)
        c = second_moment_identity_check(walk)
        got = (conditional_mean_identity_check(walk), martingale_increment_check(walk),
               c.mean_square_lhs, c.variance_lhs, c.deviation_lhs, c.third_moment_lhs)
        expected = _identity_checks_over_index_sets(spec.values, i)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_second_moments_past_a_float_count_of_ordered_prefixes():
    # perm(180, 174) ordered prefixes: their count and total overflow a float
    spec = standardized_multiset([-1.0] * 90 + [1.0] * 90)
    c = second_moment_identity_check(PrefixWalk(spec, 175))
    assert c.mean_square_lhs == pytest.approx(c.mean_square_rhs, rel=1e-12)
    assert c.variance_lhs <= c.variance_rhs and c.deviation_lhs <= c.deviation_rhs
    assert c.third_moment_lhs <= c.third_moment_rhs


class TestCovariancePair:
    def test_three_by_three_values(self):
        pair = covariance_matrices(3)
        assert np.allclose(pair.sigma, np.full((3, 3), -1 / 3) + np.eye(3), atol=1e-15)
        expected_tilde = np.array([
            [1.0, -0.5, -0.5],
            [-0.5, 1.25, -0.75],
            [-0.5, -0.75, 2.25],
        ])
        assert np.allclose(pair.sigma_tilde, expected_tilde, atol=1e-15)

    def test_two_by_two_values(self):
        pair = covariance_matrices(2)
        assert np.allclose(pair.sigma_tilde, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-15)

    def test_closed_form_matches_first_principles(self):
        # sigma_tilde is G^{-1} (G^{-1})^T multiplied out; oracle: its closed form,
        # with S(j) = sum_{k=1..j} (n-k)^{-2} (1-based), 1 + S(j-1) on the
        # diagonal and -1/(n-j) + S(j-1) at (i, j) for i > j
        for n in (2, 5, 23):
            cum = np.concatenate(([0.0], np.cumsum([1.0 / (n - k) ** 2 for k in range(1, n)])))
            closed = np.empty((n, n))
            for j in range(1, n + 1):
                closed[j - 1, j - 1] = 1.0 + cum[j - 1]
                closed[j:, j - 1] = closed[j - 1, j:] = -1.0 / max(n - j, 1) + cum[j - 1]
            assert np.allclose(covariance_matrices(n).sigma_tilde, closed, atol=1e-13)

    def test_empirical_covariance_of_u(self):
        n, reps = 5, 400_000
        ginv = build_g_transform(n).inverse
        v = rng_from(99).standard_normal((reps, n))
        u = v @ ginv.T
        emp = np.cov(u, rowvar=False, ddof=1)
        # covariance entry stderr is about (1 + |sigma|) / sqrt(reps)
        assert np.max(np.abs(emp - covariance_matrices(n).sigma_tilde)) <= 4 * 3.3 / math.sqrt(reps)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            covariance_matrices(1)


class TestCovarianceGap:
    def test_exact_rational_oracle_small_cases(self):
        # independent oracle: rational sigma_tilde = Ginv Ginv^T summed
        # elementwise against sigma
        assert covariance_gap_sum_exact(3) == Fraction(4)
        assert covariance_gap_sum_exact(2) == Fraction(3)
        assert covariance_gap_sum(3) == pytest.approx(4.0, abs=1e-12)
        assert covariance_gap_sum(2) == pytest.approx(3.0, abs=1e-12)

    def test_equality_with_harmonic_form_up_to_50(self):
        for n in range(2, 51):
            assert covariance_gap_sum_exact(n) == harmonic_gap_closed_form(n)

    def test_oracle_matches_the_full_rational_product(self):
        # every entry of G^{-1} (G^{-1})^T as its own inner product of rows
        for n in range(1, 13):
            ginv = [[Fraction(-1, n - 1 - j) if j < i else Fraction(int(i == j))
                     for j in range(n)] for i in range(n)]
            total = sum(abs((Fraction(n - 1, n) if i == j else Fraction(-1, n))
                            - sum(ginv[i][k] * ginv[j][k] for k in range(n)))
                        for i in range(n) for j in range(n))
            assert covariance_gap_sum_exact(n) == total

    def test_float_path_agrees_with_rational(self):
        for n in (2, 3, 10, 40):
            assert covariance_gap_sum(n) == pytest.approx(
                float(covariance_gap_sum_exact(n)), abs=1e-10)

    def test_crude_sqrt_bound_up_to_ten_thousand(self):
        total = 3.0
        for n in range(2, 10_001):
            if n > 2:
                total += 2.0 / (n - 1)
            assert total <= 3.0 * math.sqrt(n) + 1e-12


class TestSteinIdentity:
    def test_cubic_monomial_identity_covariance(self):
        # lhs E(x1 * x1^3) = 3 by Wick pairing; rhs 3 E(x1^2) = 3
        cov = np.eye(3)
        lhs = _gaussian_moment(cov, (0, 0, 0, 0))
        rhs = 3.0 * cov[0, 0] * _gaussian_moment(cov, (0, 0))
        assert lhs == rhs == 3.0

    def test_linear_h(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        cov = m @ m.T
        lhs = _gaussian_moment(cov, (0, 1))
        assert lhs == cov[0, 1]

    def test_odd_moment_vanishes(self):
        assert _gaussian_moment(np.eye(2), (0, 0, 1)) == 0.0

    def test_exact_mode_random_psd(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            m = rng.standard_normal((4, 4))
            cov = m @ m.T / 4.0
            assert stein_exact_check(cov) <= 1e-10

    def test_mc_mode_with_smooth_h(self):
        cov = covariance_matrices(4).sigma_tilde
        h = sum_ridge(cos_profile(), 4)
        dev, allowed = stein_mc_check(h, cov, replicates=150_000, seed=17)
        assert dev <= allowed

    def test_mc_mode_singular_covariance(self):
        # the centered Gaussian covariance has rank n - 1
        cov = covariance_matrices(4).sigma
        h = sum_ridge(inv_quad_profile(), 4)
        dev, allowed = stein_mc_check(h, cov, replicates=100_000, seed=3)
        assert dev <= allowed

    def test_mc_mode_decomposes_once(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _solve=solve, **k: calls.append(1) or _solve(*a, **k))
        stein_mc_check(sum_ridge(cos_profile(), 3), covariance_matrices(3).sigma_tilde,
                       replicates=2000, seed=1)
        assert len(calls) == 1

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            stein_mc_check(sum_ridge(cos_profile(), 2),
                           np.array([[1.0, 2.0], [2.0, 1.0]]), 100, 0)


class TestInterpolation:
    def test_linear_function_gives_zero(self):
        res = interpolation_difference(RidgeFunction(IDENTITY, np.full(4, 0.5)), 4,
                                       replicates=30_000, seed=5)
        assert abs(res.direct) <= 4 * res.direct_stderr
        assert abs(res.integral) <= 4 * res.integral_stderr + 1e-12

    def test_quadratic_case_matches_trace_gap(self):
        # oracle: E f0 = trace(cov)/n for f0 = mean of squares, so the
        # difference is (trace sigma - trace sigma_tilde)/3 = (2 - 4.5)/3
        pair = covariance_matrices(3)
        expected = (np.trace(pair.sigma) - np.trace(pair.sigma_tilde)) / 3.0
        assert expected == pytest.approx(-5.0 / 6.0, abs=1e-12)
        res = interpolation_difference(QuadraticMean(3), 3, replicates=120_000, seed=11)
        assert abs(res.direct - expected) <= 4 * res.direct_stderr
        assert res.integral == pytest.approx(expected, abs=1e-9)
        assert res.consistent()

    def test_estimates_agree_and_respect_bound(self):
        f0 = sum_ridge(cos_profile(), 6)
        res = interpolation_difference(f0, 6, replicates=80_000, seed=2)
        assert res.consistent()
        assert abs(res.direct) <= res.bound + 4 * res.direct_stderr
        assert abs(res.integral) <= res.bound + 4 * res.integral_stderr

    def test_grid_refinement_is_stable(self, monkeypatch):
        # shared draws across nodes: double the grid and only quadrature
        # error moves, which must stay below one stderr
        from lindeberg import exchangeable

        f0 = sum_ridge(inv_quad_profile(), 5)
        coarse = interpolation_difference(f0, 5, replicates=64_000, seed=9)
        monkeypatch.setattr(exchangeable, "_T_GRID_SIZE", 2 * exchangeable._T_GRID_SIZE)
        fine = interpolation_difference(f0, 5, replicates=64_000, seed=9)
        assert abs(coarse.integral - fine.integral) <= coarse.integral_stderr


class TestSummarizationBound:
    def test_direct_formula(self):
        assert sum(thm12_terms(1.0, 1.0, 1.0, 1.0, 4).values()) == 71.0

    def test_zero_derivative_bounds(self):
        assert sum(thm12_terms(2.0, 3.0, 0.0, 0.0, 10).values()) == 0.0

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            thm12_terms(-1.0, 1.0, 1.0, 1.0, 4)

    def test_linear_in_sum_function_is_exact_zero(self):
        spec = ramp_multiset(8)
        report, = end_to_end_check(spec, [sum_ridge(IDENTITY, 8)],
                                   replicates=2_000, seed=1)
        assert report.bound == 0.0
        # the sum of a permuted multiset differs from the reference sum only
        # by summation rounding
        assert abs(report.estimate) <= 1e-14

    def test_weakly_dependent_spec_rejected(self):
        from lindeberg.specs import MarkovChain

        chain = MarkovChain((-1.0, 1.0), (0.5, 0.5), ((0.7, 0.3), (0.4, 0.6)), 3)
        with pytest.raises(TypeError):
            end_to_end_check(chain, [summarization_function("cos-alternating", 3)], 100, 0)

    def test_degenerate_multiset(self):
        spec = MultisetPermutation((3.0, 3.0, 3.0))
        f = summarization_function("cos-alternating", 3)
        with pytest.raises(ValueError, match="not constant"):
            end_to_end_check(spec, [f], replicates=500, seed=0)

    def test_domination_on_sample_cells(self):
        for n in (10, 50):
            spec = ramp_multiset(n)
            for kind in ("cos-alternating", "inv_quad-ramp"):
                report, = end_to_end_check(spec, [summarization_function(kind, n)],
                                           replicates=40_000, seed=31)
                assert report.dominates()
                assert report.bound == pytest.approx(
                    sum(report.components.values()), abs=1e-12)


def test_jensen_moment_inequality():
    spec = IidFromDistribution(uniform(-2.0, 1.0), 8)
    draws = sample_batch(spec, 123, 60_000)
    mu = draws.mean(axis=1, keepdims=True)
    sigma = np.sqrt(np.mean((draws - mu) ** 2, axis=1))
    for r in (2, 3):
        lhs = sigma ** r
        rhs = np.mean(np.abs(draws - mu) ** r, axis=1)
        gap = rhs - lhs
        stderr = gap.std(ddof=1) / math.sqrt(gap.size)
        assert gap.mean() >= -3 * stderr


def test_inverse_sqrt_sum_against_integral_bound():
    total = 0.0
    for n in range(1, 10_001):
        total += 1.0 / math.sqrt(n)
        assert total <= 2.0 * math.sqrt(n)


def test_chain_rule_bound_through_g_inverse():
    rng = np.random.default_rng(6)
    for n in (4, 9):
        gt = build_g_transform(n)
        for profile in (cos_profile(), inv_quad_profile()):
            f0 = sum_ridge(profile, n)
            # x -> f0(G^{-1} x) is the ridge with weights G^{-T} w, whose r-th
            # partial in x_j is g^(r)(u) times the j-th weight to the r
            w1 = gt.inverse.T @ f0.weights
            for _ in range(40):
                u = float(rng.uniform(-3, 3, n) @ w1)
                j = int(rng.integers(n))
                for r, d in enumerate((profile.d1, profile.d2, profile.d3), start=1):
                    measured = abs(d(u) * w1[j] ** r)
                    assert measured <= f0.mixed_bounds[r - 1] * 2.0 ** r + 1e-12


def test_exact_gaussian_summary_agrees_with_sampled_summary():
    # the same X draws; Ef(Y) by quadrature in end_to_end_check, and sampled
    # here from Y = mu_hat + sigma_hat (Z - Zbar)
    n, replicates, seed = 10, 20_000, 4
    spec, f = ramp_multiset(n), summarization_function("inv_quad-ramp", n)
    exact, = end_to_end_check(spec, [f], replicates, seed)
    std = center_and_scale(spec.values)
    x = rng_from(derive_child(seed, 0)).permuted(np.tile(spec.values, (replicates, 1)), axis=1)
    z = rng_from(derive_child(seed, 1)).standard_normal((replicates, n))
    diff = f(x) - f(std.mu_hat + std.sigma_hat * (z - z.mean(axis=1, keepdims=True)))
    sampled, sampled_stderr = diff.mean(), diff.std(ddof=1) / math.sqrt(replicates)
    assert exact.stderr < sampled_stderr
    assert abs(exact.estimate - sampled) <= 4.0 * math.hypot(exact.stderr, sampled_stderr)


@pytest.mark.parametrize("kind", ["cos-alternating", "inv_quad-ramp"])
def test_control_variate_estimate_against_every_order(kind):
    # Ef(X) over all 720 orders of the ramp at n = 6, Ef(Y) by quadrature; the
    # plain stderr is that of the same draws of X without the controls
    n, replicates = 6, 2_000
    spec, f = ramp_multiset(n), summarization_function(kind, n)
    std = center_and_scale(spec.values)
    ey, quad_error = _summary_mean(f, std.mu_hat, std.sigma_hat)
    exact = math.fsum(f(np.array(list(itertools.permutations(spec.values))))) / 720 - ey
    for seed in range(20):
        report, = end_to_end_check(spec, [f], replicates, seed)
        assert abs(report.estimate - exact) <= 4.0 * report.stderr
        x = rng_from(derive_child(seed, 0)).permuted(np.tile(spec.values, (replicates, 1)),
                                                     axis=1)
        plain = f(x).std(ddof=1) / math.sqrt(replicates) + quad_error
        assert report.stderr <= plain


def test_two_point_ridge_argument_leaves_one_control():
    # n = 2: S takes two values, so (S - E S)^2 is constant up to rounding and
    # collinear with S - E S; f(X) is then exactly fitted and the estimate exact
    spec = MultisetPermutation([0.0, 3.0])
    g = inv_quad_profile()
    shifted = GProfile("inv_quad(u + 0.2)", *(lambda u, h=h: h(u + 0.2)
                                              for h in (g.value, g.d1, g.d2, g.d3)),
                       g.b1, g.b2, g.b3)
    f = RidgeFunction(shifted, [0.7, 0.0])
    std = center_and_scale(spec.values)
    ey, _ = _summary_mean(f, std.mu_hat, std.sigma_hat)
    exact = 0.5 * (f(np.array([0.0, 3.0])) + f(np.array([3.0, 0.0]))) - ey
    report, = end_to_end_check(spec, [f], 1_001, seed=3)
    assert report.estimate == pytest.approx(exact, abs=1e-15) and report.stderr <= 1e-15


def test_ridge_moments_are_those_of_every_order():
    # mean and variance of w.X over all 5040 orders of a multiset with repeats
    spec = MultisetPermutation([0.5, 0.5, 2.0, -1.0, 3.0, 3.0, 3.0])
    f = RidgeFunction(cos_profile(), [0.3, -1.2, 0.0, 2.0, 0.7, 0.7, -0.4])
    s = f.argument(np.array(list(itertools.permutations(spec.values))))
    std = center_and_scale(spec.values)
    mean, var = _ridge_moments(f, std.mu_hat, std.sigma_hat, spec.n)
    assert mean == pytest.approx(s.mean(), rel=1e-13)
    assert var == pytest.approx(s.var(), rel=1e-13)


def _whole_batch_reference(spec, f, replicates, seed):
    """end_to_end_check's estimate and stderr from one whole batch of X, whose
    per-row differences, with the controls S - E S and (S - E S)^2 - Var S, are
    fed to the accumulator in row blocks."""
    n = spec.n
    std = center_and_scale(spec.values)
    x = rng_from(derive_child(seed, 0)).permuted(np.tile(spec.values, (replicates, 1)), axis=1)
    ey, quad_error = _summary_mean(f, std.mu_hat, std.sigma_hat)
    mean_s, var_s = _ridge_moments(f, std.mu_hat, std.sigma_hat, n)
    d = f.argument(x) - mean_s
    columns = [f(x) - ey, d, d * d - var_s]
    mean = RunningMean(2)
    for block in row_blocks(replicates, n):  # the same blocks as end_to_end_check
        mean.add(*(column[block] for column in columns))
    estimate, stderr = mean.result()
    return estimate, stderr + quad_error


# f reads x_0 - x_1 with weights +-1, whose products are exact, so its values
# do not depend on how BLAS groups the rows of a batch.
@pytest.mark.parametrize("y_kind", ["exact-y"])
def test_blocked_draws_match_one_whole_batch(y_kind):
    n = 50
    spec = ramp_multiset(n)
    w = np.zeros(n)
    w[:2] = (1.0, -1.0)
    f = RidgeFunction(cos_profile(), w)
    replicates = 3 * next(row_blocks(1 << 30, n)).stop + 17  # three whole blocks and a part
    report, = end_to_end_check(spec, [f], replicates, seed=8)
    estimate, stderr = _whole_batch_reference(spec, f, replicates, 8)
    assert report.estimate == estimate and report.stderr == stderr
    assert report.replicates == replicates


def _summarization_group(n):
    """The suite's ridge functions at n."""
    return [summarization_function(kind, n) for kind in SUMMARIZATION_FUNCTION_KINDS]


@pytest.mark.parametrize("y_kind", ["exact-y"])
def test_group_call_equals_one_function_calls(y_kind):
    n = 10
    spec = ramp_multiset(n)
    replicates = 2 * next(row_blocks(1 << 30, n)).stop + 5
    functions = _summarization_group(n)
    group = end_to_end_check(spec, functions, replicates, seed=6)
    assert len(group) == len(functions)
    for f, report in zip(functions, group):
        assert end_to_end_check(spec, [f], replicates, seed=6) == [report]


@pytest.mark.parametrize("y_kind", ["exact-y"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_group_draws_each_input_once(monkeypatch, count, y_kind):
    from lindeberg import exchangeable

    drawn = []

    def counting_sample(spec, rng, rows):
        out = sample_batch(spec, rng, rows)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(exchangeable, "sample_batch", counting_sample)
    n, replicates = 50, 7_000
    functions = (_summarization_group(n) * 2)[:count]
    end_to_end_check(ramp_multiset(n), functions, replicates, seed=2)
    assert sum(drawn) == replicates * n


def test_non_ridge_function_is_rejected():
    f = summarization_function("cos-alternating", 6)
    with pytest.raises(TypeError, match="ridge functions"):
        end_to_end_check(ramp_multiset(6), [f, OpaqueFunction(f)], 100, 0)


def test_summary_the_quadrature_cannot_resolve_is_rejected():
    # w.Y has sd 2.9e6 here, which no trapezoid rule on cos resolves
    spec = MultisetPermutation(np.arange(1.0, 11.0) * 1e6)
    with pytest.raises(ValueError, match="cannot resolve Ef"):
        end_to_end_check(spec, [summarization_function("cos-alternating", 10)], 100, 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
def test_every_multiset_thm12_check_takes_has_an_exact_summary(values):
    # thm12-check standardizes its multiset first; what that accepts never
    # reaches end_to_end_check's rejections
    try:
        spec = standardized_multiset(values)
    except ValueError:  # constant, or past the floats: thm12-check exits 2 first
        assume(False)
    n = len(values)
    functions = [summarization_function(kind, n) for kind in SUMMARIZATION_FUNCTION_KINDS]
    reports = end_to_end_check(spec, functions, 16, seed=0)
    assert all(math.isfinite(r.estimate) and math.isfinite(r.stderr) for r in reports)


def test_end_to_end_memory_does_not_grow_with_replicates():
    spec, f = ramp_multiset(50), summarization_function("cos-alternating", 50)
    tracemalloc.start()
    try:
        end_to_end_check(spec, [f], 2_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20  # one float per replicate alone is 15 MiB
