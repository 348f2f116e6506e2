import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OpaqueFunction
from lindeberg.functions import RidgeFunction, cos_profile, logistic_step_profile, sum_ridge
from lindeberg.laws import Finite, RidgeLaw, Uniform, gaussian, student_t, uniform
from lindeberg.mixture import ConditionallyIid
from lindeberg.sampling import (
    derive_child,
    rng_from,
    row_blocks,
    sample_batch,
    standardized_multiset,
)
from lindeberg.specs import IidFromDistribution, MarkovChain, MultisetPermutation
from lindeberg.swap import (
    BoundReport,
    bound_components,
    estimate_ab,
    estimate_ab_all,
    mean_difference,
    swapping_report,
    third_moment_bound,
)
from lindeberg.suites import gaussian_comparison, ramp_multiset, suite_function, swapping_spec


def _bound(A, B, M3, L1, L2, L3):
    return sum(bound_components(A, B, M3, L1, L2, L3).values())


class TestLindebergBound:
    def test_third_moment_only(self):
        assert _bound(np.zeros(6), np.zeros(6), 1.0, 5.0, 7.0, 1.0) == 1.0

    def test_direct_formula(self):
        assert _bound([1.0], [2.0], 0.0, 1.0, 1.0, 0.0) == 2.0

    def test_constant_function_gives_zero(self):
        assert _bound([0.3, 0.1], [0.2, 0.4], 2.0, 0.0, 0.0, 0.0) == 0.0

    def test_zero_derivative_bound_cancels_infinite_moment(self):
        assert _bound([1.0], [2.0], math.inf, 1.0, 1.0, 0.0) == 2.0
        assert _bound([1.0], [2.0], math.inf, 1.0, 1.0, 1.0) == math.inf

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError, match="inputs must be nonnegative"):
            bound_components([-0.1], [0.0], 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="inputs must be nonnegative"):
            bound_components([0.1], [0.0], -1.0, 1.0, 1.0, 1.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="A and B must have the same length"):
            bound_components([0.1, 0.2], [0.1], 1.0, 1.0, 1.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 10), min_size=1, max_size=8),
           st.floats(0, 5), st.floats(0, 5), st.floats(0, 5), st.floats(0, 5))
    def test_bound_equals_sum_of_components(self, a, m3, l1, l2, l3):
        b = [v / 2 for v in a]
        parts = bound_components(a, b, m3, l1, l2, l3)
        report = BoundReport(0.0, 0.0, 0, "exact", parts)
        assert report.bound == parts["first_order"] + parts["second_order"] + parts["third_moment"]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dominates_allows_three_stderr_by_default(sign):
    # bound 1, stderr 0.1: an estimate 4 stderr beyond the bound fails, 2 passes
    def report(excess):
        return BoundReport(sign * (1.0 + excess * 0.1), 0.1, 1000, "mc", {"term": 1.0})
    assert not report(4.0).dominates()
    assert report(2.0).dominates()


class TestEstimateAB:
    def test_three_element_multiset_exact(self):
        # oracle: enumerate prefixes of length 1 over {-1, 0, 1}; the
        # conditional mean of the next draw is the mean of the two remaining
        # values and the conditional second moment their mean square
        values = (-1.0, 0.0, 1.0)
        a_terms, b_terms = [], []
        for first in values:
            rest = [v for v in values if v != first] if first != 0 else [-1.0, 1.0]
            a_terms.append(abs(np.mean(rest) - 0.0))
            b_terms.append(abs(np.mean(np.square(rest)) - 2.0 / 3.0))
        oracle_a = np.mean(a_terms)
        oracle_b = np.mean(b_terms)
        assert oracle_a == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert oracle_b == pytest.approx(2.0 / 9.0, abs=1e-15)

        est = estimate_ab(MultisetPermutation(values), 0.0, 2.0 / 3.0, i=2)
        assert est.exact
        assert est.a == pytest.approx(oracle_a, abs=1e-15)
        assert est.b == pytest.approx(oracle_b, abs=1e-15)

    def test_iid_with_matching_moments_vanishes(self):
        spec = IidFromDistribution(gaussian(), 6)
        est = estimate_ab(spec, 0.0, 1.0, i=4)
        assert est.a == 0.0 and est.b == 0.0 and est.exact

    def test_multiset_with_repeats_matches_full_enumeration(self):
        values = (-2.0, -1.0, -1.0, 1.0, 1.0, 2.0)
        spec = MultisetPermutation(values)
        n = len(values)
        for i in (1, 3, 5):
            # oracle: average over every ordered prefix of length i-1
            a_terms, b_terms = [], []
            for prefix in itertools.permutations(range(n), i - 1):
                rest = [values[k] for k in range(n) if k not in prefix]
                a_terms.append(abs(np.mean(rest) - 0.1))
                b_terms.append(abs(np.mean(np.square(rest)) - 0.9))
            est = estimate_ab(spec, 0.1, 0.9, i=i)
            assert est.exact
            assert est.a == pytest.approx(np.mean(a_terms), abs=1e-13)
            assert est.b == pytest.approx(np.mean(b_terms), abs=1e-13)

    def test_markov_matches_path_enumeration(self):
        states = (-1.0, 2.0)
        kernel = ((0.7, 0.3), (0.4, 0.6))
        initial = (0.25, 0.75)
        spec = MarkovChain(states, initial, kernel, 5)
        i = 4
        # oracle: enumerate all state paths of length i-1 with their
        # probabilities; condition on the last state
        a = b = 0.0
        for path in itertools.product(range(2), repeat=i - 1):
            prob = initial[path[0]]
            for s, t in zip(path, path[1:]):
                prob *= kernel[s][t]
            last = path[-1]
            cond_mean = sum(kernel[last][t] * states[t] for t in range(2))
            cond_sq = sum(kernel[last][t] * states[t] ** 2 for t in range(2))
            a += prob * abs(cond_mean - 0.0)
            b += prob * abs(cond_sq - 1.0)
        est = estimate_ab(spec, 0.0, 1.0, i=i)
        assert est.exact
        assert est.a == pytest.approx(a, abs=1e-13)
        assert est.b == pytest.approx(b, abs=1e-13)

    @pytest.mark.parametrize("spec", [
        swapping_spec("markov-two-state", 150),
        MarkovChain((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3),
                    ((0.1, 0.6, 0.3), (0.5, 0.25, 0.25), (0.3, 0.3, 0.4)), 60),
    ], ids=["two-state", "three-state"])
    def test_markov_step_laws_equal_the_per_step_recursion(self, spec):
        # A, B and E|X_i|^3 as the law of step i was once rebuilt for each i:
        # the initial law times the kernel i - 1 times
        kernel, states = np.asarray(spec.kernel), np.asarray(spec.states)

        def step_law(i):
            dist = np.asarray(spec.initial, dtype=float)
            for _ in range(i - 1):
                dist = dist @ kernel
            return dist

        for i in range(1, spec.n + 1):
            est = estimate_ab(spec, 0.1, 1.2, i)
            if i > 1:
                prev = step_law(i - 1)
                assert est.a == float(np.dot(prev, np.abs(kernel @ states - 0.1)))
                assert est.b == float(np.dot(prev, np.abs(kernel @ (states * states) - 1.2)))
            assert spec.abs_third_moment(i) == float(np.dot(step_law(i), np.abs(states) ** 3))

    def test_large_balanced_multiset_stays_exact(self):
        values = np.ones(50)
        values[:25] = -1.0
        est = estimate_ab(MultisetPermutation(tuple(values)), 0.0, 1.0, i=30)
        assert est.exact

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]) | st.floats(-3.0, 3.0),
                    min_size=1, max_size=10),
           st.floats(-1.0, 1.0), st.floats(0.0, 3.0))
    def test_cap_dominates_enumeration_under_the_budget(self, values, y_mean, y_second):
        spec = MultisetPermutation(values)
        for i in range(1, spec.n + 1):
            exact, cap = estimate_ab(spec, y_mean, y_second, i), spec.ab_cap(y_mean, y_second, i)
            assert exact.exact and not cap.exact
            # at i = n the L1 cap is A_n and B_n themselves, summed another way
            assert cap.a >= exact.a * (1.0 - 1e-12) - 1e-15
            assert cap.b >= exact.b * (1.0 - 1e-12) - 1e-15

    def test_distinct_values_beyond_budget_are_capped(self):
        values = tuple(np.random.default_rng(8).standard_normal(40))
        spec = MultisetPermutation(values)
        assert spec.ab_exact(0.0, 1.0, 20) is None
        est = estimate_ab(spec, 0.0, 1.0, i=20)
        assert est == spec.ab_cap(0.0, 1.0, 20) and not est.exact

    @pytest.mark.parametrize("i", [2, 150, 300])
    def test_monte_carlo_prefixes_equal_one_whole_batch(self, i):
        # the prefix-sum reference at i is the mean over one whole batch of the
        # drawn (i - 1)-prefixes; the cap of the tenfold multiset is checked against it
        spec, rows = _TENFOLD, 4_000
        prefixes = sample_batch(spec, 9, rows)[:, : i - 1]
        rest = spec.n - (i - 1)
        cond_mean = (spec.values.sum() - prefixes.sum(axis=1)) / rest
        cond_sq = (np.square(spec.values).sum() - np.square(prefixes).sum(axis=1)) / rest
        a, a_se, b, b_se = _prefix_sum_reference(spec, 0.0, 1.0, rows, seed=9)
        for d, mean, se in ((np.abs(cond_mean), a, a_se), (np.abs(cond_sq - 1.0), b, b_se)):
            assert mean[i - 1] == pytest.approx(d.mean(), rel=1e-9, abs=1e-12)
            assert se[i - 1] == pytest.approx(d.std(ddof=1) / math.sqrt(rows), rel=1e-9, abs=1e-12)
        cap = estimate_ab(spec, 0.0, 1.0, i)
        assert not cap.exact
        assert a[i - 1] - 4 * a_se[i - 1] <= cap.a <= 2.5 * a[i - 1]
        assert b[i - 1] - 4 * b_se[i - 1] <= cap.b <= 2.5 * b[i - 1]


def _prefix_sum_reference(spec, y_mean, y_second, rows, seed):
    """Monte Carlo A_i, B_i at every i, with their stderrs, from the prefix sums of
    ``rows`` drawn permutations: the values left after a k-prefix have mean
    (total - S_k) / (n - k), which is E(X_{k+1} | X_<k+1)."""
    x = sample_batch(spec, seed, rows)
    n = spec.n
    rest = n - np.arange(n)
    result = []
    for v, c in ((x, y_mean), (x * x, y_second)):
        prefix = np.zeros((rows, n))
        np.cumsum(v[:, :-1], axis=1, out=prefix[:, 1:])
        d = np.abs((v.sum(axis=1, keepdims=True) - prefix) / rest - c)
        result += [d.mean(axis=0), d.std(axis=0, ddof=1) / math.sqrt(rows)]
    return result


# 30 values, ten copies each: n = 300, far past the enumeration budget
_TENFOLD = MultisetPermutation(np.repeat(np.linspace(-1.5, 1.5, 30), 10))


@pytest.mark.parametrize("spec, indices", [
    (ramp_multiset(50), range(2, 51)),
    (ramp_multiset(300), [*range(2, 301, 7), 300]),
], ids=["ramp-50", "ramp-300"])
def test_multiset_caps_against_prefix_sum_reference(spec, indices):
    # measured: cap / reference 1.00-1.28 on the ramps; at i = n the L1 cap is
    # exact, and the ratio is 1 up to the reference's Monte Carlo error
    a, a_se, b, b_se = _prefix_sum_reference(spec, 0.0, 1.0, 4_000, seed=9)
    for i in indices:
        cap = estimate_ab(spec, 0.0, 1.0, i)
        assert not cap.exact
        assert a[i - 1] - 4 * a_se[i - 1] <= cap.a <= 2.5 * a[i - 1]
        assert b[i - 1] - 4 * b_se[i - 1] <= cap.b <= 2.5 * b[i - 1]


def test_estimate_ab_draws_nothing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("A and B come from closed forms")

    for cls in (MultisetPermutation, ConditionallyIid):
        monkeypatch.setattr(cls, "sample", no_draws)
    for spec in (_TENFOLD, ConditionallyIid(uniform(-1.0, 1.0), "gaussian_mean", 0.5, 40)):
        a, b = estimate_ab_all(spec, 0.0, 1.0)
        assert np.isfinite(a).all() and np.isfinite(b).all()


def _posterior_reference(mixing, scale, k, y_mean, y_second, rows, seed):
    """Monte Carlo A_{k+1}, B_{k+1} with their stderrs over the prefix sum
    S = k theta + scale sqrt(k) Z, of the exact posterior moments of theta given S,
    whose likelihood is exp((theta S - k theta^2 / 2) / scale^2): a sum over the
    atoms of a finite law, else a trapezoid rule over theta (on the support of a
    uniform law; on S / k +- 12 likelihood sds for Student t)."""
    rng = rng_from(seed)
    theta = mixing.sample(rng, rows)
    sums = k * theta + scale * math.sqrt(k) * rng.standard_normal(rows)
    if isinstance(mixing, Finite):
        nodes = np.asarray(mixing.values)[None, :]
        log_prior = np.log(mixing.probs)
    elif isinstance(mixing, Uniform):
        nodes = np.linspace(mixing.low, mixing.high, 801)[None, :]
        log_prior = np.zeros(801)
        log_prior[[0, -1]] = math.log(0.5)  # the trapezoid's end weights
    else:
        nodes = sums[:, None] / k + scale / math.sqrt(k) * np.linspace(-12.0, 12.0, 961)
        log_prior = -0.5 * (mixing.df + 1.0) * np.log1p(nodes * nodes / mixing.df)
    log_w = log_prior + (nodes * sums[:, None] - 0.5 * k * nodes * nodes) / scale ** 2
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    da = np.abs((w * nodes).sum(axis=1) - y_mean)
    db = np.abs((w * nodes * nodes).sum(axis=1) + scale ** 2 - y_second)
    root = math.sqrt(rows)
    return da.mean(), da.std(ddof=1) / root, db.mean(), db.std(ddof=1) / root


class TestConditionallyIidOracle:
    def test_posterior_concentrates_on_mixture_component(self):
        # two well-separated means: after two observations the posterior mean
        # sits near the drawn component, so A_3 is close to E|theta| = 3, and
        # both caps are 3
        mixing = Finite((-3.0, 3.0), (0.5, 0.5))
        a, a_se, _, _ = _posterior_reference(mixing, 0.5, 2, 0.0, 1.0, 4_000, seed=12)
        assert a == pytest.approx(3.0, abs=0.3)
        cap = estimate_ab(ConditionallyIid(mixing, "gaussian_mean", 0.5, 5), 0.0, 1.0, i=3)
        assert not cap.exact and cap.a == 3.0 and cap.a >= a - 4 * a_se

    def test_first_coordinate_exact_for_any_mixing(self):

        mixing = Finite((-1.0, 2.0), (0.6, 0.4))
        spec = ConditionallyIid(mixing, "gaussian_mean", 0.5, 4)
        est = estimate_ab(spec, 0.3, 1.0, i=1)
        assert est.exact
        assert est.a == pytest.approx(abs(mixing.mean() - 0.3), abs=1e-15)
        assert est.b == pytest.approx(abs(mixing.second_moment() + 0.25 - 1.0), abs=1e-15)

    @pytest.mark.parametrize("m", [0.0, 0.7, -1.3])
    def test_gaussian_mixing_matches_quadrature(self, m):
        from scipy.integrate import quad


        def expect(g, mean, sd, kinks):
            # integrate g against N(mean, sd^2) piecewise between the kinks of g
            lo, hi = mean - 12 * sd, mean + 12 * sd
            edges = [lo, *sorted(x for x in kinks if lo < x < hi), hi]
            dens = lambda x: math.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
            return sum(quad(lambda x: g(x) * dens(x), a, b, epsabs=1e-15, epsrel=1e-13)[0]
                       for a, b in zip(edges, edges[1:]))

        signs = set()
        for tau, s, i, y_mean, y_second in itertools.product(
                (0.5, 1.2), (0.3, 2.0), (2, 6), (0.4, -0.2), (3.0, 0.1)):
            est = estimate_ab(ConditionallyIid(gaussian(m, tau), "gaussian_mean", s, 8),
                              y_mean, y_second, i)
            k = i - 1
            var_k = k * tau**4 / (s**2 + k * tau**2)
            c = tau**2 - var_k + s**2 - y_second
            signs.add(c > 0)
            sd = math.sqrt(var_k)
            r = math.sqrt(max(-c, 0.0))
            assert est.exact
            assert est.a == pytest.approx(expect(lambda x: abs(x - y_mean), m, sd, [y_mean]),
                                          abs=1e-12)
            assert est.b == pytest.approx(expect(lambda x: abs(x * x + c), m, sd, [-r, r]),
                                          abs=1e-12)
        assert signs == {True, False}

    def test_degenerate_mixing_or_noise(self):

        # tau = 0: theta = m, so E(X_3 | X_<3) = m and E(X_3^2 | X_<3) = m^2 + s^2
        est = estimate_ab(ConditionallyIid(gaussian(0.7, 0.0), "gaussian_mean", 0.5, 4),
                          0.2, 1.0, 3)
        assert est.exact
        assert est.a == pytest.approx(0.5, abs=1e-15)
        assert est.b == pytest.approx(abs(0.49 + 0.25 - 1.0), abs=1e-15)
        # s = 0: one observation reveals theta ~ N(0, 1), so A = E|Z| and
        # B = E|Z^2 - 1| = 4 phi(1)
        est = estimate_ab(ConditionallyIid(gaussian(), "gaussian_mean", 0.0, 4), 0.0, 1.0, 3)
        assert est.a == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)
        assert est.b == pytest.approx(4 * math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-15)
        # the same for theta ~ U(-1, 1), where A = E|theta| = 1/2 and B = E|theta^2 - 1|
        # = 2/3: the L1 cap E|theta| + 0 is A itself, and the L2 cap on B is
        # sqrt((1/3 - 1)^2 + Var theta^2) = sqrt(8/15)
        cap = estimate_ab(ConditionallyIid(uniform(-1.0, 1.0), "gaussian_mean", 0.0, 4),
                          0.0, 1.0, 3)
        assert not cap.exact
        assert cap.a == pytest.approx(0.5, rel=1e-15)
        assert cap.b == pytest.approx(math.sqrt(8 / 15), rel=1e-14)

    @pytest.mark.parametrize("m", [0.0, 0.7])
    def test_cap_dominates_the_conjugate_oracle(self, m):
        # m != 0 has no closed form for E|theta| or E theta^4 here: those caps are inf
        for tau, s, y_mean, y_second in itertools.product(
                (0.0, 0.5, 1.2), (0.0, 0.3, 2.0), (0.0, 0.4, -1.0), (0.1, 1.0, 3.0)):
            spec = ConditionallyIid(gaussian(m, tau), "gaussian_mean", s, 8)
            for i in range(1, 9):
                exact, cap = estimate_ab(spec, y_mean, y_second, i), spec.ab_cap(y_mean, y_second, i)
                assert exact.exact and not cap.exact
                # where s = 0 or a <= 0, a cap and the value are equal sums, rounded apart
                assert cap.a >= exact.a * (1.0 - 1e-12) and cap.b >= exact.b * (1.0 - 1e-12)

    def test_cap_survives_cancellation_in_the_variance(self):
        # E theta^2 - (E theta)^2 rounds to 0 at theta ~ N(1e8, 1e-4): the cap
        # keeps a rounding allowance, so it stays above the exact A
        spec = ConditionallyIid(gaussian(1e8, 1e-2), "gaussian_mean", 1.0, 3)
        for i in (2, 3):
            exact, cap = estimate_ab(spec, 1e8, 1.0, i), spec.ab_cap(1e8, 1.0, i)
            assert exact.a > 0.0 and cap.a >= exact.a and cap.b >= exact.b

    @pytest.mark.parametrize("mixing, scale", [
        (Finite((-1.0, 2.0), (0.6, 0.4)), 1.0),
        (uniform(-1.0, 1.0), 0.5),
        (student_t(5.0), 1.0),
        (student_t(5.0), 0.5),
    ], ids=["finite", "uniform", "student_t5", "student_t5-s0.5"])
    def test_mixture_caps_against_posterior_reference(self, mixing, scale):
        # measured cap / reference: finite <= 1.16, uniform and t5 at s = 1 <= 1.31,
        # t5 at s = 0.5 up to 1.83 (its B)
        spec = ConditionallyIid(mixing, "gaussian_mean", scale, 9)
        for i in (2, 3, 5, 9):
            a, a_se, b, b_se = _posterior_reference(mixing, scale, i - 1, 0.0, 1.0, 2_000,
                                                    seed=i)
            cap = estimate_ab(spec, 0.0, 1.0, i)
            assert not cap.exact
            assert a - 4 * a_se <= cap.a <= 2.5 * a
            assert b - 4 * b_se <= cap.b <= 2.5 * b

    @pytest.mark.parametrize("df", [1.0, 2.0, 3.0, 4.0])
    def test_heavy_tailed_mixing_caps_are_numbers(self, df):
        # E|theta| = inf for df <= 1 and E theta^2 = inf for df <= 2; E theta^4 = inf
        # for every df here, so only the L1 cap on B is finite, from df = 3 on
        for s in (0.0, 0.5, 1.0):
            spec = ConditionallyIid(student_t(df), "gaussian_mean", s, 4)
            for i in range(2, 5):
                est = estimate_ab(spec, 0.0, 1.0, i)
                assert (est.a == math.inf) == (df <= 1.0) and est.a >= 0.0
                assert (est.b == math.inf) == (df <= 2.0) and est.b >= 0.0

    def test_abs_third_moment(self):

        spec = ConditionallyIid(gaussian(0.0, 0.5), "gaussian_mean", 0.75**0.5, 3)
        draws = np.abs(sample_batch(spec, 4, 200_000)) ** 3
        assert spec.abs_third_moment(2) == pytest.approx(draws.mean(), rel=2e-2)
        assert spec.abs_third_moment(2) == pytest.approx(gaussian().abs_moment(3), rel=1e-15)
        # exact off-centre too (X_i ~ N(0.3, 1.25)); a heavy-tailed mixing law makes it infinite
        from scipy.integrate import quad

        off_centre = ConditionallyIid(gaussian(0.3, 0.5), "gaussian_mean", 1.0, 3)
        heavy = ConditionallyIid(student_t(2.5), "gaussian_mean", 1.0, 3)
        dens = lambda x: abs(x) ** 3 * math.exp(-0.5 * (x - 0.3) ** 2 / 1.25) / math.sqrt(
            2.0 * math.pi * 1.25)
        expected = sum(quad(dens, a, b, epsabs=0.0, epsrel=1e-13)[0]
                       for a, b in ((-math.inf, 0.0), (0.0, math.inf)))
        assert off_centre.abs_third_moment(1) == pytest.approx(expected, rel=1e-12)
        assert heavy.abs_third_moment(1) == math.inf


def test_third_moment_bound_exact_for_multiset_vs_gaussian():
    spec = standardized_multiset([-1.0, -1.0, 1.0, 1.0])
    y = IidFromDistribution(gaussian(), 4)
    expected = 1.0 + 2.0 * math.sqrt(2.0 / math.pi)
    assert third_moment_bound(spec, y) == pytest.approx(expected, rel=1e-14)


# The three mixing laws whose caps docs/derivations.md records, with their scale
# and the density of theta on its support (None for atoms).
_MIXED_CAP_CELLS = [
    (Finite((-1.0, 2.0), (0.6, 0.4)), 1.0, None),
    (uniform(-1.0, 1.0), 0.5, "uniform"),
    (student_t(5.0), 1.0, "t5"),
]


def _mixed_third_moment(mixing, scale, density):
    """E|theta + scale Z|^3 by quadrature: over z for each atom, else over theta
    of the Gaussian closed form E|N(theta, scale^2)|^3."""
    from scipy import stats
    from scipy.integrate import quad

    def integral(g, lo, hi):
        return sum(quad(g, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                   for a, b in ((lo, 0.0), (0.0, hi)))

    if density is None:
        return sum(p * integral(lambda z: abs(a + scale * z) ** 3 * stats.norm.pdf(z),
                                -math.inf, math.inf)
                   for a, p in zip(mixing.values, mixing.probs))
    pdf, lo, hi = ((lambda t: 0.5), -1.0, 1.0) if density == "uniform" else (
        stats.t(5.0).pdf, -math.inf, math.inf)
    return integral(lambda t: pdf(t) * gaussian(t, scale).abs_moment(3), lo, hi)


@pytest.mark.parametrize("mixing, scale, density", _MIXED_CAP_CELLS,
                         ids=["finite", "uniform", "student_t5"])
def test_mixed_third_moment_cap_is_within_2x_of_quadrature(mixing, scale, density):
    # measured ratios: 1.30, 1.36 and 1.89 (docs/derivations.md)
    cap = ConditionallyIid(mixing, "gaussian_mean", scale, 4).abs_third_moment(3)
    true = _mixed_third_moment(mixing, scale, density)
    assert true <= cap <= 2.0 * true
    noiseless = ConditionallyIid(mixing, "gaussian_mean", 0.0, 4)
    assert noiseless.abs_third_moment(2) == mixing.abs_moment(3)


@pytest.mark.parametrize("m, tau, scale, expected", [
    (0.3, 0.5, 1.0, 2.4724535863929553),
    (0.0, 0.5, 0.75 ** 0.5, 1.5957691216057304),
    (-2.0, 0.1, 0.0, 8.060000000000002),
    (0.0, 0.0, 2.0, 12.766152972845848),
])
def test_gaussian_mixed_third_moment_is_unchanged(m, tau, scale, expected):
    # the values the exact Gaussian route gave before the caps were added
    spec = ConditionallyIid(gaussian(m, tau), "gaussian_mean", scale, 3)
    assert spec.abs_third_moment(2) == expected


def test_mixed_third_moment_cap_stays_a_number_at_extremes():
    huge_noise = ConditionallyIid(Finite((0.0,), (1.0,)), "gaussian_mean", 1e200, 2)
    assert huge_noise.abs_third_moment(1) == math.inf  # s^2 overflows while E theta^2 = 0
    assert ConditionallyIid(student_t(3.5), "gaussian_mean", 1.0, 2).abs_third_moment(1) == (
        (student_t(3.5).abs_moment(3) ** (1 / 3) + gaussian().abs_moment(3) ** (1 / 3)) ** 3)
    assert ConditionallyIid(student_t(3.0), "gaussian_mean", 1.0, 2).abs_third_moment(1) == math.inf


def test_third_moment_bound_draws_nothing(monkeypatch):
    import inspect

    from lindeberg import swap

    def no_draws(*args, **kwargs):
        raise AssertionError("the third-moment cap must not sample")

    monkeypatch.setattr(swap, "sample_batch", no_draws)
    monkeypatch.setattr(ConditionallyIid, "sample", no_draws)
    spec = ConditionallyIid(uniform(-1.0, 1.0), "gaussian_mean", 0.5, 200)
    y = gaussian_comparison(200)
    expected = spec.abs_third_moment(1) + gaussian().abs_moment(3)
    assert third_moment_bound(spec, y) == expected
    assert list(inspect.signature(third_moment_bound).parameters) == ["x_spec", "y_spec"]


def test_swapping_bound_dominates_on_sample_cells():
    for spec_kind, n, f_kind in [
        ("iid-uniform", 5, "cos"),
        ("multiset-rademacher", 20, "inv_quad"),
        ("markov-two-state", 20, "logistic_step"),
    ]:
        report, = swapping_report(
            [suite_function(f_kind, n)], swapping_spec(spec_kind, n),
            gaussian_comparison(n), replicates=30_000, seeds=[1001])
        assert report.dominates()
        assert report.bound == pytest.approx(sum(report.components.values()), abs=1e-12)


def test_difference_shrinks_with_dimension():
    # smooth-cdf comparison of a skewed i.i.d. law against Gaussians: the
    # estimated gap must decay as the vector length grows
    skewed = Finite((-0.5, 2.0), (0.8, 0.2))
    medians = []
    for n in (10, 40, 160):
        f = sum_ridge(logistic_step_profile(), n)
        gaps = []
        for s in range(20):
            (est, _), = mean_difference([f], IidFromDistribution(skewed, n),
                                        IidFromDistribution(gaussian(), n),
                                        replicates=20_000, seed=9000 + s)
            gaps.append(abs(est))
        medians.append(float(np.median(gaps)))
    assert medians[0] > medians[1] > medians[2]


# ---------------------------------------------------------------------------
# Exact differences from the laws of the ridge argument
# ---------------------------------------------------------------------------

_DEFAULT_CELLS = [(s, n) for s in ("iid-uniform", "multiset-rademacher", "markov-two-state")
                  for n in (5, 20, 50)]
_FUNCTIONS = ("cos", "inv_quad", "logistic_step")


def _reports(spec_kind, n):
    """The default cell's reports by function; 2 replicates if one fell back to MC."""
    functions = [suite_function(k, n) for k in _FUNCTIONS]
    reports = swapping_report(functions, swapping_spec(spec_kind, n), gaussian_comparison(n),
                              2, [0, 1, 2])
    return dict(zip(_FUNCTIONS, reports))


_E_COS_Z = math.exp(-0.5)
_E_INV_QUAD_Z = math.sqrt(math.pi / 2.0) * math.exp(0.5) * math.erfc(1.0 / math.sqrt(2.0))


@pytest.mark.parametrize("n", [5, 20, 50])
def test_exact_differences_match_closed_forms(n):
    multiset = _reports("multiset-rademacher", n)
    assert multiset["cos"].estimate == pytest.approx(1.0 - _E_COS_Z, abs=1e-10)
    assert multiset["inv_quad"].estimate == pytest.approx(1.0 - _E_INV_QUAD_Z, abs=1e-10)
    assert multiset["logistic_step"].estimate == pytest.approx(0.0, abs=1e-10)
    iid = _reports("iid-uniform", n)
    a = math.sqrt(3.0) / math.sqrt(n)
    assert iid["cos"].estimate == pytest.approx((math.sin(a) / a) ** n - _E_COS_Z, abs=1e-10)
    assert iid["logistic_step"].estimate == pytest.approx(0.0, abs=1e-10)
    for report in (*multiset.values(), *iid.values()):
        assert report.kind == "exact" and report.replicates == 0


@pytest.mark.parametrize("spec_kind,n", _DEFAULT_CELLS)
def test_exact_default_cells_agree_with_monte_carlo(spec_kind, n):
    functions = [suite_function(k, n) for k in _FUNCTIONS]
    x, y = swapping_spec(spec_kind, n), gaussian_comparison(n)
    estimates = mean_difference(functions, x, y, replicates=100_000, seed=derive_child(n, 77))
    for (est, err), report in zip(estimates, _reports(spec_kind, n).values()):
        assert report.kind == "exact" and report.stderr <= 1e-9
        assert abs(est - report.estimate) <= 4.0 * err


def test_uniform_law_with_unequal_weights():
    # E cos(sum w_j U_j) = prod_j sin(h w_j) / (h w_j) for U_j uniform on [-h, h]
    weights = np.array([0.9, -0.4, 0.25, 0.6, 0.05, -0.3])
    f = RidgeFunction(cos_profile(), weights)
    x = IidFromDistribution(uniform(-1.5, 1.5), weights.size)
    y = IidFromDistribution(gaussian(), weights.size)
    report, = swapping_report([f], x, y, 2, [0])
    expected = np.prod(np.sinc(1.5 * weights / np.pi)) - math.exp(-0.5 * weights @ weights)
    assert report.kind == "exact"
    assert report.estimate == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("n", [20, 200, 2000])
def test_second_order_term_is_nearly_the_whole_bound(n):
    # X i.i.d. N(0, 1.2) against Y i.i.d. N(0, 1): A_i = 0 and B_i = 0.2 exactly, and
    # f = cos(0.1 sum(x) / sqrt(n)) has L2 = 0.01 / n, so the B term is 0.001
    # against |Ef(X) - Ef(Y)| = e^{-0.005} - e^{-0.006}.  The bound is 1.144, 1.049
    # and 1.019 times that at n = 20, 200, 2000, so a halved B term fails it.
    x = IidFromDistribution(gaussian(0.0, math.sqrt(1.2)), n)
    f = RidgeFunction(cos_profile(), np.full(n, 0.1 / math.sqrt(n)))
    report, = swapping_report([f], x, gaussian_comparison(n), 2, [0])
    assert report.kind == "exact"
    assert report.estimate == pytest.approx(math.exp(-0.006) - math.exp(-0.005), rel=1e-12)
    assert report.components["first_order"] == 0.0
    assert report.dominates()
    assert report.bound <= 1.15 * abs(report.estimate)


def test_uniform_law_too_narrow_for_the_rule_has_no_exact_route():
    # past three nonzero weights, pi * 1024 * w / R overflows for a width of
    # 2.6e-307, which warned of an overflow and gave nan frequencies; the
    # difference is sampled instead.  At n = 2 the product rule needs no frequency.
    narrow = uniform(0.0, 2.6258269130844917e-307)
    x = IidFromDistribution(narrow, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert x.ridge_law(np.full(4, 0.5)) is None
        report, = swapping_report([suite_function("cos", 4)], x, gaussian_comparison(4), 2, [0])
        assert IidFromDistribution(narrow, 2).ridge_law(np.full(2, math.sqrt(0.5))) is not None
    assert report.kind == "mc" and math.isfinite(report.estimate)


@pytest.mark.parametrize("weights", [[1.0], [0.0, -0.7, 0.0], [0.6, -0.8], [0.5, 0.0, -0.7, 0.4]],
                         ids=["n1", "one-nonzero", "two-nonzero", "three-nonzero"])
def test_uniform_law_with_one_nonzero_weight_is_exact(weights):
    # E cos(b + sum_j w_j U_j) = cos b prod_j sin(h w_j) / (h w_j) for U_j uniform
    # on [-h, h].  With one nonzero weight w.U + b is uniform on [b - r, b + r],
    # whose density jumps at the ends: E g = (G(b + r) - G(b - r)) / 2r for an
    # antiderivative G of g.  The offset b shifts the profile.
    w, b, h = np.asarray(weights), 0.3, math.sqrt(3.0)
    law = IidFromDistribution(uniform(-h, h), w.size).ridge_law(w)
    nonzero = w[w != 0.0]
    value, error = law.expect(lambda u: np.cos(u + b))
    assert value == pytest.approx(math.cos(b) * np.prod(np.sinc(h * nonzero / np.pi)), abs=1e-14)
    assert error <= 1e-14
    if nonzero.size == 1:
        r = h * np.abs(w).sum()
        value, error = law.expect(lambda u: 1.0 / (1.0 + (u + b) * (u + b)))
        assert value == pytest.approx((np.arctan(b + r) - np.arctan(b - r)) / (2.0 * r), abs=1e-14)
        assert error <= 1e-14


def test_uniform_cell_at_n2_is_exact():
    # thm11-check's iid-uniform law at n = 2: the density series stated an error
    # below its true one (inv_quad 6.13e-7 off against a stated 5.76e-7, and
    # logistic_step 2.47e-7 against a stated 1.16e-7, where it is 0 by symmetry)
    x = IidFromDistribution(uniform(-math.sqrt(3.0), math.sqrt(3.0)), 2)
    reports = swapping_report([suite_function(k, 2) for k in _FUNCTIONS], x,
                              gaussian_comparison(2), 2, [0, 1, 2])
    cos, inv_quad, logistic_step = reports
    assert all(report.kind == "exact" for report in reports)
    assert cos.estimate == pytest.approx(-0.016562083129335603, abs=1e-12)
    assert inv_quad.estimate == pytest.approx(-0.0139194399, abs=1e-9)
    assert abs(logistic_step.estimate) <= logistic_step.stderr


@pytest.mark.parametrize("states,initial,kernel", [
    ((-1.0, 2.0), (0.25, 0.75), ((0.7, 0.3), (0.4, 0.6))),
    ((-1.0, 0.5, 3.0), (0.2, 0.5, 0.3), ((0.6, 0.3, 0.1), (0.2, 0.2, 0.6), (0.5, 0.0, 0.5))),
])
def test_markov_ridge_law_matches_path_enumeration(states, initial, kernel):
    n, w, b = 6, 0.4, 0.3
    spec = MarkovChain(states, initial, kernel, n)
    expected = 0.0
    for path in itertools.product(range(len(states)), repeat=n):
        prob = initial[path[0]]
        for s, t in zip(path, path[1:]):
            prob *= kernel[s][t]
        expected += prob * math.cos(w * sum(states[s] for s in path) + b)
    value, error = spec.ridge_law(np.full(n, w)).expect(lambda u: np.cos(u + b))
    assert value == pytest.approx(expected, abs=1e-13) and error == 0.0
    assert spec.ridge_law(np.linspace(0.1, 0.6, n)) is None


@pytest.mark.parametrize("probs", [[0.6, 0.5], [1.0 + 1e-11, -1e-11], [1.0 - 2e-12, 0.0]],
                         ids=["mass-1.1", "negative", "mass-short"])
def test_ridge_law_atoms_must_be_a_probability_vector(probs):
    with pytest.raises(ValueError, match="sum to 1 within 1e-12"):
        RidgeLaw(np.array([0.0, 1.0]), np.asarray(probs))


def test_ridge_law_rule_weights_are_not_held_to_the_atoms_tolerance():
    # four uniform coordinates: the check rule's truncated density series carries
    # 4.5e-11 of extra mass, and the law is still built (the rules' gap states the error)
    law = IidFromDistribution(uniform(-1.0, 1.0), 4).ridge_law(np.full(4, 0.5))
    assert abs(law.check[1].sum() - 1.0) > 1e-12


def test_markov_ridge_law_of_a_kernel_that_loses_mass_is_refused():
    # the kernel's columns, which sum to 1.1 and 0.9, read as its rows, as a
    # transposed lookup in the count recursion would read them.  From a uniform
    # initial law such a kernel keeps the mass at 1, so this one is not uniform.
    leaky = MarkovChain((-1.0, 1.0), (0.25, 0.75), ((0.7, 0.3), (0.4, 0.6)), 5)
    assert leaky.ridge_law(np.full(5, 0.4)) is not None
    object.__setattr__(leaky, "kernel", ((0.7, 0.4), (0.3, 0.6)))  # past the row check
    with pytest.raises(ValueError, match="sum to 1 within 1e-12"):
        leaky.ridge_law(np.full(5, 0.4))


@pytest.mark.parametrize("x_spec", [
    IidFromDistribution(student_t(5.0), 4),
    ConditionallyIid(uniform(-1.0, 1.0), "gaussian_mean", 0.5, 4),
    IidFromDistribution(Finite((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)), 4),
    # w.X ~ N(0, (20 pi)^2): cos reads 1 at every node of the step-0.1 grid in z
    IidFromDistribution(gaussian(0.0, 20.0 * math.pi), 4),
], ids=["student_t", "uniform-mixing", "iid-finite", "aliased-gaussian"])
def test_specs_without_an_exact_route_keep_monte_carlo(x_spec):
    n = x_spec.n
    f = suite_function("cos", n)
    y = gaussian_comparison(n)
    report, = swapping_report([f], x_spec, y, 3_000, [5])
    assert report.kind == "mc" and report.replicates == 3_000
    assert [(report.estimate, report.stderr)] == mean_difference([f], x_spec, y, 3_000, 5)


# ---------------------------------------------------------------------------
# Monte Carlo functions of one (X, Y) pair share one draw
# ---------------------------------------------------------------------------

_T_SPEC = IidFromDistribution(student_t(5.0), 20)  # no exact law: every function is MC


def test_mean_difference_group_equals_one_function_calls():
    n = _T_SPEC.n
    functions = [suite_function(kind, n) for kind in _FUNCTIONS]
    y = gaussian_comparison(n)
    replicates = 2 * next(row_blocks(1 << 30, n)).stop + 9
    group = mean_difference(functions, _T_SPEC, y, replicates, seed=12)
    assert len(group) == len(functions)
    for f, estimate in zip(functions, group):
        assert mean_difference([f], _T_SPEC, y, replicates, seed=12) == [estimate]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_mean_difference_draws_each_input_once(monkeypatch, count):
    from lindeberg import swap

    drawn = []

    def counting_sample(spec, rng, rows):
        out = sample_batch(spec, rng, rows)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(swap, "sample_batch", counting_sample)
    n, replicates = _T_SPEC.n, 9_000
    functions = [suite_function(kind, n) for kind in _FUNCTIONS[:count]]
    mean_difference(functions, _T_SPEC, gaussian_comparison(n), replicates, seed=3)
    assert sum(drawn) == 2 * replicates * n  # X and Y, whatever the count


def test_mean_difference_memory_does_not_grow_with_replicates():
    n = 10
    f = OpaqueFunction(suite_function("cos", n))  # no exact law: the Monte Carlo path
    x_spec = IidFromDistribution(uniform(-math.sqrt(3.0), math.sqrt(3.0)), n)
    tracemalloc.start()
    try:
        mean_difference([f], x_spec, gaussian_comparison(n), 2_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20  # one float per replicate alone is 15 MiB


def test_swapping_report_samples_its_monte_carlo_functions_together():
    # Markov weights that differ have no exact law; the equal-weight sum has one
    n = 6
    chain = swapping_spec("markov-two-state", n)
    y = gaussian_comparison(n)
    ramp = RidgeFunction(cos_profile(), np.linspace(0.1, 0.6, n))
    step = RidgeFunction(logistic_step_profile(), np.linspace(0.6, 0.1, n))
    functions = [suite_function("cos", n), ramp, step]
    reports = swapping_report(functions, chain, y, 4_000, [21, 22, 23])
    assert [r.kind for r in reports] == ["exact", "mc", "mc"]
    sampled = mean_difference(functions[1:], chain, y, 4_000, seed=22)
    assert [(r.estimate, r.stderr) for r in reports[1:]] == sampled
