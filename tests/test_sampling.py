import copy
import itertools
import json
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spec_doc
from lindeberg.laws import Finite, gaussian, student_t, uniform
from lindeberg.mixture import ConditionallyIid
from lindeberg.sampling import (
    RunningMean,
    balanced_signs,
    derive_child,
    sample_batch,
    sample_exchangeable,
    spec_from_dict,
    standardized_multiset,
)
from lindeberg.specs import IidFromDistribution, MarkovChain, MultisetPermutation
from lindeberg.spectral import contaminated_wigner
from lindeberg.standardize import center_and_scale
from lindeberg.swap import bound_components, estimate_ab


def test_singleton_multiset_returns_its_value():
    assert sample_exchangeable(MultisetPermutation((5.0,)), seed=1234) == [5.0]


def test_point_mass_iid_is_constant():
    x = sample_exchangeable(IidFromDistribution(Finite((0.0,), (1.0,)), 4), seed=9)
    assert np.array_equal(x, np.zeros(4))


def test_permutation_frequencies_are_uniform():
    # oracle: enumerate the 6 orderings of {-1, 0, 1}; each has mass 1/6
    spec = MultisetPermutation((-1.0, 0.0, 1.0))
    orderings = {perm: 0 for perm in itertools.permutations((-1.0, 0.0, 1.0))}
    draws = 60_000
    batch = sample_batch(spec, seed=2024, replicates=draws)
    for row in batch:
        orderings[tuple(row)] += 1
    p = 1.0 / 6.0
    stderr = math.sqrt(p * (1 - p) / draws)
    for count in orderings.values():
        assert abs(count / draws - p) <= 3 * stderr


def test_same_seed_reproduces_bitwise():
    specs = [
        MultisetPermutation(tuple(np.linspace(-2, 2, 9))),
        IidFromDistribution(gaussian(), 6),
        MarkovChain((-1.0, 1.0), (0.5, 0.5), ((0.7, 0.3), (0.4, 0.6)), 8),
        ConditionallyIid(gaussian(0, 1), "gaussian_mean", 0.5, 5),
    ]
    for spec in specs:
        a = sample_batch(spec, seed=77, replicates=25)
        b = sample_batch(spec, seed=77, replicates=25)
        assert a.tobytes() == b.tobytes()


def test_child_seed_is_pure_function():
    assert derive_child(42, 7) == derive_child(42, 7)
    assert derive_child(42, 7) != derive_child(42, 8)
    assert derive_child(42, 7) != derive_child(43, 7)
    assert 0 <= derive_child(2**63, 2**40) < 2**64


def test_exchangeability_pairwise_moments():
    # standardized multiset: E x_i x_j = -1/(n-1) for every pair
    spec = standardized_multiset([-1.0, -1.0, 1.0, 1.0, 2.0])
    n = 5
    draws = 100_000
    batch = sample_batch(spec, seed=5150, replicates=draws)
    exact = -1.0 / (n - 1)
    for i, j in itertools.combinations(range(n), 2):
        prods = batch[:, i] * batch[:, j]
        stderr = prods.std(ddof=1) / math.sqrt(draws)
        assert abs(prods.mean() - exact) <= 4 * stderr


def test_conditionally_iid_is_exchangeable():
    spec = ConditionallyIid(Finite((-1.0, 2.0), (0.6, 0.4)), "gaussian_mean", 1.0, 4)
    batch = sample_batch(spec, seed=31, replicates=100_000)
    pair_means = []
    for i, j in itertools.combinations(range(4), 2):
        prods = batch[:, i] * batch[:, j]
        pair_means.append((prods.mean(), prods.std(ddof=1) / math.sqrt(len(prods))))
    center = np.mean([m for m, _ in pair_means])
    for m, se in pair_means:
        assert abs(m - center) <= 4 * se


class TestCenterAndScale:
    def test_basic_example(self):
        std = center_and_scale([1.0, 2.0, 3.0])
        assert std.mu_hat == 2.0
        assert std.sigma_hat == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
        assert std.x_tilde == pytest.approx(
            [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], abs=1e-15)

    def test_constant_vector_is_flagged(self):
        std = center_and_scale([0.1, 0.1, 0.1])
        assert std.sigma_hat == 0.0
        assert np.array_equal(std.x_tilde, np.zeros(3))

    def test_two_point(self):
        std = center_and_scale([-1.0, 1.0])
        assert std.mu_hat == 0.0
        assert std.sigma_hat == 1.0
        assert np.array_equal(std.x_tilde, [-1.0, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_sum_identities(self, values):
        std = center_and_scale(values)
        if std.sigma_hat == 0.0:
            return
        n = len(values)
        assert abs(std.x_tilde.sum()) <= 1e-12 * n
        assert abs(np.square(std.x_tilde).sum() - n) <= 1e-12 * n

    @pytest.mark.parametrize("kind", ["random", "huge-offset", "degenerate"])
    def test_bit_identical_to_the_two_pass_formula(self, kind):
        x = np.random.default_rng(4).standard_normal(10_001)
        if kind == "huge-offset":
            x += 1e12
        elif kind == "degenerate":
            x = np.full(101, 0.1)
        mu = float(x.mean())
        sigma = float(np.sqrt(np.mean(np.square(x - mu))))
        std = center_and_scale(x)
        assert std.mu_hat == mu
        if kind == "degenerate":
            assert std.sigma_hat == 0.0
            assert np.array_equal(std.x_tilde, np.zeros_like(x))
        else:
            assert std.sigma_hat == sigma > 0.0
            assert np.array_equal(std.x_tilde, (x - mu) / sigma)


    @pytest.mark.parametrize("values, expected", [
        *((np.arange(1.0, 11.0) * scale, (np.arange(1.0, 11.0) - 5.5) / math.sqrt(8.25))
          for scale in (1e-14, 1e-100, 1e300)),
        ([1e308, -1e308], [1.0, -1.0]),
        ([1e308, -1e308, 0.0], [math.sqrt(1.5), -math.sqrt(1.5), 0.0]),
    ], ids=["ramp-1e-14", "ramp-1e-100", "ramp-1e300", "sd-overflows", "sd-overflows-3"])
    def test_standardization_does_not_depend_on_scale(self, values, expected, recwarn):
        # the ramp 1..10 at 1e-14 and 1e-100 was called constant; at 1e300, as
        # in the sd-overflows cases, its squares overflowed
        std = center_and_scale(values)
        assert std.sigma_hat > 0.0
        assert np.max(np.abs(std.x_tilde - expected)) <= 1e-12
        assert not recwarn.list

    @pytest.mark.parametrize("values", [
        [1.7e308, 1.7e308], [1.0, math.nan], [math.inf, 0.0],
    ], ids=["mean-overflows", "nan", "inf"])
    def test_nonfinite_mean_or_sd_raises(self, values, recwarn):
        # an overflowing sd once standardized every value to 0 with no error
        with pytest.raises(ValueError, match="must be finite floats"):
            center_and_scale(values)
        assert not recwarn.list  # no overflow warning reaches the caller

    @pytest.mark.parametrize("kind", ["random", "degenerate"])
    def test_out_receives_the_same_bytes(self, kind):
        x = np.random.default_rng(5).standard_normal(1001) if kind == "random" else np.ones(9)
        out = np.full_like(x, np.nan)
        std = center_and_scale(x, out=out)
        reference = center_and_scale(x)
        assert std.x_tilde is out
        assert (std.mu_hat, std.sigma_hat) == (reference.mu_hat, reference.sigma_hat)
        assert out.tobytes() == reference.x_tilde.tobytes()


class TestRunningMean:
    @pytest.mark.parametrize("n", [2, 7, 10_001])
    def test_one_block_is_the_two_pass_formula(self, n):
        v = 3.0 * np.random.default_rng(n).standard_normal(n) + 1e3
        expected = (v.mean(), v.std(ddof=1) / math.sqrt(n))
        assert RunningMean().add(v.copy()).result() == expected

    def test_blocks_agree_with_one_block(self):
        rng = np.random.default_rng(11)
        v = 2.0 * rng.standard_normal(50_000) + 5.0
        whole = RunningMean().add(v.copy()).result()
        splits = [[1, 2], [49_999]] + [
            np.sort(rng.choice(np.arange(1, v.size), rng.integers(1, 40), replace=False))
            for _ in range(20)]
        for cuts in splits:
            mean = RunningMean()
            for block in np.split(v.copy(), cuts):
                mean.add(block)
            assert mean.count == v.size
            for got, want in zip(mean.result(), whole):
                assert abs(got - want) <= 1e-13 * abs(want)

    def test_zero_differences_give_exact_zeros(self):
        mean = RunningMean()
        for rows in (3, 1, 500):
            mean.add(np.zeros(rows))
        assert mean.result() == (0.0, 0.0)

    def _regression(self, y, controls):
        """(intercept, its residual stderr) of y on [1, controls] by lstsq: the
        fitted value at controls 0, and sqrt(RSS / (R - 1 - p) / R)."""
        design = np.column_stack([np.ones(y.size), *controls])
        coef, rss, _, _ = np.linalg.lstsq(design, y, rcond=None)
        return coef[0], math.sqrt(rss[0] / (y.size - design.shape[1]) / y.size)

    def test_controls_give_the_least_squares_intercept(self):
        rng = np.random.default_rng(3)
        c1 = rng.standard_normal(40_000)
        c2 = c1 * c1 - 1.0
        y = 2.0 + 3.0 * c1 - 0.5 * c2 + 0.1 * rng.standard_normal(c1.size)
        expected = self._regression(y, [c1, c2])
        for cuts in ([], [1, 7], [17_000, 39_990]):
            mean = RunningMean(2)
            for block in zip(*(np.split(v.copy(), cuts) for v in (y, c1, c2))):
                mean.add(*block)
            for got, want in zip(mean.result(), expected):
                assert got == pytest.approx(want, rel=1e-10)

    def test_a_constant_or_overflowing_control_is_no_control(self):
        v = np.random.default_rng(5).standard_normal(1_000)
        plain = RunningMean().add(v.copy()).result()
        assert RunningMean(1).add(v.copy(), np.full(v.size, 2.5)).result() == plain
        assert RunningMean(2).add(v.copy(), np.zeros(v.size), np.zeros(v.size)).result() == plain
        huge = np.where(np.arange(v.size) % 2 == 0, 1e200, -1e200)
        with np.errstate(over="ignore"):  # its squared deviations are inf
            assert RunningMean(1).add(v.copy(), huge).result() == plain

    def test_controls_keep_a_residual_degree_of_freedom(self):
        y, c1 = np.array([1.0, 4.0, 2.0]), np.array([-1.0, 1.0, 0.5])
        c2 = np.array([1.0, 0.0, -1.0])
        # three rows fit the intercept and the first control only
        got = RunningMean(2).add(y.copy(), c1.copy(), c2.copy()).result()
        assert got == pytest.approx(self._regression(y, [c1]), rel=1e-12)
        two = RunningMean(2).add(y[:2].copy(), c1[:2].copy(), c2[:2].copy()).result()
        assert two == RunningMean().add(y[:2].copy()).result()

    def test_the_column_count_is_checked(self):
        with pytest.raises(ValueError, match="give 2 control"):
            RunningMean(2).add(np.ones(3), np.ones(3))


def _filtered_compositions(counts, size):
    """The value-count compositions as the product of every count filtered by their sum."""
    return [(combo, math.prod(math.comb(c, k) for c, k in zip(counts, combo)))
            for combo in itertools.product(*(range(min(c, size) + 1) for c in counts))
            if sum(combo) == size]


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=5), data=st.data())
def test_prefix_law_emits_the_filtered_product_in_its_order(counts, data):
    size = data.draw(st.integers(-1, sum(counts) + 1))
    values = np.repeat(np.arange(len(counts), dtype=float), counts)
    data.draw(st.randoms()).shuffle(values)
    _, law_counts, compositions, sets = MultisetPermutation(values).prefix_law(size)
    got = list(compositions)
    assert law_counts == counts
    assert got == _filtered_compositions(counts, size)
    assert sum(weight for _, weight in got) == (math.comb(sum(counts), size) if size >= 0 else 0)
    assert sets == sum(weight for _, weight in got)


def test_prefix_laws_asked_in_any_order_keep_their_exact_weights():
    # each call reuses the binomials the last one kept; any order of sizes must
    # still give the exact products of math.comb, and C(n, size) with them
    counts = [3, 1, 4, 2]
    values = np.repeat(np.arange(len(counts), dtype=float), counts)
    spec = MultisetPermutation(values)
    for size in [0, 1, 2, 3, 9, 4, 5, 5, 10, 2, 7, 6, 8, 1]:
        _, _, compositions, sets = spec.prefix_law(size)
        assert list(compositions) == _filtered_compositions(counts, size)
        assert sets == math.comb(spec.n, size)
    for i in range(spec.n, 0, -1):
        fresh = MultisetPermutation(values).ab_exact(0.1, 1.3, i)
        assert spec.ab_exact(0.1, 1.3, i) == fresh


def test_value_types_survive_copies_and_pickles():
    # immutable value types are rebuilt through their constructors
    chain = MarkovChain((0.0, 1.0), (0.5, 0.5), ((0.9, 0.1), (0.2, 0.8)), 4)
    chain.ab_exact(0.5, 0.5, 3)  # fills the cached step laws, which copies drop
    values = [gaussian(), uniform(-1.0, 1.0), student_t(5.0), Finite((0.0, 2.0), (0.25, 0.75)), chain,
              IidFromDistribution(uniform(-1.0, 1.0), 3),
              ConditionallyIid(gaussian(0.0, 0.5), "gaussian_mean", 0.75 ** 0.5, 2)]
    for value in values:
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    restored = pickle.loads(pickle.dumps(chain))
    assert restored.ab_exact(0.5, 0.5, 3) == chain.ab_exact(0.5, 0.5, 3)


def test_prefix_law_of_a_long_multiset_emits_only_its_compositions():
    # 5999 ones and one 2: two compositions for each size, of 2 * 6000 candidates
    spec = MultisetPermutation([1.0] * 5999 + [2.0])
    _, _, compositions, _ = spec.prefix_law(3000)
    assert [combo for combo, _ in compositions] == [(2999, 1), (3000, 0)]


class TestStandardizedMultiset:
    def test_values_are_a_read_only_copy(self):
        values = np.arange(1.0, 8.0)
        spec = standardized_multiset(values)
        assert not np.shares_memory(spec.values, values)
        kept = spec.values.copy()
        values[:] = 0.0
        assert np.array_equal(spec.values, kept)
        assert not spec.values.flags.writeable
        with pytest.raises(ValueError):
            spec.values[0] = 1.0

    def test_build_holds_one_temporary(self):
        values = np.arange(1.0, 1e6 + 1.0)
        tracemalloc.start()
        try:
            spec = standardized_multiset(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.n == values.size
        assert peak < 1.5 * values.nbytes  # the standardized array and a bool mask


def test_invalid_kernel_rows_raise():
    with pytest.raises(ValueError, match="summing to 1"):
        MarkovChain((0.0, 1.0), (0.5, 0.5), ((0.6, 0.5), (0.5, 0.5)), 3)


def test_multiset_keeps_only_an_owned_read_only_array():
    owned = np.arange(4.0)
    owned.setflags(write=False)
    assert MultisetPermutation(owned).values is owned
    writeable, view = np.arange(4.0), np.arange(8.0)[::2]
    view.setflags(write=False)
    for values in (writeable, view, [0.0, 1.0, 2.0, 3.0]):
        spec = MultisetPermutation(values)
        assert not np.shares_memory(spec.values, np.asarray(values))
        assert not spec.values.flags.writeable


def test_empty_multiset_raises():
    with pytest.raises(ValueError):
        MultisetPermutation(())


def test_spec_json_round_trip():
    specs = [
        MultisetPermutation((-1.5, 0.0, 2.25)),
        IidFromDistribution(uniform(-2.0, 3.0), 7),
        MarkovChain((-1.0, 1.0), (0.25, 0.75), ((0.9, 0.1), (0.2, 0.8)), 6),
        ConditionallyIid(gaussian(0.5, 2.0), "gaussian_mean", 1.0, 3),
    ]
    for spec in specs:
        assert spec_from_dict(json.loads(json.dumps(spec_doc(spec)))) == spec


@pytest.mark.parametrize("law, doc", [
    (gaussian(0.0, 0.5), {"kind": "gaussian", "params": [0.0, 0.5]}),
    (uniform(-2.0, 3.0), {"kind": "uniform", "params": [-2.0, 3.0]}),
    (student_t(5.0), {"kind": "student_t", "params": [5.0]}),
    (Finite((-0.5, 2.0), (0.8, 0.2)), {"kind": "finite", "values": [-0.5, 2.0],
                                        "probs": [0.8, 0.2]}),
], ids=["gaussian", "uniform", "student_t", "finite"])
def test_law_json_form(law, doc):
    # the document form of --spec-json files, the benchmark's mixing law among them
    assert law.to_dict() == doc
    iid = {"variant": "iid", "dist": doc, "n": 6}
    mixed = {"variant": "conditionally_iid", "mixing": doc, "conditional": "gaussian_mean",
             "scale": 0.75 ** 0.5, "n": 2}
    assert spec_from_dict(iid).dist == law
    for document in (iid, mixed):
        assert spec_doc(spec_from_dict(json.loads(json.dumps(document)))) == document


@pytest.mark.parametrize("spec, n", [
    (MultisetPermutation([-1.5, 0.0, 2.25, 0.0]), 4),
    (IidFromDistribution(uniform(-2.0, 3.0), 7), 7),
    (MarkovChain((-1.0, 1.0), (0.25, 0.75), ((0.9, 0.1), (0.2, 0.8)), 6), 6),
    (ConditionallyIid(gaussian(0.5, 2.0), "gaussian_mean", 1.0, 3), 3),
], ids=lambda v: getattr(v, "variant", str(v)))
def test_spec_variant(spec, n):
    assert spec_from_dict(spec_doc(spec)) == spec
    assert spec.n == n
    if isinstance(spec, MultisetPermutation):
        assert isinstance(spec.values, np.ndarray) and spec.values.dtype == np.float64
        assert not spec.values.flags.writeable
        with pytest.raises(ValueError):
            spec.values[0] = 1.0


def test_multiset_values_are_copied_not_frozen_in_place():
    values = np.array([1.0, 2.0, 3.0])
    spec = MultisetPermutation(values)
    values[0] = 9.0
    assert spec.values[0] == 1.0 and values.flags.writeable


def test_student_t_divergent_moments_are_infinite():
    assert student_t(2.0).second_moment() == math.inf
    assert student_t(2.5).abs_moment(3) == math.inf
    assert math.isfinite(student_t(2.5).abs_moment(2))


def _gaussian_abs_third_by_quadrature(mu, sigma):
    from scipy.integrate import quad

    dens = lambda x: abs(x) ** 3 * math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (
        sigma * math.sqrt(2.0 * math.pi))
    # split at the kink of |x|^3 so each piece is smooth
    return sum(quad(dens, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in ((-math.inf, 0.0), (0.0, math.inf)))


@pytest.mark.parametrize("mu", [-2.5, -0.3, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0])
def test_gaussian_abs_third_moment_off_centre(mu, sigma):
    expected = _gaussian_abs_third_by_quadrature(mu, sigma)
    assert gaussian(mu, sigma).abs_moment(3) == pytest.approx(expected, rel=1e-12)


def test_gaussian_abs_third_moment_degenerate():
    assert gaussian(-1.5, 0.0).abs_moment(3) == 1.5 ** 3


def test_distribution_moments_against_sampling():
    rng = np.random.default_rng(3)
    for dist in (gaussian(0, 2.0), uniform(-1.0, 3.0), Finite((-2.0, 1.0), (0.25, 0.75))):
        draws = dist.sample(rng, 200_000)
        assert dist.mean() == pytest.approx(draws.mean(), abs=5e-2)
        assert dist.second_moment() == pytest.approx(np.square(draws).mean(), rel=2e-2)
        m3 = dist.abs_moment(3)
        assert m3 == pytest.approx(np.abs(draws**3).mean(), rel=3e-2)
    # the standard Gaussian absolute third moment in closed form
    assert gaussian().abs_moment(3) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-15)


@pytest.mark.parametrize("low,high", [(-math.sqrt(3.0), math.sqrt(3.0)), (-0.5, 2.0)])
def test_uniform_cf_matches_sample_mean(low, high):
    law = uniform(low, high)
    draws = law.sample(np.random.default_rng(17), 200_000)
    for t in (0.3, 1.0, 2.5, 7.0):
        phases = np.exp(1j * t * draws)
        cf = complex(law.cf(t))
        for part in (np.real, np.imag):
            stderr = part(phases).std(ddof=1) / math.sqrt(draws.size)
            assert abs(part(cf) - part(phases).mean()) <= 4.0 * stderr + 1e-15


# Few runs of equal values (runs^2 <= n) are stored as runs, the rest as an array.
_FEW_RUNS = (-1.0,) * 4 + (2.0,) * 3 + (5.0,) * 2
_SIGNED_ZERO_RUNS = (-0.0,) * 3 + (0.0,) * 3 + (1.0,) * 3


def test_multiset_sample_is_the_permuted_tile():
    # Either storage form draws the bits the permuted tile of the values gives.
    for values in [(3.0, -1.0, -1.0, 0.5, 2.0, 0.0, -3.5), _FEW_RUNS, _SIGNED_ZERO_RUNS,
                   contaminated_wigner(14).entries.values]:
        spec = MultisetPermutation(values)
        for rows in (1, 500):
            reference = np.random.default_rng(41).permuted(
                np.tile(np.asarray(values, dtype=float), (rows, 1)), axis=1).view(np.int64)
            assert np.array_equal(spec.sample(np.random.default_rng(41), rows).view(np.int64),
                                  reference)
            assert np.array_equal(sample_batch(spec, 41, rows).view(np.int64), reference)


@pytest.mark.parametrize("values", [_FEW_RUNS, _SIGNED_ZERO_RUNS], ids=["few-runs", "signed-zero"])
def test_run_stored_multiset_values(values):
    spec = MultisetPermutation(values)
    expected = np.asarray(values, dtype=float)
    assert spec.values.dtype == np.float64 and not spec.values.flags.writeable
    assert np.array_equal(spec.values.view(np.int64), expected.view(np.int64))
    assert spec.n == len(values)
    assert spec_doc(spec) == {"variant": "multiset", "values": list(values)}
    assert spec_from_dict(spec_doc(spec)) == spec
    assert hash(spec) == hash(expected.tobytes())
    assert spec != MultisetPermutation(values[::-1])
    with pytest.raises(ValueError):
        spec.values[0] = 1.0


def test_few_run_multiset_keeps_only_its_runs():
    tracemalloc.start()
    try:
        spec = standardized_multiset(balanced_signs(10**6))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spec.n == 10**6
    assert kept < 10**6  # the array would be 8 MB


_SPECS = {
    "multiset": MultisetPermutation(tuple(np.linspace(-2.0, 2.0, 9))),
    "gaussian": IidFromDistribution(gaussian(0.5, 2.0), 6),
    "uniform": IidFromDistribution(uniform(-1.0, 3.0), 6),
    "student_t": IidFromDistribution(student_t(5.0), 6),
    "finite": IidFromDistribution(Finite((-2.0, 1.0), (0.25, 0.75)), 6),
    "markov": MarkovChain((-1.0, 0.5, 2.0), (0.2, 0.3, 0.5),
                          ((0.6, 0.3, 0.1), (0.2, 0.2, 0.6), (0.5, 0.0, 0.5)), 6),
}


@pytest.mark.parametrize("spec", _SPECS.values(), ids=_SPECS.keys())
def test_row_blocks_from_one_generator_concatenate_to_one_batch(spec):
    rng = np.random.default_rng(7)
    blocks = [sample_batch(spec, rng, rows) for rows in (1, 5, 17, 977)]
    assert np.array_equal(np.concatenate(blocks), sample_batch(spec, 7, 1000))


@pytest.mark.parametrize("spec", [
    *_SPECS.values(),
    ConditionallyIid(Finite((-1.0, 2.0), (0.6, 0.4)), "gaussian_mean", 1.0, 6),
], ids=[*_SPECS.keys(), "mixture-mean"])
def test_out_receives_the_same_draws(spec):
    out = np.full((50, spec.n), np.nan)
    drawn = sample_batch(spec, 12, 50, out=out)
    assert drawn is out
    assert drawn.tobytes() == sample_batch(spec, 12, 50).tobytes()
    row = np.full(spec.n, np.nan)
    assert sample_exchangeable(spec, 3, out=row).base is row
    assert row.tobytes() == sample_exchangeable(spec, 3).tobytes()


@pytest.mark.parametrize("law", [gaussian(0.5, 2.0), gaussian(-3.0, 0.0), uniform(-1.0, 3.0),
                                 uniform(1e6, 1e6 + 1e-9)], ids=repr)
def test_law_draws_are_numpys_bit_for_bit(law):
    size = (40, 7)
    method = {"gaussian": "normal", "uniform": "uniform"}[law.kind]
    expected = getattr(np.random.default_rng(3), method)(*law.to_dict()["params"], size)
    assert law.sample(np.random.default_rng(3), size).tobytes() == expected.tobytes()
    out = np.full(size, np.nan)
    assert law.sample(np.random.default_rng(3), size, out) is out
    assert out.tobytes() == expected.tobytes()


def test_uniform_width_past_the_largest_float_is_rejected():
    with pytest.raises(ValueError, match="high - low < inf"):
        uniform(-1e308, 1e308)


def test_mixture_draws_are_theta_plus_scaled_noise():
    spec = ConditionallyIid(uniform(-1.0, 2.0), "gaussian_mean", 1.5, 6)
    rng = np.random.default_rng(4)
    theta = rng.uniform(-1.0, 2.0, 30)
    expected = theta[:, None] + 1.5 * rng.standard_normal((30, 6))
    assert sample_batch(spec, 4, 30).tobytes() == expected.tobytes()


def _exact_abs_moment(low, high, p):
    """E|X|^p for X uniform on [low, high] with both bounds of one sign, in rationals."""
    a, b = sorted((abs(Fraction(low)), abs(Fraction(high))))
    return (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))


@pytest.mark.parametrize("low,high", [(1e6, 1e6 + 1e-9), (1e4, 1e4 + 1e-11),
                                      (-1e6 - 1e-9, -1e6), (2.0, 5.0)])
@pytest.mark.parametrize("p", [3, 4])
def test_uniform_abs_moment_of_a_narrow_one_signed_interval(low, high, p):
    exact = _exact_abs_moment(low, high, p)
    assert abs(Fraction(uniform(low, high).abs_moment(p)) - exact) <= 1e-12 * exact


def test_uniform_mean_of_huge_bounds_is_finite():
    law = uniform(1e308, 1.7e308)
    assert law.mean() == pytest.approx(1.35e308, rel=1e-15)
    # a linear f has L2 = L3 = 0, so A_1 alone sets the bound
    ab = estimate_ab(IidFromDistribution(law, 1), 0.0, 1.0, 1)
    assert ab.a == law.mean()
    bound = sum(bound_components([ab.a], [ab.b], law.abs_moment(3), 1.0, 0.0, 0.0).values())
    assert bound == pytest.approx(1.35e308, rel=1e-15)


@pytest.mark.parametrize("values", [
    [1e200 * (k - 10) for k in range(20)],  # stored as an array
    [1e200] * 8 + [-1e200] * 8,  # stored as runs
    [1.4e154, 1.4e154, 0.0],
], ids=["array", "runs", "two-squares"])
def test_multiset_whose_squares_overflow_is_rejected(values):
    with pytest.raises(ValueError, match="the sum of their squares overflows a float"):
        MultisetPermutation(values)


def test_multiset_of_huge_values_has_moments_without_warning(recwarn):
    spec = MultisetPermutation([1e150 * (k - 10) for k in range(20)])
    assert spec.abs_third_moment(1) == math.inf  # the cubes overflow
    exact = spec.ab_exact(0.0, 1.0, 1)
    assert math.isfinite(exact.a) and math.isfinite(exact.b)
    cap = spec.ab_cap(0.0, 1.0, 5)  # the squares of the squares' deviations overflow
    assert math.isfinite(cap.a) and not math.isnan(cap.b) and cap.b >= exact.b
    assert not recwarn.list


def test_finite_law_moments_overflow_to_inf_without_warning(recwarn):
    law = Finite((1e200, -1e200), (0.5, 0.5))
    assert law.second_moment() == law.abs_moment(3) == math.inf
    # an atom of probability 0 adds nothing, even where its power overflows
    held = Finite((1e200, 2.0), (0.0, 1.0))
    assert (held.second_moment(), held.abs_moment(3)) == (4.0, 8.0)
    assert not recwarn.list


@pytest.mark.parametrize("tau, scale, a, b", [
    (1e154, 0.0, 1e154 * math.sqrt(2.0 / math.pi), 1e308),  # tau^4 overflows, tau^2 does not
    (1e200, 1.0, 1e200 * math.sqrt(2.0 / math.pi), math.inf),  # tau^2 overflows
    (1.0, 1e200, 0.0, math.inf),  # scale^2 overflows: the data carry no weight
])
def test_gaussian_mixed_ab_where_powers_overflow(tau, scale, a, b, recwarn):
    est = ConditionallyIid(gaussian(0.0, tau), "gaussian_mean", scale, 3).ab_exact(0.0, 1.0, 2)
    assert est.exact
    assert (est.a, est.b) == pytest.approx((a, b), rel=1e-12)
    assert not recwarn.list


def test_markov_moments_overflow_to_inf_without_warning(recwarn):
    chain = MarkovChain((1e300, -1e300), (0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), 3)
    assert [(est.a, est.b) for est in (chain.ab_exact(0.0, 1.0, i) for i in (1, 2, 3))] == [
        (0.0, math.inf), (1e300, math.inf), (1e300, math.inf)]
    assert chain.abs_third_moment(2) == math.inf
    # a state of probability 0 adds nothing, even where its power overflows
    held = MarkovChain((1e300, 2.0), (0.0, 1.0), ((0.5, 0.5), (0.0, 1.0)), 3)
    assert [(est.a, est.b) for est in (held.ab_exact(0.0, 1.0, i) for i in (1, 2, 3))] == [
        (2.0, 3.0)] * 3
    assert held.abs_third_moment(3) == 8.0
    assert not recwarn.list


def test_cosine_series_matches_the_table_of_cosines():
    from lindeberg.laws import _cosine_series, _symmetric_grid

    # the coefficients of an equal-weight uniform law at n = 5, and a rougher set
    for coefs in (np.sinc(np.arange(1, 1025) / 5.0) ** 5,
                  np.random.default_rng(3).standard_normal(64)):
        x = _symmetric_grid(1.0 / 400.0, 1.0)
        table = np.cos(np.pi * np.outer(x, np.arange(1, coefs.size + 1))) @ coefs
        scale = np.abs(coefs).sum()
        assert np.max(np.abs(_cosine_series(x, coefs) - table)) <= 1e-13 * scale
