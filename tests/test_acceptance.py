"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (bypassing pytest capture, so the lines
always appear in the run log) and enforces the stated runtime limits.
"""

import math
import time

import numpy as np
import pytest

from lindeberg import cli
from lindeberg.exchangeable import (
    build_g_transform,
    conditional_mean_identity_check,
    covariance_gap_sum,
    covariance_gap_sum_exact,
    end_to_end_check,
    harmonic_gap_closed_form,
    interpolation_difference,
    martingale_increment_check,
    prefix_walks,
    second_moment_identity_check,
    stein_exact_check,
    stein_mc_check,
)
from lindeberg.functions import (
    QuadraticMean,
    cos_profile,
    inv_quad_profile,
    sum_ridge,
    tanh_clamp_profile,
)
from lindeberg.resolvent import (
    composed_partials,
    fd_agreement_check,
    lemma41_constants,
    trace_bound_check,
    triu_pairs,
)
from lindeberg.sampling import derive_child, rng_from, standardized_multiset
from lindeberg.spectral import (ENSEMBLES, rank_inequality_check, thm13_experiment,
                                upper_triangle_size)
from lindeberg.swap import swapping_report
from lindeberg.suites import (
    IDENTITY_N_VALUES,
    LIMITS,
    RESOLVENT_N_VALUES,
    RESOLVENT_TRIALS,
    RESOLVENT_TUPLES,
    RESOLVENT_Z,
    SUITE_FUNCTION_KINDS,
    SUMMARIZATION_FUNCTION_KINDS,
    SUMMARIZATION_N_VALUES,
    SUMMARIZATION_REPLICATES,
    SWAPPING_N_VALUES,
    SWAPPING_REPLICATES,
    SWAPPING_SPEC_KINDS,
    SWEEP_N_VALUES,
    SWEEP_SEEDS,
    Z_GRID,
    gaussian_comparison,
    ramp_multiset,
    stein_covariances,
    suite_function,
    summarization_function,
    swapping_spec,
)

MASTER_SEED = 20_240_817


def enumeration_specs(n):
    return (standardized_multiset(np.arange(1.0, n + 1.0)),
            standardized_multiset([-1.0] * (n // 2) + [1.0] * (n - n // 2)))


def test_criterion_01_exact_identities_by_enumeration(criterion_report):
    start = time.perf_counter()
    worst = 0.0
    for n in IDENTITY_N_VALUES:
        for spec in enumeration_specs(n):
            for walk in prefix_walks(spec):
                worst = max(worst, conditional_mean_identity_check(walk))
                worst = max(worst, martingale_increment_check(walk))
                checks = second_moment_identity_check(walk)
                worst = max(worst, abs(checks.mean_square_lhs - checks.mean_square_rhs))
    elapsed = time.perf_counter() - start
    criterion_report(1, "exact-identities-by-enumeration",
           worst <= LIMITS["identity"] and elapsed < 10.0, elapsed, f"max dev {worst:.2e}")


def test_criterion_02_moment_inequality_suite(criterion_report):
    start = time.perf_counter()
    slack = math.inf
    for n in IDENTITY_N_VALUES:
        for spec in enumeration_specs(n):
            for walk in prefix_walks(spec):
                c = second_moment_identity_check(walk)
                slack = min(slack,
                            c.variance_rhs - c.variance_lhs,
                            c.deviation_rhs - c.deviation_lhs,
                            c.third_moment_rhs - c.third_moment_lhs)
    elapsed = time.perf_counter() - start
    criterion_report(2, "conditional-moment-inequalities", slack >= -LIMITS["identity"], elapsed,
           f"min slack {slack:.2e}")


def test_criterion_03_triangular_transform_inverse(criterion_report):
    start = time.perf_counter()
    worst = 0.0
    factor_exact = True
    for n in (1, 2, 3, 10, 100, 1000):
        gt = build_g_transform(n)
        worst = max(worst, float(np.max(np.abs(gt.matrix @ gt.inverse - np.eye(n)))))
        if n >= 2:
            factor_exact &= gt.col_abs_sum_max == 2.0
    elapsed = time.perf_counter() - start
    criterion_report(3, "triangular-transform-inverse", worst <= 1e-10 and factor_exact,
           elapsed, f"max inverse error {worst:.2e}")


def test_criterion_04_covariance_gap_closed_form(criterion_report):
    start = time.perf_counter()
    rational_ok = all(covariance_gap_sum_exact(n) == harmonic_gap_closed_form(n)
                      for n in range(2, 51))
    float_ok = all(abs(covariance_gap_sum(n) - float(harmonic_gap_closed_form(n)))
                   <= LIMITS["covariance_gap_closed_form"] for n in range(2, 51))
    value_ok = covariance_gap_sum(3) == pytest.approx(4.0, abs=1e-12)
    crude_ok = True
    total = 3.0
    for n in range(2, 10_001):
        if n > 2:
            total += 2.0 / (n - 1)
        crude_ok &= total <= LIMITS["covariance_gap_over_sqrt_n"] * math.sqrt(n) + 1e-12
    elapsed = time.perf_counter() - start
    criterion_report(4, "covariance-gap-closed-form",
           rational_ok and float_ok and value_ok and crude_ok, elapsed)


def test_criterion_05_gaussian_integration_by_parts(criterion_report):
    start = time.perf_counter()
    rng = rng_from(derive_child(MASTER_SEED, 5))
    worst_exact = max(stein_exact_check(cov) for cov in stein_covariances(rng))
    h = sum_ridge(cos_profile(), 5)
    m = rng.standard_normal((5, 5))
    dev, allowed = stein_mc_check(h, m @ m.T / 5.0, replicates=200_000,
                                  seed=derive_child(MASTER_SEED, 51))
    elapsed = time.perf_counter() - start
    criterion_report(5, "gaussian-integration-by-parts",
           worst_exact <= LIMITS["stein"] and dev <= allowed and elapsed < 30.0, elapsed,
           f"poly dev {worst_exact:.1e}, mc dev {dev:.1e} <= {allowed:.1e}")


def test_criterion_06_swapping_bound_domination(criterion_report):
    start = time.perf_counter()
    failures = []
    idx = 0
    for spec_kind in SWAPPING_SPEC_KINDS:
        for n in SWAPPING_N_VALUES:
            for f_kind in SUITE_FUNCTION_KINDS:
                rep, = swapping_report(
                    [suite_function(f_kind, n)], swapping_spec(spec_kind, n),
                    gaussian_comparison(n), replicates=SWAPPING_REPLICATES,
                    seeds=[derive_child(MASTER_SEED, 600 + idx)])
                idx += 1
                if not rep.dominates():
                    failures.append((spec_kind, n, f_kind))
    elapsed = time.perf_counter() - start
    criterion_report(6, "swapping-bound-domination",
           not failures and elapsed < 300.0, elapsed,
           f"27 cells, failures: {failures or 'none'}")


def test_criterion_07_summarization_bound_domination(criterion_report):
    start = time.perf_counter()
    failures = []
    for n in SUMMARIZATION_N_VALUES:
        functions = [summarization_function(f_kind, n)
                     for f_kind in SUMMARIZATION_FUNCTION_KINDS]
        reports = end_to_end_check(ramp_multiset(n), functions,
                                   replicates=SUMMARIZATION_REPLICATES,
                                   seed=derive_child(MASTER_SEED, 700 + n))
        for f_kind, rep in zip(SUMMARIZATION_FUNCTION_KINDS, reports):
            if not rep.dominates():
                failures.append((n, f_kind))
    elapsed = time.perf_counter() - start
    criterion_report(7, "summarization-bound-domination", not failures, elapsed,
           f"failures: {failures or 'none'}")


def test_criterion_08_interpolation_consistency(criterion_report):
    start = time.perf_counter()
    ok = True
    details = []
    for f0, n in ((sum_ridge(cos_profile(), 6), 6),
                  (sum_ridge(inv_quad_profile(), 4), 4)):
        res = interpolation_difference(f0, n, replicates=80_000,
                                       seed=derive_child(MASTER_SEED, 80 + n))
        ok &= res.consistent()
        ok &= abs(res.direct) <= res.bound + 4 * res.direct_stderr
        ok &= abs(res.integral) <= res.bound + 4 * res.integral_stderr
    quad_res = interpolation_difference(QuadraticMean(3), 3, replicates=120_000,
                                        seed=derive_child(MASTER_SEED, 83))
    gap = abs(quad_res.direct - (-5.0 / 6.0))
    ok &= gap <= 4 * quad_res.direct_stderr
    ok &= quad_res.consistent()
    details.append(f"quadratic case dev {gap:.1e}")
    elapsed = time.perf_counter() - start
    criterion_report(8, "interpolation-consistency", ok, elapsed, "; ".join(details))


def test_criterion_09_resolvent_derivative_formulas(criterion_report):
    start = time.perf_counter()
    rng = rng_from(derive_child(MASTER_SEED, 9))
    agreement = fd_agreement_check(RESOLVENT_N_VALUES, RESOLVENT_TUPLES, RESOLVENT_Z, rng)
    worst_ratio = 0.0
    for _ in range(RESOLVENT_TRIALS):
        N = int(rng.choice(RESOLVENT_N_VALUES))
        x = rng.uniform(-2.0, 2.0, upper_triangle_size(N))
        r = trace_bound_check(x, N, RESOLVENT_Z, rng)
        worst_ratio = max(worst_ratio, r.order1, r.order2, r.order3)
    elapsed = time.perf_counter() - start
    ok = (max(agreement.order1, agreement.order2, agreement.order3)
          <= LIMITS["finite_difference"]
          and worst_ratio <= LIMITS["trace_ratio"] and elapsed < 60.0)
    criterion_report(9, "resolvent-derivative-formulas", ok, elapsed,
           f"fd rel {agreement.order3:.1e}, ratio {worst_ratio:.3f}")


def test_criterion_10_composed_derivative_bounds(criterion_report):
    start = time.perf_counter()
    rng = rng_from(derive_child(MASTER_SEED, 10))
    g = tanh_clamp_profile()
    ok = True
    for N in (4, 8, 16):
        c = lemma41_constants(g.b1, g.b2, g.b3, 1.0, N)
        pairs = triu_pairs(N)
        worst2 = worst3 = 0.0
        for _ in range(12):
            x = rng.uniform(-2.0, 2.0, len(pairs))
            picks = [pairs[int(rng.integers(len(pairs)))] for _ in range(3)]
            worst2 = max(worst2, abs(composed_partials(g, x, N, 1j, *picks[:2])))
            worst3 = max(worst3, abs(composed_partials(g, x, N, 1j, *picks)))
        ok &= worst2 <= c.l2p_bound and worst3 <= c.l3p_bound
    elapsed = time.perf_counter() - start
    criterion_report(10, "composed-derivative-bounds", ok, elapsed)


def test_criterion_11_rank_inequality(criterion_report):
    start = time.perf_counter()
    rng = rng_from(derive_child(MASTER_SEED, 11))
    ok = True
    count = 0
    for N in (20, 100):
        for k in (1, 2, 5):
            for _ in range(17):
                m = rng.standard_normal((N, N))
                a = (m + m.T) / 2.0
                update = np.zeros_like(a)
                for _ in range(k):
                    u = rng.standard_normal(N)
                    update += rng.uniform(0.5, 2.0) * np.outer(u, u)
                check = rank_inequality_check(a, a + update)
                ok &= check.ok and check.rank == k
                count += 1
    equality = rank_inequality_check(np.eye(10), np.zeros((10, 10)))
    ok &= equality.ks == 1.0 and equality.bound == 1.0 and equality.ok
    elapsed = time.perf_counter() - start
    criterion_report(11, "esd-rank-inequality", ok and count >= 100, elapsed,
           f"{count} perturbations")


@pytest.fixture(scope="module")
def sweep_rows():
    rows = {}
    for ensemble in ("rademacher-perm", "gaussian"):
        for N in SWEEP_N_VALUES:
            seeds = [derive_child(MASTER_SEED, N * 1000 + s + (ensemble == "gaussian") * 7)
                     for s in range(SWEEP_SEEDS)]
            rows[ensemble, N] = thm13_experiment(ENSEMBLES[ensemble](N), Z_GRID, seeds)
    return rows


def test_criterion_12_semicircle_ks_convergence(sweep_rows, criterion_report):
    start = time.perf_counter()
    medians = [float(np.median([r.ks for r in sweep_rows["rademacher-perm", N]]))
               for N in SWEEP_N_VALUES]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    exch_ok = medians[-1] <= LIMITS["ks_rademacher_perm_N400"]
    gauss_median = float(np.median([r.ks for r in sweep_rows["gaussian", 400]]))
    elapsed = time.perf_counter() - start
    ok = (decreasing and exch_ok and gauss_median <= LIMITS["ks_gaussian_N400"]
          and elapsed < 600.0)
    criterion_report(12, "semicircle-ks-convergence", ok, elapsed,
           "medians " + ", ".join(f"{m:.4f}" for m in medians)
           + f"; gaussian@400 {gauss_median:.4f}")


def test_criterion_13_stieltjes_convergence_proxy(sweep_rows, criterion_report):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for ensemble in ("rademacher-perm", "gaussian"):
        rows = sweep_rows[ensemble, 400]
        for k in range(len(Z_GRID)):
            med = float(np.median([abs(r.stieltjes_gaps[k]) for r in rows]))
            worst = max(worst, med)
            ok &= med <= LIMITS["stieltjes_gap_N400"]
    elapsed = time.perf_counter() - start
    criterion_report(13, "stieltjes-convergence-proxy", ok, elapsed,
           f"worst median gap {worst:.4f}")


def test_criterion_14_deterministic_reruns(tmp_path, criterion_report):
    start = time.perf_counter()
    runs = {
        "thm11-check": ["thm11-check", "--n", "20", "--replicates", "20000",
                        "--seed", "3"],
        "thm12-check": ["thm12-check", "--n", "10", "--replicates", "20000",
                        "--seed", "3"],
        "wigner-sweep": ["wigner-sweep", "--N", "50,100", "--seeds", "5",
                         "--seed", "3"],
    }
    ok = True
    for command, args in runs.items():
        stem = command.replace("-", "_")
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{stem}_{tag}"
            assert cli.main(args + ["--out", str(out)]) == 0
            outs.append((out / f"{stem}.csv").read_bytes())
        ok &= outs[0] == outs[1]
    elapsed = time.perf_counter() - start
    criterion_report(14, "deterministic-reruns", ok, elapsed)
