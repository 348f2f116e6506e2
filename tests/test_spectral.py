import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from lindeberg import spectral
from lindeberg.laws import Finite
from lindeberg.resolvent import ResolventWorkspace
from lindeberg.sampling import sample_exchangeable
from lindeberg.specs import IidFromDistribution, MultisetPermutation
from lindeberg.spectral import (
    _TILE,
    ENSEMBLES,
    WignerEnsembleSpec,
    _require_symmetric,
    _two_stage_driver,
    _two_stage_eigvalsh,
    contaminated_wigner,
    eigenvalues,
    gaussian_wigner,
    ks_distance,
    rademacher_perm_wigner,
    rank_inequality_check,
    semicircle_cdf,
    semicircle_density,
    semicircle_stieltjes,
    stieltjes_esd,
    student_t_perm_wigner,
    thm13_experiment,
    upper_triangle_size,
    wigner_matrix,
)
from lindeberg.standardize import center_and_scale


def draw_wigner(spec, seed):
    """One matrix of the ensemble and its raw entries' sample statistics."""
    x = sample_exchangeable(spec.entries, seed)
    return wigner_matrix(x, spec.N), center_and_scale(x)


class TestWignerConstruction:
    def test_order_one(self):
        spec = WignerEnsembleSpec(1, MultisetPermutation((4.0,)))
        a, std = draw_wigner(spec, seed=0)
        assert np.array_equal(a, [[4.0]])
        assert std.mu_hat == 4.0 and std.sigma_hat == 0.0

    def test_order_two_entry_map(self):
        a = wigner_matrix([1.0, 2.0, 3.0], 2)
        root2 = math.sqrt(2.0)
        assert np.allclose(a, np.array([[1.0, 2.0], [2.0, 3.0]]) / root2, atol=1e-15)

    @pytest.mark.parametrize("N", [1, 2, 3, 65, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    def test_matches_the_triangle_index_construction(self, N):
        x = np.random.default_rng(N).standard_normal(upper_triangle_size(N))
        expected = np.zeros((N, N))
        iu = np.triu_indices(N)
        expected[iu] = x / math.sqrt(N)
        expected.T[iu] = expected[iu]
        assert np.array_equal(wigner_matrix(x, N), expected)

    @pytest.mark.parametrize("N", [1, 2, 3, _TILE - 1, _TILE, _TILE + 1])
    def test_entries_may_alias_the_tail_of_the_buffer(self, N):
        # the layout of thm13_experiment: x in the second half of N(N+1) doubles
        n = upper_triangle_size(N)
        x = np.random.default_rng(N).standard_normal(n)
        buffer = np.empty(2 * n)
        buffer[n:] = x
        a = wigner_matrix(buffer[n:], N, out=buffer[:N * N].reshape(N, N))
        assert np.shares_memory(a, buffer)
        assert a.tobytes() == wigner_matrix(x, N).tobytes()

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            wigner_matrix([1.0, 2.0], 2)

    def test_standardized_entries_have_unit_stats(self):
        spec = rademacher_perm_wigner(20)
        a, std = draw_wigner(spec, seed=5)
        assert abs(std.mu_hat) <= 1e-12
        assert std.sigma_hat == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(a, a.T)

    def test_ensemble_registry(self):
        for name, builder in ENSEMBLES.items():
            spec = builder(6)
            assert spec.label == name
            assert upper_triangle_size(6) == 21
            draw_wigner(spec, seed=1)

    def test_frozen_heavy_tail_multiset(self):
        assert student_t_perm_wigner(8).entries == student_t_perm_wigner(8).entries
        m4 = np.mean(np.square(np.square(contaminated_wigner(14).entries.values)))
        assert m4 > 2.0  # outliers inflate the standardized fourth moment
        assert np.mean(np.square(np.square(
            rademacher_perm_wigner(14).entries.values))) == pytest.approx(1.0, abs=1e-2)


class TestEigenvalues:
    def test_diagonal(self):
        assert np.array_equal(eigenvalues(np.diag([1.0, 2.0, 3.0])),
                              [1.0, 2.0, 3.0])

    def test_two_by_two_exchange(self):
        assert eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([-1.0, 1.0])

    def test_frobenius_identity_random(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((50, 50))
        a = (m + m.T) / 2.0
        eigs = eigenvalues(a)
        # oracle: sum of squared eigenvalues equals the squared Frobenius norm
        assert np.square(eigs).sum() == pytest.approx(np.square(a).sum(), rel=1e-10)
        assert abs(eigs.sum() - np.trace(a)) <= 1e-8 * 50 ** 1.5 * np.abs(a).max()
        assert isinstance(eigs, np.ndarray) and eigs.dtype == np.float64

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        for solve in (eigenvalues, lambda m: ResolventWorkspace(m, 1j),
                      lambda m: rank_inequality_check(m, np.eye(3))):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
                solve(a)

    def test_ascending_order(self):
        assert np.array_equal(eigenvalues(np.diag([3.0, -1.0, 2.0])),
                              [-1.0, 2.0, 3.0])
        m = np.random.default_rng(11).standard_normal((40, 40))
        assert np.all(np.diff(eigenvalues(m + m.T)) >= 0)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 30))
        a = (m + m.T) / 2.0
        base = eigenvalues(a)
        scaled = eigenvalues(2.5 * a)
        assert np.max(np.abs(scaled - 2.5 * base)) <= 1e-8


def _two_stage_solve():
    driver = _two_stage_driver()
    if driver is None:
        pytest.skip("numpy's OpenBLAS is not bindable here")
    return driver[0]


def _random_symmetric(N, seed):
    m = np.random.default_rng(seed).standard_normal((N, N))
    return (m + m.T) / 2.0


class TestTwoStageSolver:
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 300])
    def test_agrees_with_eigvalsh(self, N):
        a = _random_symmetric(N, N)
        reference = np.linalg.eigvalsh(a)
        eigs = _two_stage_eigvalsh(a, _two_stage_solve())
        tol = 10 * N * np.finfo(float).eps * np.max(np.abs(reference))
        assert np.all(np.diff(eigs) >= 0)
        assert np.max(np.abs(eigs - reference)) <= tol

    def test_diagonal_is_exact(self):
        d = np.array([3.0, -1.0, 2.0, 0.5, -7.25])
        assert np.array_equal(_two_stage_eigvalsh(np.diag(d), _two_stage_solve()), np.sort(d))

    def test_reads_the_lower_triangle_of_any_layout(self):
        # the same triangle as eigvalsh, whatever the input's memory order
        a = _random_symmetric(40, 1)
        a[np.triu_indices(40, 1)] += 1e-13
        solve = _two_stage_solve()
        lower = _two_stage_eigvalsh(np.tril(a) + np.tril(a, -1).T, solve)
        assert np.array_equal(_two_stage_eigvalsh(a, solve), lower)
        assert np.array_equal(_two_stage_eigvalsh(np.asfortranarray(a), solve), lower)

    def test_input_is_left_alone(self):
        a = _random_symmetric(30, 2)
        before = a.copy()
        _two_stage_eigvalsh(a, _two_stage_solve())
        assert np.array_equal(a, before)

    def test_overwrite_solves_in_place_only_in_c_order(self):
        solve = _two_stage_solve()
        a = _random_symmetric(40, 6)
        expected = _two_stage_eigvalsh(a, solve).tobytes()
        fortran = np.asfortranarray(a)
        assert _two_stage_eigvalsh(fortran, solve, overwrite_a=True).tobytes() == expected
        assert np.array_equal(fortran, a)
        c_order = a.copy()
        assert _two_stage_eigvalsh(c_order, solve, overwrite_a=True).tobytes() == expected
        assert not np.array_equal(c_order, a)  # LAPACK's reduction overwrote it

    def test_nonzero_info_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
            _two_stage_eigvalsh(np.eye(3), lambda *args: 3)


class TestSolverChoice:
    """``eigenvalues`` takes the two-stage route only at one BLAS thread and
    order at least ``_TWO_STAGE_MIN_ORDER``; otherwise ``eigvalsh``'s bytes."""

    def _never(self, *args):
        raise AssertionError("two-stage driver called")

    def test_one_thread_takes_the_two_stage_route(self, monkeypatch):
        solve = _two_stage_solve()
        monkeypatch.setattr(spectral, "_two_stage_driver", lambda: (solve, lambda: 1))
        monkeypatch.setattr(spectral, "_TWO_STAGE_MIN_ORDER", 1)
        a = _random_symmetric(50, 3)
        assert eigenvalues(a).tobytes() == _two_stage_eigvalsh(a, solve).tobytes()

    @pytest.mark.parametrize("driver", ["unbound", "two-threads", "small-order"])
    def test_fallback_returns_eigvalsh_bytes(self, monkeypatch, driver):
        monkeypatch.setattr(spectral, "_two_stage_driver", {
            "unbound": lambda: None,
            "two-threads": lambda: (self._never, lambda: 2),
            "small-order": lambda: (self._never, lambda: 1),
        }[driver])
        if driver != "small-order":
            monkeypatch.setattr(spectral, "_TWO_STAGE_MIN_ORDER", 1)
        a = _random_symmetric(50, 4)
        assert eigenvalues(a).tobytes() == np.linalg.eigvalsh(a).tobytes()

    @pytest.mark.parametrize("route", ["two-stage", "eigvalsh"])
    def test_matrix_is_left_alone_unless_overwrite_is_allowed(self, monkeypatch, route):
        solve = _two_stage_solve()
        threads = 1 if route == "two-stage" else 2
        monkeypatch.setattr(spectral, "_two_stage_driver", lambda: (solve, lambda: threads))
        monkeypatch.setattr(spectral, "_TWO_STAGE_MIN_ORDER", 1)
        a = _random_symmetric(60, 5)
        before = a.copy()
        eigs = eigenvalues(a)
        assert np.array_equal(a, before)
        assert eigenvalues(a, overwrite_a=True).tobytes() == eigs.tobytes()
        # eigvalsh always solves a copy
        assert np.array_equal(a, before) == (route == "eigvalsh")

    def test_empty_matrix(self, monkeypatch):
        monkeypatch.setattr(spectral, "_TWO_STAGE_MIN_ORDER", 0)
        for driver in (None, (_two_stage_solve(), lambda: 1)):
            monkeypatch.setattr(spectral, "_two_stage_driver", lambda: driver)
            assert eigenvalues(np.empty((0, 0))).shape == (0,)

    @pytest.mark.parametrize("route", ["two-stage", "eigvalsh"])
    @pytest.mark.parametrize("identity", ["trace", "frobenius"])
    def test_spectrum_missing_its_trace_identities_raises(self, monkeypatch, route, identity):
        # shifted, the spectrum misses tr(A); reflected and stretched by 1%, it
        # misses only the Frobenius identity, since tr(A) = 0
        a = _random_symmetric(50, 7)
        a[np.diag_indices(50)] -= np.trace(a) / 50
        wrong = (lambda eigs: eigs + 1e-6) if identity == "trace" else (lambda eigs: -1.01 * eigs)
        if route == "two-stage":
            solve = _two_stage_solve()
            monkeypatch.setattr(spectral, "_two_stage_driver", lambda: (solve, lambda: 1))
            monkeypatch.setattr(spectral, "_TWO_STAGE_MIN_ORDER", 1)
            right = spectral._two_stage_eigvalsh
            monkeypatch.setattr(spectral, "_two_stage_eigvalsh",
                                lambda *args: wrong(right(*args)))
        else:
            monkeypatch.setattr(spectral, "_two_stage_driver", lambda: None)
            right = np.linalg.eigvalsh
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: wrong(right(m)))
        with pytest.raises(np.linalg.LinAlgError, match="violated its trace identities"):
            eigenvalues(a)

    def test_binding_reads_the_blas_thread_count(self):
        # a fresh interpreter per setting: OpenBLAS reads it when it loads
        root = Path(__file__).resolve().parent.parent
        script = ("from lindeberg.spectral import _two_stage_driver as d; "
                  "print(d() and d()[1]())")
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr[-2000:]
            if result.stdout.strip() == "None":
                pytest.skip("numpy's OpenBLAS is not bindable here")
            assert result.stdout.strip() == threads


class TestStieltjes:
    def test_single_eigenvalue(self):
        assert stieltjes_esd([1.0], 1j) == pytest.approx(0.5 + 0.5j)

    def test_identity_matrix_form(self):
        z = 0.3 + 0.7j
        assert stieltjes_esd(np.ones(6), z) == pytest.approx(1.0 / (1.0 - z))

    def test_symmetric_pair_is_purely_imaginary(self):
        assert stieltjes_esd([-1.0, 1.0], 1j) == pytest.approx(0.5j)

    def test_sign_and_magnitude_invariants(self):
        rng = np.random.default_rng(4)
        eigs = rng.uniform(-3, 3, 40)
        for z in (1j, -2j, 0.5 + 0.25j, -1.0 - 0.5j):
            m = stieltjes_esd(eigs, z)
            assert m.imag * z.imag > 0
            assert abs(m) <= 1.0 / abs(z.imag) + 1e-15

    def test_real_z_rejected(self):
        with pytest.raises(ValueError):
            stieltjes_esd([0.0], 1.0)


class TestSemicircle:
    def test_density_at_zero(self):
        assert semicircle_density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_cdf_anchors(self):
        assert semicircle_cdf(-2.0) == 0.0
        assert semicircle_cdf(0.0) == 0.5
        assert semicircle_cdf(2.0) == 1.0
        assert semicircle_cdf(-5.0) == 0.0 and semicircle_cdf(7.0) == 1.0

    def test_cdf_matches_integrated_density(self):
        xs = np.linspace(-2.0, 2.0, 1000)
        worst = max(abs(semicircle_cdf(x) - quad(semicircle_density, -2, x)[0])
                    for x in xs)
        assert worst <= 1e-8

    def test_transform_at_i_is_golden_ratio(self):
        m = semicircle_stieltjes(1j)
        assert m == pytest.approx(1j * (math.sqrt(5.0) - 1.0) / 2.0, abs=1e-14)
        assert m.imag == 0.6180339887498948  # (sqrt 5 - 1) / 2, correctly rounded

    def test_transform_matches_quadrature(self):
        # oracle: numerical integration of density(x)/(x - z)
        for z in (1j, 2j, 1 + 1j, -0.5 - 0.8j):
            re = quad(lambda x: semicircle_density(x) * (x - z.real)
                      / ((x - z.real) ** 2 + z.imag ** 2), -2, 2)[0]
            im = quad(lambda x: semicircle_density(x) * z.imag
                      / ((x - z.real) ** 2 + z.imag ** 2), -2, 2)[0]
            assert semicircle_stieltjes(z) == pytest.approx(re + 1j * im, abs=1e-9)


def _brute_force_ks(eigs, other):
    """max |F - G| over every point of either spectrum, from the left and from
    the right, by counting; ``other`` is a second spectrum or a continuous cdf."""
    eigs = list(eigs)
    n = len(eigs)
    points = eigs + ([] if callable(other) else list(other))
    worst = 0.0
    for p in points:
        f_right = sum(e <= p for e in eigs) / n
        f_left = sum(e < p for e in eigs) / n
        if callable(other):
            g_right = g_left = float(other(p))
        else:
            g_right = sum(e <= p for e in other) / len(other)
            g_left = sum(e < p for e in other) / len(other)
        worst = max(worst, abs(f_right - g_right), abs(f_left - g_left))
    return worst


class TestKsDistance:
    def test_identical_lists(self):
        assert ks_distance([0.1, 0.7, 0.7, 2.0], [0.1, 0.7, 0.7, 2.0]) == 0.0

    def test_disjoint_point_masses(self):
        assert ks_distance(np.ones(10), np.zeros(10)) == 1.0

    def test_step_values_with_multiplicity(self):
        # the ESD of [0, 0, 1] is 2/3 at 0 and 0 just left of it
        ties = [0.0, 0.0, 1.0]
        assert ks_distance(ties, [0.0]) == pytest.approx(1.0 / 3.0)
        assert ks_distance(ties, [1.0]) == pytest.approx(2.0 / 3.0)
        assert ks_distance(ties, [0.0, 1.0, 1.0]) == pytest.approx(1.0 / 3.0)
        assert ks_distance([1.0, 0.0, 0.0], ties) == 0.0
        # against G(x) = x on [0, 1]: 2/3 - G(0) at the tie, G(1) - 2/3 at 1
        assert ks_distance(ties, lambda x: np.clip(x, 0.0, 1.0)) == pytest.approx(2.0 / 3.0)
        assert ks_distance(ties, lambda x: np.full_like(x, 0.9)) == pytest.approx(0.9)

    @pytest.mark.parametrize("seed", range(20))
    def test_both_forms_match_a_brute_force_count(self, seed):
        rng = np.random.default_rng(seed)
        # unsorted, with ties within and across the two lists
        eigs = np.round(rng.uniform(-2.5, 2.5, rng.integers(1, 30)), 1)
        other = np.round(rng.uniform(-2.5, 2.5, rng.integers(1, 30)), 1)
        assert ks_distance(eigs, other) == pytest.approx(_brute_force_ks(eigs, other), abs=1e-15)
        assert ks_distance(eigs, semicircle_cdf) == pytest.approx(
            _brute_force_ks(eigs, semicircle_cdf), abs=1e-15)

    @pytest.mark.parametrize("other", [[1.0], semicircle_cdf])
    def test_empty_spectrum_rejected(self, other):
        with pytest.raises(ValueError, match="need at least one eigenvalue"):
            ks_distance([], other)
        if not callable(other):
            with pytest.raises(ValueError, match="need at least one eigenvalue"):
                ks_distance(other, [])

    def test_two_point_spectrum_against_semicircle(self):
        # oracle: sup over the two jumps; at -1 the step is 1/2 against
        # cdf(-1) = 1/2 - (sqrt(3)/(4 pi) + 1/6), giving sqrt(3)/(4 pi) + 1/6;
        # confirmed by numerical integration of the density
        expected = math.sqrt(3.0) / (4.0 * math.pi) + 1.0 / 6.0
        integral = quad(semicircle_density, -2, -1)[0]
        assert 0.5 - integral == pytest.approx(expected, abs=1e-10)
        ks = ks_distance([-1.0, 1.0], semicircle_cdf)
        assert ks == pytest.approx(expected, abs=1e-12)
        assert ks == pytest.approx(0.3044988905221147, abs=1e-12)

    def test_step_vs_step_matches_dense_grid(self):
        rng = np.random.default_rng(31)
        f = np.sort(rng.standard_normal(13))
        g = np.sort(rng.standard_normal(29))
        grid = np.linspace(-4, 4, 20_001)
        grid_sup = np.max(np.abs(np.searchsorted(f, grid, side="right") / f.size
                                 - np.searchsorted(g, grid, side="right") / g.size))
        exact = ks_distance(f, g)
        assert exact >= grid_sup - 1e-12
        assert exact <= grid_sup + 1.0 / 13.0  # grid can miss a jump by one step

    def test_bounded_by_one(self):
        rng = np.random.default_rng(8)
        assert 0.0 <= ks_distance(rng.standard_normal(17), semicircle_cdf) <= 1.0


class TestRankInequality:
    def test_equal_matrices(self):
        a = np.diag([1.0, 2.0, 3.0])
        check = rank_inequality_check(a, a)
        assert check.ks == 0.0 and check.rank == 0 and check.ok

    def test_identity_versus_zero(self):
        check = rank_inequality_check(np.eye(10), np.zeros((10, 10)))
        assert check.ks == 1.0 and check.bound == 1.0 and check.ok

    def test_rank_one_perturbation(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((10, 10))
        a = (m + m.T) / 2.0
        b = a.copy()
        b[0, 0] += 5.0
        check = rank_inequality_check(a, b)
        assert check.rank == 1
        assert check.ks <= 0.1 + 1e-12
        assert check.ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rank_inequality_check(np.eye(3), np.eye(4))

    def test_random_low_rank_perturbations(self):
        rng = np.random.default_rng(77)
        for k in (1, 2, 5):
            m = rng.standard_normal((20, 20))
            a = (m + m.T) / 2.0
            update = np.zeros_like(a)
            for _ in range(k):
                u = rng.standard_normal(20)
                update += np.outer(u, u) * rng.uniform(0.5, 2.0)
            check = rank_inequality_check(a, a + update)
            assert check.rank == k
            assert check.ok


class TestSymmetryCheck:
    N = 2 * _TILE + 5  # the last tile row and column are partial

    def symmetric(self):
        m = np.random.default_rng(12).standard_normal((self.N, self.N))
        return m + m.T

    def test_exactly_symmetric_accepted(self):
        _require_symmetric(self.symmetric(), "asymmetric")

    @pytest.mark.parametrize("i,j", [(0, N - 1), (N - 2, N - 1), (N - 1, 1)],
                             ids=["corner", "last-block", "last-and-first-block"])
    def test_one_perturbed_pair_rejected(self, i, j):
        a = self.symmetric()
        a[i, j] += 1e-9
        with pytest.raises(ValueError, match="asymmetric"):
            _require_symmetric(a, "asymmetric")

    def test_gap_within_tolerance_accepted(self):
        a = self.symmetric()
        a[0, self.N - 1] += 5e-13
        _require_symmetric(a, "asymmetric")

    def test_nan_rejected(self):
        a = self.symmetric()
        a[self.N - 1, self.N - 1] = math.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            _require_symmetric(a, "asymmetric")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            _require_symmetric(np.zeros((3, 4)), "asymmetric")

    @pytest.mark.parametrize("N", [0, 1, 2, _TILE, N])
    def test_returns_the_largest_magnitude(self, N):
        a = np.random.default_rng(N).standard_normal((N, N))
        a = a + a.T
        if N:
            a[N - 1, 0] = a[0, N - 1] = -9.5  # in the last tile of the first tile row
        assert _require_symmetric(a, "asymmetric") == np.abs(a).max(initial=0.0)

    @staticmethod
    def _edge_positions(N):
        """(i, j) pairs at the corners and the edges of tiles, all i > j: in the
        lower triangle, which the tile walk reaches only through the mirror."""
        cuts = sorted({0, N - 1, *(k for t in range(_TILE, N, _TILE) for k in (t - 1, t))})
        return [(i, j) for i in cuts for j in cuts if i > j]

    @pytest.mark.parametrize("N, fault", [
        (N, fault) for N in (1, _TILE - 1, _TILE, _TILE + 1)
        for fault in ("asymmetry", "nan", "inf", "inf-pair")
        if N > 1 or fault != "asymmetry"])  # an order-1 matrix has no pair to break
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_fault_at_a_tile_edge_rejected(self, N, fault, side):
        base = np.random.default_rng(N).standard_normal((N, N))
        base = base + base.T
        positions = [(i, j) if side == "lower" else (j, i) for i, j in self._edge_positions(N)]
        if fault != "asymmetry":
            positions.append((N - 1, N - 1))  # a diagonal entry faces itself
        for i, j in positions:
            a = base.copy()
            if fault == "asymmetry":
                a[i, j] += 1e-9
            elif fault == "inf-pair":
                a[i, j] = a[j, i] = math.inf
            else:
                a[i, j] = {"nan": math.nan, "inf": math.inf}[fault]
            # an inf facing a finite entry is an asymmetry, one facing an inf is not
            expected = ("asymmetric" if fault == "asymmetry" or (fault == "inf" and i != j)
                        else "infs or NaNs")
            with pytest.raises(ValueError, match=expected):
                _require_symmetric(a, "asymmetric")


def _row_bytes(row):
    """Everything an ExperimentRow reports, with its floats as bytes."""
    numbers = [row.mu_hat, row.sigma_hat, row.m4_tilde, row.ks]
    for gap in row.stieltjes_gaps:
        numbers += [gap.real, gap.imag]
    return row.N, row.seed, row.ensemble, np.array(numbers).tobytes()


def _reference_row_bytes(spec, z_grid, seed):
    """``_row_bytes(thm13_experiment(spec, z_grid, seed))`` built from the public
    pieces, each step on arrays of its own."""
    x = sample_exchangeable(spec.entries, seed)
    std = center_and_scale(x)
    m4 = float(np.mean(np.square(np.square(std.x_tilde))))
    eigs = eigenvalues(wigner_matrix(x, spec.N) / std.sigma_hat)
    ks = ks_distance(eigs, semicircle_cdf)
    numbers = [std.mu_hat, std.sigma_hat, m4, ks]
    for z in z_grid:
        gap = stieltjes_esd(eigs, z) - semicircle_stieltjes(z)
        numbers += [gap.real, gap.imag]
    return spec.N, seed, spec.label, np.array(numbers).tobytes()


# A fresh interpreter at one BLAS thread, where N >= 1200 is solved in place
# by the two-stage driver.
_IN_PLACE_IDENTITY_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from test_spectral import _reference_row_bytes, _row_bytes
from lindeberg.spectral import _two_stage_driver, rademacher_perm_wigner, thm13_experiment

driver = _two_stage_driver()
if driver is None or driver[1]() != 1:
    print("unbound")
else:
    spec = rademacher_perm_wigner(1200)
    grid = [1j, 2j, 1 + 1j]
    row = _row_bytes(thm13_experiment(spec, grid, 4))
    print(row == _reference_row_bytes(spec, grid, 4))
"""


class TestConvergenceExperiment:
    @pytest.mark.parametrize("N", [2, 3, _TILE - 1, _TILE, _TILE + 1])
    @pytest.mark.parametrize("ensemble", list(ENSEMBLES))
    def test_bytes_equal_the_public_pieces(self, ensemble, N):
        spec = ENSEMBLES[ensemble](N)
        grid = [1j, 2j, 1 + 1j]
        assert (_row_bytes(thm13_experiment(spec, grid, seed=N))
                == _reference_row_bytes(spec, grid, seed=N))

    def test_bytes_equal_the_public_pieces_when_solved_in_place(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", _IN_PLACE_IDENTITY_SCRIPT, str(root / "tests")],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        if result.stdout.strip() == "unbound":
            pytest.skip("numpy's OpenBLAS is not bindable here")
        assert result.stdout.strip() == "True"

    def test_row_contents(self):
        row = thm13_experiment(rademacher_perm_wigner(30), [1j, 2j], seed=3)
        assert row.N == 30 and row.ensemble == "rademacher-perm"
        assert row.sigma_hat == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= row.ks <= 1.0
        assert len(row.stieltjes_gaps) == 2

    def test_esd_transform_matches_resolvent_trace(self):
        spec = gaussian_wigner(25)
        a, std = draw_wigner(spec, seed=9)
        scaled = a / std.sigma_hat
        eigs = eigenvalues(scaled)
        for z in (1j, 1 + 1j):
            via_eigs = stieltjes_esd(eigs, z)
            via_trace = ResolventWorkspace(scaled, z).trace_mean()
            assert via_eigs == pytest.approx(via_trace, abs=1e-8)

    def test_fourth_moment_matches_the_power(self):
        spec = student_t_perm_wigner(40)
        row = thm13_experiment(spec, [1j], seed=6)
        x_tilde = center_and_scale(sample_exchangeable(spec.entries, 6)).x_tilde
        reference = float(np.mean(np.power(x_tilde, 4)))
        assert abs(row.m4_tilde - reference) <= 4 * np.spacing(reference)

    def test_degenerate_entries_rejected(self):
        n = upper_triangle_size(4)
        spec = WignerEnsembleSpec(4, IidFromDistribution(Finite((1.0,), (1.0,)), n))
        with pytest.raises(ValueError, match="degenerate"):
            thm13_experiment(spec, [1j], seed=0)

    def test_order_one_sanity(self):
        spec = WignerEnsembleSpec(1, MultisetPermutation((-1.0,)))
        with pytest.raises(ValueError):
            thm13_experiment(spec, [1j], seed=0)  # single value has sigma 0

    def test_gaussian_baseline_ks_shrinks(self):
        ks = {}
        for N in (20, 80):
            rows = [thm13_experiment(gaussian_wigner(N), [1j], seed=s) for s in range(8)]
            ks[N] = float(np.median([r.ks for r in rows]))
        assert ks[80] < ks[20]

    # The live set is the N(N+1)-double buffer: every ensemble's entries are
    # drawn straight into it.  The spec, and with it the multiset, is built
    # before tracing starts.  Measured (numpy 2.4, N = 1000): 1.19 and 1.09 x
    # 8N^2 bytes; the margins are 0.11 x 8N^2 = 0.9 MB and 0.8 MB, under the
    # 0.5 x 8N^2 of a copied-in draw of the n = N(N+1)/2 entries.
    @pytest.mark.parametrize("ensemble, bound", [("rademacher-perm", 1.3), ("gaussian", 1.2)],
                             ids=["rademacher-perm", "gaussian"])
    def test_peak_memory_is_one_buffer(self, ensemble, bound):
        N = 1000
        spec = ENSEMBLES[ensemble](N)
        tracemalloc.start()
        try:
            thm13_experiment(spec, [1j], seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * N * N

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_rss_of_two_seeds_near_the_live_set(self):
        # tracemalloc sees neither LAPACK's workspace nor freed heap that stays
        # resident, so the process's own resident high-water mark is read.  At
        # one BLAS thread N = 2000 is solved in place, so the live set is
        # 1.0 x 8N^2 bytes: the buffer of N(N+1) doubles, as the spec keeps its
        # two-valued multiset as two runs.  Measured: 1.34 (the rest is
        # LAPACK's workspace and OpenBLAS's buffers); the margin is
        # 0.16 x 8N^2 = 5.1 MB, well under the 0.5 x 8N^2 that a retained
        # multiset would add.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", _RSS_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        assert float(result.stdout.split()[-1]) < 1.5


# VmHWM, not ru_maxrss: the latter keeps the launching process's high-water
# mark across exec.
_RSS_SCRIPT = """
from lindeberg.spectral import rademacher_perm_wigner, thm13_experiment

def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM"))

N = 2000
base = high_water()
spec = rademacher_perm_wigner(N)
for seed in (1, 2):
    thm13_experiment(spec, [1j], seed)
print((high_water() - base) / (8 * N * N))
"""
