import importlib
import math
import types
from itertools import permutations, product

import numpy as np
import pytest

from lindeberg.exchangeable import thm12_terms
from lindeberg.functions import finite_difference, tanh_clamp_profile
from lindeberg.resolvent import (
    ResolventWorkspace,
    _checked_pair,
    composed_partials,
    fd_agreement_check,
    flat_index,
    h_value_hp,
    lemma41_constants,
    resolvent_partials,
    trace_bound_check,
    trace_bounds,
    triu_pairs,
)
from lindeberg.spectral import upper_triangle_size, wigner_matrix


def perturbation_matrix(alpha, N: int) -> np.ndarray:
    """dA/dx_alpha: at most two entries of size N^{-1/2}, one on the diagonal;
    the dense reference for the entry-level traces."""
    i, j = _checked_pair(alpha, N)
    d = np.zeros((N, N))
    d[i, j] = d[j, i] = 1.0 / math.sqrt(N)
    return d


def residual(ws: ResolventWorkspace) -> float:
    """max |(G (A - zI) - I)_ij| of a workspace, relative to 1/|Im z|."""
    n = ws.matrix.shape[0]
    r = ws.G @ (ws.matrix - ws.z * np.eye(n)) - np.eye(n)
    return float(np.max(np.abs(r))) * abs(ws.z.imag)


def _random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


class TestResolventWorkspace:
    def test_scalar_case(self):
        g = ResolventWorkspace(np.array([[0.0]]), 1j).G
        assert g[0, 0] == pytest.approx(1j)

    def test_identity_matrix(self):
        g = ResolventWorkspace(np.eye(3), 2j).G
        assert np.allclose(g, np.eye(3) / (1.0 - 2j))

    def test_residual_small(self):
        rng = np.random.default_rng(1)
        ws = ResolventWorkspace(_random_symmetric(rng, 6), 0.5 + 1j)
        assert residual(ws) <= 1e-8

    def test_resolvent_eigenvalue_cap(self):
        rng = np.random.default_rng(2)
        for v in (0.5, 1.0, 3.0):
            ws = ResolventWorkspace(_random_symmetric(rng, 8), 1.0 + v * 1j)
            mags = np.abs(1.0 / (ws.eigenvalues - ws.z))
            assert mags.max() <= 1.0 / v + 1e-12

    def test_squared_resolvent_entries_bounded(self):
        rng = np.random.default_rng(3)
        for v in (0.5, 2.0):
            ws = ResolventWorkspace(_random_symmetric(rng, 7), v * 1j)
            g2 = ws.G @ ws.G
            assert np.max(np.abs(g2)) <= 1.0 / v**2 + 1e-12

    def test_real_z_rejected(self):
        with pytest.raises(ValueError):
            ResolventWorkspace(np.eye(2), 3.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ResolventWorkspace(np.array([[0.0, 1.0], [0.0, 0.0]]), 1j)

    def test_extended_precision_matches_float_path(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, upper_triangle_size(6))
        hp = complex(h_value_hp(x, 6, 1j))
        float_path = ResolventWorkspace(wigner_matrix(x, 6), 1j).trace_mean()
        assert hp == pytest.approx(float_path, abs=1e-13)


class TestScalarFormulas:
    def test_first_derivative(self):
        # N = 1: h(x) = 1/(x - z), so dh = -1/(x - z)^2
        x = 0.5
        d1, _, _ = resolvent_partials([x], 1, 1j, (0, 0), (0, 0), (0, 0))
        assert d1 == pytest.approx(-1.0 / (x - 1j) ** 2)

    def test_second_derivative_two_equal_terms(self):
        x = 0.5
        _, d2, _ = resolvent_partials([x], 1, 1j, (0, 0), (0, 0), (0, 0))
        assert d2 == pytest.approx(2.0 / (x - 1j) ** 3)

    def test_third_derivative_six_equal_terms(self):
        x = -0.3
        _, _, d3 = resolvent_partials([x], 1, 2j, (0, 0), (0, 0), (0, 0))
        assert d3 == pytest.approx(-6.0 / (x - 2j) ** 4)

    def test_scalar_trace_bound(self):
        for x in (-2.0, 0.0, 1.5):
            val = abs(np.trace(ResolventWorkspace(np.array([[x]]), 1j).G @
                               perturbation_matrix((0, 0), 1) @
                               ResolventWorkspace(np.array([[x]]), 1j).G))
            assert val == pytest.approx(1.0 / (x * x + 1.0), rel=1e-12)
            assert val <= trace_bounds(1.0, 1).t1


class TestHilbertSchmidt:
    def test_identity_norm(self):
        assert np.linalg.norm(np.eye(9), "fro") == pytest.approx(3.0)

    def test_perturbation_norms(self):
        # off-diagonal direction has two entries, diagonal one
        assert np.linalg.norm(perturbation_matrix((0, 2), 5), "fro") == pytest.approx(
            math.sqrt(2.0 / 5.0))
        assert np.linalg.norm(perturbation_matrix((1, 1), 5), "fro") == pytest.approx(
            1.0 / math.sqrt(5.0))

    def test_trace_product_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            c = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert abs(np.trace(b @ c)) <= (np.linalg.norm(b, "fro") * np.linalg.norm(c, "fro")
                                            + 1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert np.linalg.norm(q @ c, "fro") == pytest.approx(np.linalg.norm(c, "fro"), abs=1e-10)
        assert np.linalg.norm(c @ q, "fro") == pytest.approx(np.linalg.norm(c, "fro"), abs=1e-10)

    def test_normal_factor_bound(self):
        rng = np.random.default_rng(7)
        b = _random_symmetric(rng, 6)
        c = rng.standard_normal((6, 6))
        top = np.max(np.abs(np.linalg.eigvalsh(b)))
        assert (max(np.linalg.norm(b @ c, "fro"), np.linalg.norm(c @ b, "fro"))
                <= top * np.linalg.norm(c, "fro") + 1e-10)


class TestDerivativeFormulas:
    def test_mixed_partial_symmetry(self):
        rng = np.random.default_rng(8)
        N = 5
        x = rng.uniform(-2, 2, upper_triangle_size(N))
        pairs = triu_pairs(N)
        a, b = pairs[2], pairs[9]
        _, d_ab, _ = resolvent_partials(x, N, 1j, a, b, a)
        _, d_ba, _ = resolvent_partials(x, N, 1j, b, a, a)
        assert abs(d_ab - d_ba) <= 1e-10 * max(abs(d_ab), 1.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(9)
        agree = fd_agreement_check([2, 3, 4, 5, 6, 7, 8], 12, 1j, rng)
        assert agree.order1 <= 1e-6
        assert agree.order2 <= 1e-6
        assert agree.order3 <= 1e-6

    def test_partials_bounded_by_trace_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            N = int(rng.integers(2, 9))
            x = rng.uniform(-2, 2, upper_triangle_size(N))
            pairs = triu_pairs(N)
            picks = [pairs[int(rng.integers(len(pairs)))] for _ in range(3)]
            d1, d2, d3 = resolvent_partials(x, N, 1j, *picks)
            bounds = trace_bounds(1.0, N)
            assert abs(d1) <= bounds.h1 + 1e-14
            assert abs(d2) <= bounds.h2 + 1e-14
            assert abs(d3) <= bounds.h3 + 1e-14

    def test_trace_ratio_check(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, upper_triangle_size(6))
        for _ in range(40):
            ratios = trace_bound_check(x, 6, 1j, rng)
            assert max(ratios.order1, ratios.order2, ratios.order3) <= 1.0

    def test_invalid_index_pair(self):
        with pytest.raises(ValueError):
            perturbation_matrix((2, 1), 4)

    @pytest.mark.parametrize("bad", [(2, 1), (0, 4), (-1, 0)])
    def test_invalid_index_pair_in_partials(self, bad):
        # a negative index would otherwise wrap silently in entry indexing
        x = np.random.default_rng(14).uniform(-2, 2, upper_triangle_size(4))
        g = tanh_clamp_profile()
        with pytest.raises(ValueError):
            resolvent_partials(x, 4, 1j, bad, (0, 1), (1, 2))
        with pytest.raises(ValueError):
            resolvent_partials(x, 4, 1j, (0, 1), (1, 2), bad)
        with pytest.raises(ValueError):
            composed_partials(g, x, 4, 1j, bad)
        with pytest.raises(ValueError):
            composed_partials(g, x, 4, 1j, (0, 1), bad, (1, 1))


def _h_value_hp_by_rows(x, N, z):
    """Row-by-row elimination: the loop the column updates of h_value_hp replace."""
    x = np.asarray(x, dtype=np.longdouble)
    a = np.zeros((N, N), dtype=np.clongdouble)
    iu = np.triu_indices(N)
    a[iu] = x / np.sqrt(np.longdouble(N))
    a.T[iu] = a[iu]
    m = a - np.clongdouble(z) * np.eye(N, dtype=np.clongdouble)
    inv = np.eye(N, dtype=np.clongdouble)
    for col in range(N):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        inv[col] /= m[col, col]
        m[col] /= m[col, col]
        for r in range(N):
            if r != col and m[r, col] != 0:
                inv[r] -= m[r, col] * inv[col]
                m[r] -= m[r, col] * m[col]
    return np.trace(inv) / N


@pytest.mark.parametrize("N", [1, 2, 5, 8])
def test_extended_precision_column_updates_match_row_loop(N):
    rng = np.random.default_rng(18 + N)
    for z in (1j, 0.4 - 0.7j):
        x = rng.uniform(-2, 2, upper_triangle_size(N)).astype(np.longdouble)
        sparse = np.where(rng.random(x.size) < 0.5, 0, x)  # rows the loop skips
        for xx in (x, sparse):
            assert h_value_hp(xx, N, z) == _h_value_hp_by_rows(xx, N, z)


def _dense_partials(x, N, z, pairs):
    """All orders of the partials of h from dense products of dA/dx matrices."""
    g = ResolventWorkspace(wigner_matrix(x, N), z).G
    out = []
    for k in range(1, len(pairs) + 1):
        total = 0j
        for order in permutations(pairs[:k]):
            m = g
            for p in order:
                m = m @ perturbation_matrix(p, N) @ g
            total += np.trace(m)
        out.append((-1) ** k * total / N)
    return out


def test_entry_traces_match_dense_products():
    N = 3
    x = np.random.default_rng(15).uniform(-2, 2, upper_triangle_size(N))
    pairs = triu_pairs(N)
    for picks in product(pairs, repeat=3):
        got = resolvent_partials(x, N, 0.3 + 0.8j, *picks)
        want = _dense_partials(x, N, 0.3 + 0.8j, picks)
        for k in range(3):
            assert abs(got[k] - want[k]) <= 1e-12 * abs(want[k])


def test_composed_partials_match_finite_differences():
    rng = np.random.default_rng(16)
    g = tanh_clamp_profile()
    for _ in range(8):
        N = int(rng.integers(2, 6))
        pairs = triu_pairs(N)
        x = rng.uniform(-2.0, 2.0, len(pairs)).astype(np.longdouble)
        picks = [pairs[int(rng.integers(len(pairs)))] for _ in range(3)]
        idx = [flat_index(p, N) for p in picks]
        f = lambda xx: g.value(np.real(h_value_hp(xx, N, 1j)))
        for k, step in ((1, 0.03125), (2, 0.0625), (3, 0.0625)):
            analytic = composed_partials(g, x.astype(float), N, 1j, *picks[:k])
            fd = finite_difference(f, x, idx[:k], step)
            assert abs(analytic - fd) <= 1e-6 * abs(analytic)


def test_composed_partials_use_one_eigensolve(monkeypatch):
    calls = []
    init = ResolventWorkspace.__init__

    def spy(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResolventWorkspace, "__init__", spy)
    x = np.random.default_rng(17).uniform(-2, 2, upper_triangle_size(5))
    composed_partials(tanh_clamp_profile(), x, 5, 1j, (0, 1), (2, 4), (3, 3))
    assert len(calls) == 1


def test_fd_agreement_makes_one_stacked_solve_per_order(monkeypatch):
    module = importlib.import_module("lindeberg.resolvent")
    stacks = []
    solve = module.h_value_hp

    def spy(x, N, z):
        stacks.append(np.shape(x))
        return solve(x, N, z)

    monkeypatch.setattr(module, "h_value_hp", spy)
    agreement = fd_agreement_check([3, 4], 3, 1j, np.random.default_rng(21))
    # six cases per tuple (three orders, two parts), each naming the tuple's N;
    # 6 + 12 + 24 = 42 points, one more than the 41 distinct stencil points
    widths = [N * (N + 1) // 2 for N, *_ in agreement.cases[::6]]
    assert len(widths) == 3 and set(widths) == {6, 10}
    assert stacks == [(rows, n) for n in widths for rows in (6, 12, 24)]


def test_stacked_solve_matches_one_row_calls_bit_for_bit():
    # the first row is diagonally dominant, so no column pivots; the second
    # has a zero diagonal and swaps rows at column 0; the random rest pivot
    # at other columns
    N = 5
    pairs = triu_pairs(N)
    rng = np.random.default_rng(22)
    diagonal = np.array([i == j for i, j in pairs])
    x = np.stack([np.where(diagonal, 9.0, 0.1), np.where(diagonal, 0.0, 3.0),
                  *rng.uniform(-2, 2, (6, len(pairs)))]).astype(np.longdouble)
    for z in (1j, 0.4 - 0.7j):
        stacked = h_value_hp(x, N, z)
        assert stacked.shape == (len(x),) and stacked.dtype == np.clongdouble
        for row, value in zip(x, stacked):
            one = h_value_hp(row, N, z)
            assert one == value and one == _h_value_hp_by_rows(row, N, z)
            assert np.signbit([one.real, one.imag]).tolist() == \
                np.signbit([value.real, value.imag]).tolist()


def test_submodule_import_binds_the_module():
    import lindeberg.resolvent as r

    assert isinstance(r, types.ModuleType)


def _thm12_bound(m3: float, m4: float, N: int, c) -> float:
    """The summarization bound at L2' and L3' from ``c`` and n = N(N+1)/2
    upper-triangle entries, summed from its terms."""
    return sum(thm12_terms(m3, m4, c.l2p_bound, c.l3p_bound, upper_triangle_size(N)).values())


class TestLemma41Constants:
    def test_pure_first_derivative_profile(self):
        c = lemma41_constants(1.0, 0.0, 0.0, 1.0, 4)
        assert c.k1 == 4.0
        assert c.k2 == pytest.approx(6.0 * 2.0**1.5)

    def test_all_zero_bounds(self):
        c = lemma41_constants(0.0, 0.0, 0.0, 2.0, 8)
        assert c.k1 == c.k2 == 0.0
        assert _thm12_bound(1.0, 1.0, 8, c) == 0.0

    def test_recorded_constants_reproduce_bound(self):
        # the bound must collapse exactly to C1/N sqrt(m4) + C2/sqrt(N) m3
        for N in (4, 16, 64):
            c = lemma41_constants(1.0, 0.77, 2.0, 1.0, N)
            m3, m4 = 1.3, 2.4
            direct = _thm12_bound(m3, m4, N, c)
            via_constants = c.c1 * math.sqrt(m4) / N + c.c2 * m3 / math.sqrt(N)
            assert direct == pytest.approx(via_constants, rel=1e-12)

    def test_rate_readback(self):
        g = tanh_clamp_profile()
        values = {N: _thm12_bound(1.0, 1.0, N, lemma41_constants(g.b1, g.b2, g.b3, 1.0, N))
                  for N in (64, 256)}
        # between Theta(1/N) and Theta(1/sqrt(N)) decay over a factor of 4
        ratio = values[256] / values[64]
        assert 0.25 <= ratio <= 0.5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma41_constants(-1.0, 0.0, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            lemma41_constants(1.0, 0.0, 0.0, 0.0, 4)

    @pytest.mark.parametrize("v", [1e-60, -1e-60, 1e-80, 1e80])
    def test_constants_beyond_the_floats_raise_one_line(self, v):
        with pytest.raises(ValueError) as err:
            lemma41_constants(1.0, 1.0, 1.0, v, 10)
        assert "\n" not in str(err.value)

    def test_large_im_z_gives_tiny_finite_constants(self):
        # |v|^6 overflows at v = 1e60, but the constants do not: K2 is
        # 6 * 2^{3/2} B1 |v|^-4 to within the underflowed |v|^-5, |v|^-6 terms
        c = lemma41_constants(1.0, 1.0, 1.0, 1e60, 10)
        assert c.k1 == pytest.approx(4.0e-180 + 0.4e-240, rel=1e-15)
        assert c.k2 == pytest.approx(6.0 * 2.0 ** 1.5 * 1e-240, rel=1e-15)
        assert 0.0 < c.c2 < c.c1 < 1e-170

    @pytest.mark.parametrize("N", [4, 8])
    def test_measured_mixed_partials_respect_bounds(self, N):
        rng = np.random.default_rng(13)
        g = tanh_clamp_profile()
        c = lemma41_constants(g.b1, g.b2, g.b3, 1.0, N)
        pairs = triu_pairs(N)
        for _ in range(10):
            x = rng.uniform(-2, 2, len(pairs))
            picks = [pairs[int(rng.integers(len(pairs)))] for _ in range(3)]
            assert abs(composed_partials(g, x, N, 1j, picks[0], picks[1])) <= c.l2p_bound
            assert abs(composed_partials(g, x, N, 1j, *picks)) <= c.l3p_bound
