"""Spectral statistics of symmetric matrices against the semicircle law.

Builds Wigner-type matrices from an exchangeable (or i.i.d.) upper triangle,
computes empirical spectral distributions, Stieltjes transforms, the
semicircle reference law, exact Kolmogorov-Smirnov distances, and the rank
inequality that controls ESD perturbations.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .laws import gaussian
from .sampling import (
    ExchangeableSpec,
    balanced_signs,
    derive_child,
    rng_from,
    sample_exchangeable,
    standardized_multiset,
)
from .specs import IidFromDistribution
from .standardize import center_and_scale
from .value import Value

_SYMMETRY_TOL = 1e-12
_RANK_RTOL = 1e-10  # see rank_inequality_check

# Side of the square tiles in which a matrix's upper triangle is compared
# with, or copied onto, its lower one: two tiles of doubles take 1 MiB.
_TILE = 256

# Entropy stream for the frozen heavy-tail multisets; a module constant so
# every run sees the same multiset for a given order N.
_FROZEN_ENTRY_SEED = 0x5EED_D06F


def _require_symmetric(a: np.ndarray, message: str) -> float:
    """Raise ValueError(message) if ``a`` is not square or some |a_ij - a_ji|
    exceeds 1e-12, and ValueError for non-finite entries, which no eigensolver
    accepts; return max|a_ij| over the tiles on and above the diagonal.

    Each such tile is compared with its mirror, in one tile of scratch space.
    A NaN, or an inf facing an inf, leaves a NaN gap, and an inf facing a
    finite entry an inf gap, so the gaps alone find every non-finite entry,
    on either side of the diagonal.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(message)
    N = a.shape[0]
    scratch = np.empty(min(N, _TILE) ** 2)
    amax = 0.0
    with np.errstate(invalid="ignore"):
        for s in range(0, N, _TILE):
            for t in range(s, N, _TILE):
                upper = a[s:s + _TILE, t:t + _TILE]
                gap = scratch[:upper.size].reshape(upper.shape)
                np.subtract(upper, a[t:t + _TILE, s:s + _TILE].T, out=gap)
                worst = np.abs(gap, out=gap).max()
                if worst > _SYMMETRY_TOL:
                    raise ValueError(message)
                if worst != worst:
                    raise ValueError("array must not contain infs or NaNs")
                amax = max(amax, float(np.abs(upper, out=gap).max()))
    return amax


def upper_triangle_size(N: int) -> int:
    return N * (N + 1) // 2


def wigner_matrix(x, N: int, out: np.ndarray | None = None, sigma: float = 1.0) -> np.ndarray:
    """Symmetric N x N matrix with (sqrt(N) sigma)^{-1}-scaled upper-triangle entries.

    ``x`` lists the entries for positions (i, j), i <= j, in row-major
    order; the lower triangle mirrors them.  Each entry is divided by
    sqrt(N) sigma in float64 and rounded once to the matrix's dtype: a new
    float64 one, or ``out``, an N x N float32 array.
    """
    x = np.asarray(x, dtype=float)
    if x.size != upper_triangle_size(N):
        raise ValueError("entry vector length must be N(N+1)/2")
    if out is not None and (out.shape != (N, N) or out.dtype != np.float32):
        raise ValueError("out must be an N x N float32 array")
    a = np.empty((N, N)) if out is None else out
    scale = math.sqrt(N) * sigma
    start = 0
    for i in range(N):
        row = a[i, i:]
        np.divide(x[start:start + row.size], scale, out=row)
        start += row.size
    _mirror_upper(a)
    return a


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the upper triangle of the square ``a`` onto its lower one, tile by
    tile, so that each copy reads and writes cache-sized blocks."""
    N = a.shape[0]
    for s in range(0, N, _TILE):
        e = min(s + _TILE, N)
        diagonal = a[s:e, s:e]
        diagonal[...] = np.where(np.tri(e - s, k=-1, dtype=bool), diagonal.T, diagonal)
        for t in range(e, N, _TILE):
            a[t:t + _TILE, s:e] = a[s:e, t:t + _TILE].T


class WignerEnsembleSpec(Value):
    """Random symmetric matrix of order N whose upper triangle is drawn from the
    spec ``entries``, named by ``label``."""

    __slots__ = _fields = ("N", "entries", "label")
    _defaults = {"label": ""}

    def _validate(self):
        if self.entries.n != upper_triangle_size(self.N):
            raise ValueError("entry spec must cover the upper triangle")


def gaussian_wigner(N: int) -> WignerEnsembleSpec:
    """The i.i.d. standard Gaussian baseline ensemble."""
    return WignerEnsembleSpec(N, IidFromDistribution(gaussian(), upper_triangle_size(N)),
                              "gaussian")


def rademacher_perm_wigner(N: int) -> WignerEnsembleSpec:
    """Random permutation of a fixed standardized near-balanced +-1 multiset."""
    values = balanced_signs(upper_triangle_size(N))
    return WignerEnsembleSpec(N, standardized_multiset(values), "rademacher-perm")


def student_t_perm_wigner(N: int) -> WignerEnsembleSpec:
    """Permutation of standardized heavy-tail draws, frozen per order N."""
    n = upper_triangle_size(N)
    rng = rng_from(derive_child(_FROZEN_ENTRY_SEED, N))
    draws = rng.standard_t(5, n)
    return WignerEnsembleSpec(N, standardized_multiset(draws), "student-t-perm")


def contaminated_wigner(N: int) -> WignerEnsembleSpec:
    """Near-balanced +-1 multiset with a thin band of large outliers.

    floor(n^0.4) entries are inflated to n^0.25, which pushes the standardized
    fourth moment toward the regime where the semicircle approximation
    degrades.
    """
    n = upper_triangle_size(N)
    values = balanced_signs(n)
    k = max(int(n ** 0.4), 1)
    values[:k] *= n ** 0.25
    return WignerEnsembleSpec(N, standardized_multiset(values), "contaminated")


ENSEMBLES: dict[str, Callable[[int], WignerEnsembleSpec]] = {
    "gaussian": gaussian_wigner,
    "rademacher-perm": rademacher_perm_wigner,
    "student-t-perm": student_t_perm_wigner,
    "contaminated": contaminated_wigner,
}


# ---------------------------------------------------------------------------
# Eigenvalues and the empirical spectral distribution
# ---------------------------------------------------------------------------


# LAPACK's matrix_layout code for column-major storage.
_LAPACK_COL_MAJOR = 102

# float32's machine epsilon: its unit roundoff is half of it.
_EPS32 = 2.0 ** -23


@functools.cache
def _lapacke_binding():
    """LAPACKE ssyevd from the OpenBLAS that numpy's wheel ships, bound
    through ctypes on the first call; None when there is no such library or
    it lacks the symbol."""
    import ctypes

    libs = list(Path(np.__file__).resolve().parent.parent.glob(
        "numpy.libs/libscipy_openblas64_*"))
    if len(libs) != 1:
        return None
    try:
        solve = ctypes.CDLL(str(libs[0])).scipy_LAPACKE_ssyevd64_
    except (OSError, AttributeError):
        return None
    # (matrix_layout, jobz, uplo, n, a, lda, w) with 64-bit LAPACK integers
    solve.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                      np.ctypeslib.ndpointer(np.float32, ndim=2, flags="C_CONTIGUOUS"),
                      ctypes.c_int64,
                      np.ctypeslib.ndpointer(np.float32, ndim=1, flags="C_CONTIGUOUS")]
    solve.restype = ctypes.c_int64
    return solve


def _lapacke_eigvalsh(a: np.ndarray, solve) -> np.ndarray:
    """Ascending eigenvalues, as float64, of the symmetric C-order float32
    matrix ``a`` by ``solve`` (LAPACKE ssyevd) with JOBZ='N', in ``a`` itself,
    whose contents are then undefined.

    Read as column-major, the C-order matrix is a's transpose, so UPLO='U'
    reads a's lower triangle: the one ``np.linalg.eigvalsh`` reads.
    """
    N = a.shape[0]
    eigs = np.empty(N, dtype=np.float32)
    info = solve(_LAPACK_COL_MAJOR, b"N", b"U", N, a, max(N, 1), eigs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK eigensolver failed with info = {info}")
    return eigs.astype(np.float64)


def eigenvalues(matrix) -> np.ndarray:
    """Ascending spectrum, as float64, of a symmetric matrix; its dtype picks
    the precision.

    A float32 matrix is solved in single precision by LAPACK's ssyevd from
    the OpenBLAS that numpy loads, bound through ``ctypes`` on first use, in
    the matrix's own memory, whose contents are then undefined (one that is
    not a writable C-order array is copied first).  Where that OpenBLAS cannot
    be bound, ``np.linalg.eigvalsh`` solves a float64 copy and rounds the
    spectrum to float32.  Any other matrix is solved in float64 by
    ``np.linalg.eigvalsh``.

    Raises ValueError for asymmetric input, and LinAlgError when the spectrum
    misses tr(A) or sum(a_ij^2), both summed in float64.  A float64 spectrum
    may miss them by 1e-8 * N^{3/2} times max|a| or its square; a float32 one
    by what its stated error allows: with d = N 2^-23 max|eig|, N d and
    d (2 sum|eig| + N d) (docs/derivations.md, "Single-precision spectrum").
    """
    a = np.asarray(matrix)
    if a.dtype != np.float32:
        a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    N = a.shape[0]
    amax = _require_symmetric(a, "matrix must be symmetric within 1e-12")
    # taken before a solve in place overwrites a
    trace = float(np.trace(a, dtype=np.float64))
    frobenius = float(np.einsum("ij,ij->", a, a, dtype=np.float64))
    if a.dtype == np.float64:
        eigs = np.linalg.eigvalsh(a)
        tol = 1e-8 * N ** 1.5
        trace_tol, frobenius_tol = tol * max(amax, 1e-300), tol * max(amax ** 2, 1e-300)
    else:
        solve = _lapacke_binding()
        if solve is None:
            eigs = np.linalg.eigvalsh(a).astype(np.float64)
        else:
            if not (a.flags.c_contiguous and a.flags.writeable):
                a = np.array(a, order="C")
            eigs = _lapacke_eigvalsh(a, solve)
        # the stated solver error, N eps max|eig| (docs/derivations.md)
        d = N * _EPS32 * float(np.abs(eigs).max(initial=0.0))
        trace_tol, frobenius_tol = N * d, d * (2.0 * float(np.abs(eigs).sum()) + N * d)
    if (abs(float(eigs.sum()) - trace) > trace_tol
            or abs(float(np.square(eigs).sum()) - frobenius) > frobenius_tol):
        raise np.linalg.LinAlgError("eigensolver violated its trace identities")
    return eigs


# Outside this range |Im z|^4, and with it the resolvent's trace bounds, leaves
# the normal floats; |z| <= 1e75 keeps z^2 and (1 + |z|)^2 well inside them.
_IM_Z_RANGE = (1e-75, 1e75)


def check_z(z: complex) -> complex:
    """z as a complex number, when 1e-75 <= |Im z| and |z| <= 1e75; else ValueError."""
    z = complex(z)
    lo, hi = _IM_Z_RANGE
    if not lo <= abs(z.imag) <= hi:
        raise ValueError(f"|Im z| must lie in [{lo:g}, {hi:g}]; got {abs(z.imag):g}")
    if not abs(z) <= hi:
        raise ValueError(f"|z| must be at most {hi:g}; got {abs(z):g}")
    return z


def stieltjes_esd(eigs, z: complex) -> complex:
    """mean(1 / (eig - z)) for z in ``check_z``'s range.

    Its imaginary part shares the sign of Im z and its magnitude is capped
    by 1/|Im z|.
    """
    z = check_z(z)
    eigs = np.asarray(eigs, dtype=float)
    return complex(np.mean(1.0 / (eigs - z)))


# ---------------------------------------------------------------------------
# Semicircle reference law
# ---------------------------------------------------------------------------


def semicircle_density(x):
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)  # so that x * x cannot overflow
    return np.sqrt(4.0 - x * x) / (2.0 * math.pi)


def semicircle_cdf(x):
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + (x * np.sqrt(4.0 - x * x) + 4.0 * np.arcsin(x / 2.0)) / (4.0 * math.pi)


def semicircle_stieltjes(z: complex) -> complex:
    """The root of m^2 + z m + 1 = 0 that decays at infinity.

    That root is (-z + z s) / 2 with s = sqrt(1 - 4/z^2) the principal square
    root, which selects the branch with |m| <= 1/|Im z| on either half-plane.
    The two roots multiply to 1, so it is computed as the reciprocal of the
    other, -2 / (z + z s), which does not cancel for large |z|.  z must lie in
    ``check_z``'s range, where z^2 neither under- nor overflows.
    """
    z = check_z(z)
    return -2.0 / (z + z * np.sqrt(1.0 - 4.0 / (z * z)))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance and the rank inequality
# ---------------------------------------------------------------------------


def _ascending(eigs) -> np.ndarray:
    """A sorted copy of a nonempty eigenvalue list."""
    e = np.sort(np.asarray(eigs, dtype=float))
    if e.size == 0:
        raise ValueError("need at least one eigenvalue")
    return e


def ks_distance(eigs, other) -> float:
    """Exact sup-norm distance between the ESD x -> #{eigs <= x}/N and a cdf.

    A callable ``other`` is a continuous cdf G; with e_1 <= ... <= e_N the
    supremum sits at an eigenvalue and is the largest of k/N - G(e_k) and
    G(e_k) - (k-1)/N.  Otherwise ``other`` is a second spectrum, and the
    supremum sits at a point of either spectrum, comparing the two step
    functions' values there from the left and from the right.
    """
    e = _ascending(eigs)
    N = e.size
    if callable(other):
        cont = np.asarray(other(e), dtype=float)
        k = np.arange(1, N + 1)
        return float(max(np.max(k / N - cont), np.max(cont - (k - 1) / N)))
    f = _ascending(other)
    points = np.concatenate((e, f))
    gaps = (np.searchsorted(e, points, side) / N - np.searchsorted(f, points, side) / f.size
            for side in ("left", "right"))
    return float(max(np.max(np.abs(gap)) for gap in gaps))


class RankCheck(NamedTuple):
    ks: float
    rank: int
    bound: float
    ok: bool


def rank_inequality_check(a, b) -> RankCheck:
    """Verify ks(F_A, F_B) <= rank(A - B) / N.

    The rank counts singular values of A - B above ``_RANK_RTOL`` times the
    largest one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("matrices must have the same order")
    N = a.shape[0]
    # the eigensolves first: they reject asymmetric or non-finite input
    ks = ks_distance(eigenvalues(a), eigenvalues(b))
    sv = np.linalg.svd(a - b, compute_uv=False)
    top = float(sv.max(initial=0.0))
    rank = int(np.count_nonzero(sv > _RANK_RTOL * top)) if top > 0 else 0
    bound = rank / N
    return RankCheck(ks, rank, bound, ks <= bound + 1e-12)


# ---------------------------------------------------------------------------
# The exchangeable-Wigner convergence experiment
# ---------------------------------------------------------------------------


class ExperimentRow(NamedTuple):
    """One convergence measurement for a (spec, N, seed) cell."""

    N: int
    seed: int
    ensemble: str
    mu_hat: float
    sigma_hat: float
    m4_tilde: float
    ks: float
    stieltjes_gaps: tuple  # complex m_esd(z) - m_sc(z) per grid point


def thm13_experiment(spec: WignerEnsembleSpec, z_grid: Sequence[complex],
                     seeds: Sequence[int]) -> list[ExperimentRow]:
    """Spectrum of the sigma-normalized matrix against the semicircle law, one
    row per seed.

    Records the KS distance of the ESD to the semicircle cdf and the
    Stieltjes-transform gaps on the supplied grid, together with the
    empirical standardized fourth moment of the entries.  The matrix is
    rounded to float32 and solved in single precision (``eigenvalues``).

    Every seed works in one buffer of N(N+1) doubles, twice the entry count
    n: the entries are drawn into its tail and standardized into its head,
    and the float32 matrix then fills the head (N^2 floats fit in n doubles)
    and is solved there.  So the live set is the buffer, plus the spec's
    multiset unless that is stored as a few runs.  One buffer per call, not
    per seed, keeps the peak down: freeing a buffer raises glibc's mmap
    threshold, so the next seed's buffer would come from the heap and stay
    resident under a later, larger order's cells.
    """
    N, n = spec.N, upper_triangle_size(spec.N)
    buffer = np.empty(2 * n)
    a = buffer[:n].view(np.float32)[:N * N].reshape(N, N)
    rows = []
    for seed in seeds:
        x = sample_exchangeable(spec.entries, seed, out=buffer[n:])
        std = center_and_scale(x, out=buffer[:n])
        if std.sigma_hat == 0.0:
            raise ValueError("degenerate entries: sigma_hat must be positive")
        mu, sigma = std.mu_hat, std.sigma_hat
        x4 = np.square(std.x_tilde, out=std.x_tilde)  # two squares: much faster than a 4th power
        m4 = float(np.mean(np.square(x4, out=x4)))
        eigs = eigenvalues(wigner_matrix(x, N, out=a, sigma=sigma))
        ks = ks_distance(eigs, semicircle_cdf)
        gaps = tuple(stieltjes_esd(eigs, z) - semicircle_stieltjes(z) for z in z_grid)
        rows.append(ExperimentRow(N, seed, spec.label or "custom", mu, sigma, m4, ks, gaps))
    return rows
