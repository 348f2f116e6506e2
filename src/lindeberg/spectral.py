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


def wigner_matrix(x, N: int, out: np.ndarray | None = None) -> np.ndarray:
    """Symmetric N x N matrix with N^{-1/2}-scaled upper-triangle entries.

    ``x`` lists the entries for positions (i, j), i <= j, in row-major
    order; the lower triangle mirrors them.  ``out``, an N x N float64
    array, receives the matrix instead of a new one.  Every upper row is
    written before the lower triangle, so ``x`` may lie in the tail of the
    buffer behind a C-contiguous ``out``: row i ends before the entries of
    row i + 1 start there, so no entry is overwritten before it is read.
    """
    x = np.asarray(x, dtype=float)
    if x.size != upper_triangle_size(N):
        raise ValueError("entry vector length must be N(N+1)/2")
    a = np.empty((N, N)) if out is None else out
    if a.shape != (N, N) or a.dtype != np.float64:
        raise ValueError("out must be an N x N float64 array")
    scale = math.sqrt(N)
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

# Smallest order solved by the two-stage driver.  With OpenBLAS at one thread
# on a 2-core Xeon host, medians of 7 solves put dsyevd_2stage at 1.26x
# dsyevd's time for N = 900, 0.96-1.01x from 1100 to 1300, 0.94x at 1400 and
# 1600, 0.86x at 2000 and 0.77x at 3000.
_TWO_STAGE_MIN_ORDER = 1200


@functools.cache
def _two_stage_driver():
    """(LAPACKE dsyevd_2stage, OpenBLAS get_num_threads) from the OpenBLAS
    that numpy's wheel ships, bound through ctypes on the first call; None
    when there is no such library or it lacks the symbols."""
    import ctypes

    libs = list(Path(np.__file__).resolve().parent.parent.glob(
        "numpy.libs/libscipy_openblas64_*"))
    if len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        solve = lib.scipy_LAPACKE_dsyevd_2stage64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    # (matrix_layout, jobz, uplo, n, a, lda, w) with 64-bit LAPACK integers
    solve.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                      matrix, ctypes.c_int64, vector]
    solve.restype = ctypes.c_int64
    threads.argtypes = []
    threads.restype = ctypes.c_int
    return solve, threads


def _two_stage_eigvalsh(a: np.ndarray, solve, overwrite_a: bool = False) -> np.ndarray:
    """Ascending eigenvalues of the symmetric float64 matrix ``a`` by
    ``dsyevd_2stage`` with JOBZ='N', on a C-order copy of ``a``, or on ``a``
    itself when ``overwrite_a`` is set and it is a writable C-order float64
    array (its contents are then undefined).

    Read as column-major, the C-order matrix is a's transpose, so UPLO='U'
    reads a's lower triangle: the one ``np.linalg.eigvalsh`` reads.
    """
    N = a.shape[0]
    in_place = (overwrite_a and a.dtype == np.float64 and a.flags.c_contiguous
                and a.flags.writeable)
    work = a if in_place else np.array(a, dtype=np.float64, order="C")
    eigs = np.empty(N)
    info = solve(_LAPACK_COL_MAJOR, b"N", b"U", N, work, max(N, 1), eigs)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd_2stage failed with info = {info}")
    return eigs


def eigenvalues(matrix, overwrite_a: bool = False) -> np.ndarray:
    """Ascending spectrum of a symmetric matrix via a dense symmetric eigensolver.

    Two routes give the spectrum.  LAPACK's two-stage driver dsyevd_2stage,
    from the OpenBLAS that numpy loads, solves when that OpenBLAS runs one
    thread and N >= 1200: there its band reduction beats the one-stage
    tridiagonal reduction, which is memory-bound.  Every other case, and
    every numpy build whose OpenBLAS cannot be bound, calls
    ``np.linalg.eigvalsh``.  The two agree to rounding.

    ``overwrite_a=True`` (scipy's name for it) lets the two-stage route solve
    in ``matrix`` itself, which saves a copy of it and leaves its contents
    undefined; by default ``matrix`` is left unchanged.  ``eigvalsh`` always
    works on a copy.

    Raises ValueError for asymmetric input, and LinAlgError when the
    spectrum misses tr(A) or sum(a_ij^2) by more than 1e-8 * N^{3/2} times
    max|a| or its square.
    """
    a = np.asarray(matrix, dtype=float)
    N = a.shape[0]
    if a.shape != (N, N):
        raise ValueError("matrix must be square")
    amax = _require_symmetric(a, "matrix must be symmetric within 1e-12")
    # taken before a solve in place overwrites a
    trace = float(np.trace(a))
    frobenius = float(np.einsum("ij,ij->", a, a))
    driver = _two_stage_driver() if N >= _TWO_STAGE_MIN_ORDER else None
    if driver is not None and driver[1]() == 1:
        eigs = _two_stage_eigvalsh(a, driver[0], overwrite_a)
    else:
        eigs = np.linalg.eigvalsh(a)
    tol = 1e-8 * N ** 1.5
    if (abs(float(eigs.sum()) - trace) > tol * max(amax, 1e-300)
            or abs(float(np.square(eigs).sum()) - frobenius) > tol * max(amax ** 2, 1e-300)):
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
                     seed: int) -> ExperimentRow:
    """Spectrum of the sigma-normalized matrix against the semicircle law.

    Records the KS distance of the ESD to the semicircle cdf and the
    Stieltjes-transform gaps on the supplied grid, together with the
    empirical standardized fourth moment of the entries.
    """
    # One buffer of N(N+1) doubles, twice the entry count n: the entries are
    # drawn into its tail and standardized into its head, and the matrix then
    # fills its first N^2 doubles and is solved there, so the live set is the
    # buffer, plus the spec's multiset unless that is stored as a few runs.
    N, n = spec.N, upper_triangle_size(spec.N)
    buffer = np.empty(2 * n)
    x = sample_exchangeable(spec.entries, seed, out=buffer[n:])
    std = center_and_scale(x, out=buffer[:n])
    if std.sigma_hat == 0.0:
        raise ValueError("degenerate entries: sigma_hat must be positive")
    mu, sigma = std.mu_hat, std.sigma_hat
    x4 = np.square(std.x_tilde, out=std.x_tilde)  # two squares: much faster than a 4th power
    m4 = float(np.mean(np.square(x4, out=x4)))
    a = wigner_matrix(x, N, out=buffer[:N * N].reshape(N, N))
    np.divide(a, sigma, out=a)
    eigs = eigenvalues(a, overwrite_a=True)
    ks = ks_distance(eigs, semicircle_cdf)
    gaps = tuple(stieltjes_esd(eigs, z) - semicircle_stieltjes(z) for z in z_grid)
    return ExperimentRow(spec.N, seed, spec.label or "custom", mu, sigma, m4, ks, gaps)
