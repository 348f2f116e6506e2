"""Each command's default cells and the limit each of its checks compares
against, read by the command-line harness and the acceptance suite alike."""

import math

import numpy as np

from .functions import (RidgeFunction, cos_profile, inv_quad_profile, logistic_step_profile,
                        sum_ridge)
from .laws import gaussian, uniform
from .sampling import balanced_signs, standardized_multiset
from .specs import IidFromDistribution, MarkovChain

SQRT3 = math.sqrt(3.0)


def _lookup(table: dict, what: str, kind: str):
    if kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return table[kind]


# Each kind's builder, in the order the defaults run them (and thm11-check seeds them).
_SWAPPING_SPECS = {
    "iid-uniform": lambda n: IidFromDistribution(uniform(-SQRT3, SQRT3), n),
    "multiset-rademacher": lambda n: standardized_multiset(balanced_signs(n)),
    "markov-two-state": lambda n: MarkovChain(states=(-1.0, 1.0), initial=(0.5, 0.5),
                                              kernel=((0.7, 0.3), (0.4, 0.6)), n=n),
}
_SUITE_PROFILES = {"cos": cos_profile, "inv_quad": inv_quad_profile,
                   "logistic_step": logistic_step_profile}
SWAPPING_SPEC_KINDS = tuple(_SWAPPING_SPECS)
SUITE_FUNCTION_KINDS = tuple(_SUITE_PROFILES)


def swapping_spec(kind: str, n: int):
    """The weakly dependent vectors compared against i.i.d. Gaussians."""
    return _lookup(_SWAPPING_SPECS, "spec", kind)(n)


def gaussian_comparison(n: int) -> IidFromDistribution:
    return IidFromDistribution(gaussian(), n)


def suite_function(kind: str, n: int) -> RidgeFunction:
    """Smooth functions of the normalized sum used across the suite."""
    return sum_ridge(_lookup(_SUITE_PROFILES, "function", kind)(), n)


SWAPPING_N_VALUES = (5, 20, 50)
# Monte Carlo replicates per Thm 1.1 cell without an exact difference.
SWAPPING_REPLICATES = 100_000


def ramp_multiset(n: int):
    """Standardized 1..n ramp, the fixed multiset for summarization cells."""
    return standardized_multiset(np.arange(1.0, n + 1.0))


_SUMMARIZATION_FUNCTIONS = {
    "cos-alternating": lambda n: RidgeFunction(
        cos_profile(), np.resize([1.0, -1.0], n) / math.sqrt(n)),
    "inv_quad-ramp": lambda n: RidgeFunction(
        inv_quad_profile(), (w := np.arange(1.0, n + 1.0)) / np.linalg.norm(w)),
}
SUMMARIZATION_FUNCTION_KINDS = tuple(_SUMMARIZATION_FUNCTIONS)


def summarization_function(kind: str, n: int) -> RidgeFunction:
    """Permutation-asymmetric ridge functions with known mixed-partial bounds."""
    return _lookup(_SUMMARIZATION_FUNCTIONS, "function", kind)(n)


SUMMARIZATION_N_VALUES = (10, 50)
SUMMARIZATION_REPLICATES = 25_000


def stein_covariances(rng):
    """The Stein cell: the covariances m m^T / 4 of five 4 x 4 standard Gaussian m."""
    return [m @ m.T / 4.0 for m in (rng.standard_normal((4, 4)) for _ in range(5))]


IDENTITY_N_VALUES = (3, 4, 5, 6, 7)
RESOLVENT_N_VALUES = (2, 3, 4, 5, 6, 7, 8)
RESOLVENT_Z = 1j
RESOLVENT_TUPLES = 50  # finite-difference tuples
RESOLVENT_TRIALS = 200  # trace-bound trials
SWEEP_N_VALUES = (50, 100, 200, 400)
SWEEP_SEEDS = 20  # per order
Z_GRID = (1j, 2j, 1 + 1j)  # wigner-sweep's, and semicircle-table's without --x
# semicircle-table's cdf points without --x or --z: the ends of the support
# and points off 0, where the cdf's denominator shows.
SEMICIRCLE_X = (-2.0, -1.0, 0.0, 0.5, 2.0)

# Every limit a command's check compares against, and the acceptance suite's
# calibrated Thm 1.3 thresholds.  Frozen in docs/calibration.md; never loosened.
LIMITS = {
    "identity": 1e-12,  # enumerated identity deviations; moment-inequality slack >= -this
    "covariance_gap_closed_form": 1e-10,  # |float gap - harmonic closed form|
    "covariance_gap_over_sqrt_n": 3.0,  # the gap is at most this times sqrt(n)
    "stein": 1e-10,
    "finite_difference": 1e-6,  # relative error of each derivative order
    "trace_ratio": 1.0,
    "semicircle_cdf": 1e-6,  # |closed-form cdf - trapezoid integral of the density|
    "stieltjes_root": 1e-12,  # |m^2 + z m + 1| / (1 + |z|)^2
    "ks_rademacher_perm_N400": 0.10,  # median KS to the semicircle at N = 400
    "ks_gaussian_N400": 0.06,
    "stieltjes_gap_N400": 0.05,  # median |m_esd - m_sc| per grid point at N = 400
}
