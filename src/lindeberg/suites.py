"""Canonical experiment cells shared by the command-line harness and tests."""

from __future__ import annotations

import math

import numpy as np

from .functions import (
    RidgeFunction,
    cos_profile,
    inv_quad_profile,
    logistic_step_profile,
    sum_ridge,
)
from .sampling import (
    IidFromDistribution,
    MarkovChain,
    balanced_signs,
    gaussian,
    standardized_multiset,
    uniform,
)

SQRT3 = math.sqrt(3.0)


def swapping_spec(kind: str, n: int):
    """The weakly dependent vectors compared against i.i.d. Gaussians."""
    if kind == "iid-uniform":
        return IidFromDistribution(uniform(-SQRT3, SQRT3), n)
    if kind == "multiset-rademacher":
        return standardized_multiset(balanced_signs(n))
    if kind == "markov-two-state":
        return MarkovChain(states=(-1.0, 1.0), initial=(0.5, 0.5),
                           kernel=((0.7, 0.3), (0.4, 0.6)), n=n)
    raise ValueError(f"unknown spec kind {kind!r}")


def gaussian_comparison(n: int) -> IidFromDistribution:
    return IidFromDistribution(gaussian(), n)


def suite_function(kind: str, n: int) -> RidgeFunction:
    """Smooth functions of the normalized sum used across the suite."""
    if kind == "cos":
        return sum_ridge(cos_profile(), n)
    if kind == "inv_quad":
        return sum_ridge(inv_quad_profile(), n)
    if kind == "logistic_step":
        return sum_ridge(logistic_step_profile(0.0, 0.5), n)
    raise ValueError(f"unknown function kind {kind!r}")


SWAPPING_SPEC_KINDS = ("iid-uniform", "multiset-rademacher", "markov-two-state")
SUITE_FUNCTION_KINDS = ("cos", "inv_quad", "logistic_step")
SWAPPING_N_VALUES = (5, 20, 50)
# Monte Carlo replicates per Thm 1.1 cell, and for A_i/B_i where no exact route exists.
SWAPPING_REPLICATES = 100_000
AB_REPLICATES = 20_000


def ramp_multiset(n: int):
    """Standardized 1..n ramp, the fixed multiset for summarization cells."""
    return standardized_multiset(np.arange(1.0, n + 1.0))


def summarization_function(kind: str, n: int) -> RidgeFunction:
    """Permutation-asymmetric ridge functions with known mixed-partial bounds."""
    if kind == "cos-alternating":
        w = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / math.sqrt(n)
        return RidgeFunction(cos_profile(), w)
    if kind == "inv_quad-ramp":
        w = np.arange(1.0, n + 1.0)
        return RidgeFunction(inv_quad_profile(), w / np.linalg.norm(w))
    raise ValueError(f"unknown function kind {kind!r}")


SUMMARIZATION_FUNCTION_KINDS = ("cos-alternating", "inv_quad-ramp")
SUMMARIZATION_N_VALUES = (10, 50)
SUMMARIZATION_REPLICATES = 200_000
