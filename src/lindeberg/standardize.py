"""Sample standardization (``center_and_scale``): the mean mu_hat and spread
sigma_hat that the exchangeable summarization bound summarizes X by.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

# Relative threshold below which a sample standard deviation is treated as
# an exact zero (constant vector up to rounding).
_DEGENERATE_RTOL = 1e-13


class StandardizedVector(NamedTuple):
    """Sample mean, sample sd (divisor n), and the standardized coordinates."""

    mu_hat: float
    sigma_hat: float
    x_tilde: np.ndarray


def center_and_scale(x, out: np.ndarray | None = None) -> StandardizedVector:
    """Standardize ``x`` to mean 0 and mean-square 1 (divisor n).

    The deviations x - mu_hat are taken in units of 2^k, the power of two near
    their largest magnitude, so that their squares neither under- nor
    overflow; the scaling is exact, so x times a power of two standardizes to
    the same coordinates as x.  A constant vector, one whose sd is at most
    1e-13 times max(|mu_hat|, the smallest normal float), is a success, not an
    error: sigma_hat is then exactly 0 and the standardized coordinates are
    returned as zeros; a mean or sd that overflows, or is not a number, raises
    ValueError.  One temporary of x's size serves the squares and then the
    standardized coordinates: ``out``, a float64 array of x's shape that does
    not overlap x, when given.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        mu = float(x.mean())
        d = np.subtract(x, mu, out=out)
        # max and -min rather than abs, which would take a second temporary
        k = math.frexp(max(float(d.max(initial=0.0)), -float(d.min(initial=0.0))))[1]
        np.ldexp(d, -k, out=d)
        # mu_hat is rounded, so the deviations sum to n (mean - mu_hat): 1e-4 of
        # sigma_hat where that is a few hundred ulps of mu_hat.  Centring them
        # again leaves a sum of order n eps, and leaves as they are deviations
        # that sum exactly (a symmetric ramp's).  A deviation that overflowed
        # makes sigma_hat inf, which raises below.
        shift = float(d.mean())
        np.subtract(d, shift if math.isfinite(shift) else 0.0, out=d)
        unit_sigma = float(np.sqrt(np.mean(np.square(d, out=d))))
        sigma = math.ldexp(unit_sigma, k)
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError(f"the sample mean and sd must be finite floats; "
                         f"got mu_hat = {mu:g}, sigma_hat = {sigma:g}")
    if sigma <= _DEGENERATE_RTOL * max(abs(mu), sys.float_info.min):
        d.fill(0.0)
        return StandardizedVector(mu, 0.0, d)
    np.subtract(x, mu, out=d)
    np.ldexp(d, -k, out=d)
    np.subtract(d, shift, out=d)
    return StandardizedVector(mu, sigma, np.divide(d, unit_sigma, out=d))
