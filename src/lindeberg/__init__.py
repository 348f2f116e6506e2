"""Numerical toolkit for Lindeberg swapping bounds, exchangeable
summarization, and semicircle-law experiments on symmetric random matrices.
"""

from .exchangeable import (
    build_g_transform,
    conditional_mean_identity_check,
    covariance_gap_sum,
    covariance_gap_sum_exact,
    covariance_matrices,
    end_to_end_check,
    interpolation_difference,
    martingale_increment_check,
    second_moment_identity_check,
)
from .functions import sum_ridge, tanh_clamp_profile
from .resolvent import (
    fd_agreement_check,
    lemma41_bound,
    lemma41_constants,
    resolvent_partials,
    trace_bound_check,
    trace_bounds,
)
from .sampling import derive_child, rng_from, standardized_multiset
from .spectral import (
    build_wigner,
    eigenvalues,
    rank_inequality_check,
    semicircle_density,
    thm13_experiment,
)
from .swap import swapping_report, telescoping_difference

__version__ = "0.1.0"
