"""The swapping bound for smooth functions of weakly dependent vectors.

Compares Ef(X) against Ef(Y) for Y with independent components by replacing
coordinates one at a time.  The bound needs the conditional-moment
discrepancies A_i, B_i, a third-moment cap M3, and sup bounds on the first
three unmixed partials of f.  M3 is always taken from closed forms, and so
are the discrepancies: their exact values where the spec has an exact route,
closed-form caps on them otherwise.  The true difference comes from the laws
of the ridge argument w.X where both specs have one, and from seeded
Monte Carlo otherwise.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .functions import RidgeFunction, SmoothFunction
from .sampling import (
    ExchangeableSpec,
    RunningMean,
    derive_child,
    rng_from,
    row_blocks,
    sample_batch,
)
from .specs import ABEstimate, IidFromDistribution

_DOMINANCE_STDERRS = 3.0


class BoundReport(NamedTuple):
    """A bound's named terms next to the estimate of Ef(X) - Ef(Y) it must dominate.

    ``kind`` is ``"exact"`` when the estimate comes from quadrature over the
    laws of the ridge argument; ``stderr`` is then the stated quadrature error
    and ``replicates`` is 0.  It is ``"mc"`` for a Monte Carlo mean over
    ``replicates`` draws, with its standard error.  ``components`` maps each
    term's name to its value; the bound is their sum.
    """

    estimate: float
    stderr: float
    replicates: int
    kind: str
    components: Mapping

    @property
    def bound(self) -> float:
        return sum(self.components.values())

    def dominates(self) -> bool:
        """True when |estimate| <= bound + 3 stderr."""
        return abs(self.estimate) <= self.bound + _DOMINANCE_STDERRS * self.stderr


def bound_components(A, B, M3: float, L1: float, L2: float, L3: float) -> dict:
    """The three terms of the bound sum_i (A_i L1 + B_i L2 / 2) + n L3 M3 / 6.
    A term whose derivative bound is zero vanishes even when its moment is
    infinite (0 * inf counts as 0), and a sum that overflows a float is infinite."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("A and B must have the same length")
    if A.min(initial=0.0) < 0 or B.min(initial=0.0) < 0 or min(M3, L1, L2, L3) < 0:
        raise ValueError("inputs must be nonnegative")
    with np.errstate(over="ignore"):
        return {
            "first_order": 0.0 if L1 == 0 else float(A.sum() * L1),
            "second_order": 0.0 if L2 == 0 else float(0.5 * B.sum() * L2),
            "third_moment": 0.0 if L3 == 0 else float(A.size * L3 * M3 / 6.0),
        }


# ---------------------------------------------------------------------------
# Conditional-moment discrepancies A_i, B_i
# ---------------------------------------------------------------------------


def estimate_ab(spec: ExchangeableSpec, y_mean: float, y_second: float, i: int) -> ABEstimate:
    """Discrepancies A_i = E|E(X_i | X_<i) - EY_i| and the squared analogue B_i.

    The spec's ``ab_exact`` where it has an exact route, else its ``ab_cap``,
    closed-form upper bounds on both (``exact`` False).
    """
    exact = spec.ab_exact(y_mean, y_second, i)
    return exact if exact is not None else spec.ab_cap(y_mean, y_second, i)


def estimate_ab_all(spec, y_mean, y_second):
    """Arrays (A, B) over i = 1..n, exact or capped."""
    n = spec.n
    a = np.empty(n)
    b = np.empty(n)
    for i in range(1, n + 1):
        est = estimate_ab(spec, y_mean, y_second, i)
        a[i - 1] = est.a
        b[i - 1] = est.b
    return a, b


def third_moment_bound(x_spec, y_spec) -> float:
    """max_i E|X_i|^3 + max_i E|Y_i|^3, a cap on max_i (E|X_i|^3 + E|Y_i|^3) from
    each spec's closed forms (exact, or a closed-form cap); infinite when a
    moment is."""
    n = x_spec.n
    return sum(max(spec.abs_third_moment(i) for i in range(1, n + 1))
               for spec in (x_spec, y_spec))


# ---------------------------------------------------------------------------
# Monte Carlo estimates of Ef(X) - Ef(Y)
# ---------------------------------------------------------------------------


def mean_difference(functions, x_spec, y_spec, replicates: int, seed: int) -> list:
    """Estimate Ef(X) - Ef(Y) for each function from independent X and Y streams.

    X and Y are drawn once for all the functions, in row blocks, from
    ``derive_child(seed, 0)`` and ``derive_child(seed, 1)``; each block's
    differences go into each f's running mean, so memory does not grow with
    ``replicates``.  Each estimate equals the one-function call with the same
    seed, and the functions' estimates share their Monte Carlo error.  Returns
    one (estimate, stderr) per function.
    """
    if not functions:
        raise ValueError("give at least one function")
    x_rng, y_rng = rng_from(derive_child(seed, 0)), rng_from(derive_child(seed, 1))
    means = [RunningMean() for _ in functions]
    for block in row_blocks(replicates, x_spec.n):
        rows = block.stop - block.start
        x = sample_batch(x_spec, x_rng, rows)
        y = sample_batch(y_spec, y_rng, rows)
        for mean, f in zip(means, functions):
            mean.add(np.subtract(f(x), f(y), dtype=float))
        del x, y  # before the next block is drawn
    return [mean.result() for mean in means]


def _exact_difference(f: SmoothFunction, x_spec, y_spec, laws: dict):
    """(Ef(X) - Ef(Y), stated error) for a ridge f = g(w.x), by quadrature
    over each spec's ``ridge_law``; None when either spec has no law for w or a
    rule cannot resolve g.  ``laws`` caches the pair of laws per w.
    """
    if not isinstance(f, RidgeFunction):
        return None
    if f.arity != x_spec.n or y_spec.n != x_spec.n:
        raise ValueError("function arity and spec lengths must agree")
    key = f.weights.tobytes()
    if key not in laws:
        laws[key] = (x_spec.ridge_law(f.weights), y_spec.ridge_law(f.weights))
    x_law, y_law = laws[key]
    if x_law is None or y_law is None:
        return None
    x_mean, y_mean = x_law.expect(f.profile.value), y_law.expect(f.profile.value)
    if x_mean is None or y_mean is None:
        return None
    return x_mean[0] - y_mean[0], x_mean[1] + y_mean[1]


def swapping_report(functions, x_spec, y_spec, replicates: int, seeds) -> list:
    """Bound-versus-estimate reports, one per function, for one (X, Y) pair.

    A, B, the third-moment cap and the laws of the ridge arguments depend on
    (X, Y) only, so they are computed once and shared.  Each function's
    difference is exact where both specs have a law for its ridge argument
    that resolves it, else Monte Carlo: the functions without an exact
    difference share one ``mean_difference`` call, seeded with the first such
    function's seed.  Y must have independent components; its per-coordinate
    moments are taken from the spec's closed forms.
    """
    if not isinstance(y_spec, IidFromDistribution):
        raise ValueError("the comparison vector must have independent components")
    if len(functions) != len(seeds) or not functions:
        raise ValueError("give one seed per function, and at least one function")
    y_mean = y_spec.dist.mean()
    y_second = y_spec.dist.second_moment()
    A, B = estimate_ab_all(x_spec, y_mean, y_second)
    m3 = third_moment_bound(x_spec, y_spec)
    laws = {}
    exact = [_exact_difference(f, x_spec, y_spec, laws) for f in functions]
    mc = [k for k, value in enumerate(exact) if value is None]
    sampled = dict(zip(mc, mean_difference([functions[k] for k in mc], x_spec, y_spec,
                                           replicates, seeds[mc[0]]))) if mc else {}
    reports = []
    for k, f in enumerate(functions):
        l1, l2, l3 = f.unmixed_bounds
        components = bound_components(A, B, m3, l1, l2, l3)
        if k in sampled:
            reports.append(BoundReport(*sampled[k], replicates, "mc", components))
        else:
            reports.append(BoundReport(*exact[k], 0, "exact", components))
    return reports
