"""Conditionally i.i.d. vectors: a mixing parameter theta from a scalar law,
then n draws from N(theta, scale^2), with the Gaussian moments behind their
exact A_i/B_i under Gaussian mixing."""

from __future__ import annotations

import math

import numpy as np

from .laws import Gaussian, _normal_pdf, _pow, _reals, _scaled, normal_quadrature
from .specs import ABEstimate, _check_length, _jensen_cap, _marginal_ab
from .value import Value


def _normal_mass(lo: float, hi: float) -> float:
    """P(lo < Z < hi) for standard normal Z, from erfc in either tail."""
    root2 = math.sqrt(2.0)
    if lo > 0.0:
        return 0.5 * (math.erfc(lo / root2) - math.erfc(hi / root2))
    if hi < 0.0:
        return 0.5 * (math.erfc(-hi / root2) - math.erfc(-lo / root2))
    return 0.5 * (math.erf(hi / root2) - math.erf(lo / root2))


def _folded_normal_mean(mu: float, sigma: float) -> float:
    """E|M| for M ~ N(mu, sigma^2)."""
    if sigma == 0.0:
        return abs(mu)
    z = mu / sigma
    return (sigma * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z)
            + mu * math.erf(z / math.sqrt(2.0)))


def _abs_shifted_square_mean(mu: float, sigma: float, c: float) -> float:
    """E|M^2 + c| for M ~ N(mu, sigma^2).

    For c < 0 the integrand changes sign at |M| = r = sqrt(-c), so the mean
    of M^2 + c is corrected by twice its (negative) part on (-r, r), taken
    from the truncated moments of Z = (M - mu) / sigma on (lo, hi).
    """
    mean = mu * mu + sigma * sigma + c
    if c >= 0.0 or mean == math.inf:  # the correction below is at most -c
        return mean
    if sigma == 0.0:
        return abs(mu * mu + c)
    r = math.sqrt(-c)
    lo, hi = (-r - mu) / sigma, (r - mu) / sigma
    mass = _normal_mass(lo, hi)
    z1 = _normal_pdf(lo) - _normal_pdf(hi)  # integral of z phi(z) over (lo, hi)
    z2 = mass + lo * _normal_pdf(lo) - hi * _normal_pdf(hi)  # of z^2 phi(z)
    inside = (mu * mu + c) * mass + 2.0 * mu * sigma * z1 + sigma * sigma * z2
    return mean - 2.0 * inside


def _variance(mean: float, second: float) -> float:
    """second - mean^2, plus 16 ulps of ``second`` for the rounding of the two
    moments and the subtraction, which cancels when the spread is small."""
    if not math.isfinite(second):
        return math.inf
    return max(second - mean * mean, 0.0) + 16.0 * math.ulp(1.0) * second


class ConditionallyIid(Value):
    """Mixture of i.i.d. laws: theta from ``mixing`` (a ``Distribution``), then n
    conditional draws from N(theta, scale^2), the one family there is, which
    ``conditional`` names."""

    __slots__ = _fields = ("mixing", "conditional", "scale", "n")
    _law_fields = ("mixing",)
    variant = "conditionally_iid"

    def _validate(self):
        _check_length(self.n)
        if self.conditional != "gaussian_mean":
            raise ValueError("conditionally_iid conditional must be 'gaussian_mean'; "
                             f"got {self.conditional!r}")
        object.__setattr__(self, "scale", float(_reals("conditionally_iid scale", [self.scale])[0]))
        if self.scale < 0.0:
            raise ValueError(f"scale must be nonnegative; got {self.scale}")

    def sample(self, rng: np.random.Generator, replicates: int, out=None) -> np.ndarray:
        theta = np.asarray(self.mixing.sample(rng, replicates), dtype=float)
        return _scaled(rng.standard_normal((replicates, self.n), out=out), self.scale,
                       theta[:, None])

    def ab_exact(self, y_mean, y_second, i):
        """Closed forms at i = 1 and under Gaussian mixing; None otherwise.

        With an empty prefix the conditional moments are the marginal ones,
        E X_1 = E theta and E X_1^2 = E theta^2 + scale^2, for any mixing.
        Under theta ~ N(m, tau^2) and k = i - 1 observations the posterior
        mean M = E(X_i | X_<i) is N(m, var_k) with var_k = k tau^4 /
        (scale^2 + k tau^2), and E(X_i^2 | X_<i) = M^2 + v_k + scale^2 with
        the posterior variance v_k = tau^2 scale^2 / (scale^2 + k tau^2).
        """
        s2 = self.scale * self.scale
        if i == 1:
            return _marginal_ab(self.mixing.mean(), self.mixing.second_moment() + s2,
                                y_mean, y_second)
        if not isinstance(self.mixing, Gaussian):
            return None
        m = self.mixing.mu
        sd, v_k = self._posterior(i - 1)
        return ABEstimate(_folded_normal_mean(m - y_mean, sd),
                          _abs_shifted_square_mean(m, sd, v_k + s2 - y_second), True)

    def _posterior(self, k: int) -> tuple:
        """(sqrt(var_k), v_k) under Gaussian mixing after k observations.  Where
        tau^4 or tau^2 scale^2 overflows, they are tau sqrt(w) and scale^2 w / k
        (tau^2 at w = 0) for the data's weight w = k tau^2 / (scale^2 + k tau^2)."""
        s2, tau = self.scale * self.scale, self.mixing.sigma
        tau2 = tau * tau
        if tau2 == 0.0:
            return 0.0, 0.0
        var_k = k * tau2 * tau2 / (s2 + k * tau2)
        v_k = tau2 * s2 / (s2 + k * tau2)
        if math.isfinite(var_k) and math.isfinite(v_k):
            return math.sqrt(var_k), v_k
        ratio = self.scale / tau
        w = k / (k + ratio * ratio)
        return tau * math.sqrt(w), (s2 * w / k if w else tau2)

    def ab_cap(self, y_mean, y_second, i) -> ABEstimate:
        """For any mixing law, as E(X_i | X_<i) = E(theta | X_<i) and E(X_i^2 | X_<i) =
        E(theta^2 | X_<i) + scale^2: A_i <= min(E|theta| + |c|, sqrt(E(theta - c)^2))
        with c = EY_i, and B_i <= min(E theta^2 + |a|, sqrt(E(theta^2 - a)^2)) with
        a = EY_i^2 - scale^2.  A moment with no closed form counts as inf."""
        law = self.mixing
        m1, m2 = law.mean(), law.second_moment()
        abs1, m4 = (math.inf if m is None else m for m in (law.abs_moment(1), law.abs_moment(4)))
        a = y_second - self.scale * self.scale
        return ABEstimate(_jensen_cap(abs1 + abs(y_mean), m1 - y_mean, _variance(m1, m2)),
                          _jensen_cap(m2 + abs(a), m2 - a, _variance(m2, m4)), False)

    def ridge_law(self, weights):
        """Under Gaussian mixing, w.X ~ N(m sum(w), tau^2 sum(w)^2 + scale^2 |w|^2);
        None for other mixing laws."""
        if not isinstance(self.mixing, Gaussian):
            return None
        w = np.asarray(weights, dtype=float)
        total = float(w.sum())
        return normal_quadrature(self.mixing.mu * total,
                                 math.hypot(self.mixing.sigma * total,
                                            self.scale * float(np.linalg.norm(w))))

    def abs_third_moment(self, i: int) -> float:
        """Exact under Gaussian mixing (X_i ~ N(m, tau^2 + scale^2)), at scale 0 and
        where E|theta|^3 = inf; else min((E X_i^4)^{3/4}, ((E|theta|^3)^{1/3} +
        (E|scale Z|^3)^{1/3})^3), the Lyapunov and Minkowski caps (docs/derivations.md)."""
        mixing, s = self.mixing, self.scale
        if isinstance(mixing, Gaussian):
            sd = math.sqrt(mixing.sigma * mixing.sigma + _pow(s, 2))
            return Gaussian(mixing.mu, sd).abs_moment(3) if sd < math.inf else math.inf
        m3 = mixing.abs_moment(3)
        if s == 0.0 or m3 == math.inf:
            return m3
        minkowski = _pow(m3 ** (1 / 3) + Gaussian(0.0, s).abs_moment(3) ** (1 / 3), 3)
        fourth = mixing.abs_moment(4) + s * s * (6.0 * mixing.second_moment() + 3.0 * s * s)
        return min(minkowski, fourth ** 0.75)
