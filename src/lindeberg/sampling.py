"""Seeded samplers for exchangeable, independent, and Gaussian vectors.

Every sampler is a pure function of ``(spec, seed)``: the same pair always
reproduces the same vector, and replicate streams are derived with a
counter-based splitter so parallel Monte Carlo stays reproducible.  Every
law and spec checks its fields where it is built, and nowhere else.  Each
vector spec states what the swapping bound needs of its law and nothing
else: the A_i/B_i discrepancies where an exact route exists and closed-form
caps on them where none does, the absolute third moment or a closed-form cap
on it, and the law of a ridge argument w.X + b as a quadrature where one
exists.  Choosing between exact routes and caps is left to ``swap``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import product
from typing import ClassVar, Sequence, Union, get_args

import numpy as np

from .standardize import center_and_scale

_MASK64 = (1 << 64) - 1


def derive_child(seed: int, index: int) -> int:
    """Derive a 64-bit child seed from ``(seed, index)``.

    SplitMix64-style mixing; a pure function of its two arguments, so
    replicate ``index`` always maps to the same child stream.
    """
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def rng_from(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.default_rng(int(seed) & _MASK64)


# ---------------------------------------------------------------------------
# Scalar distributions
# ---------------------------------------------------------------------------


def _reals(name: str, values) -> np.ndarray:
    """A list or tuple of finite real numbers, or a numeric array of them, as a float64
    array (a float64 array is returned as it is, its items not checked one by one);
    anything else, a string or a bool say, raises a ValueError naming ``name``."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{name} must be a list of real numbers; got {values!r}")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name}: {v!r} is not a real number")
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


class _ParamLaw:
    """A law whose fields are finite floats that meet its ``domain`` (a rule and its
    test), listed in order as its JSON ``params``."""

    def __post_init__(self):
        for f in fields(self):
            value = float(_reals(f"{self.kind} {f.name}", [getattr(self, f.name)])[0])
            object.__setattr__(self, f.name, value)
        rule, holds = self.domain
        if not holds(self):
            raise ValueError(f"{self.kind} needs {rule}; got {self.to_dict()['params']}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": [getattr(self, f.name) for f in fields(self)]}

    @classmethod
    def from_dict(cls, d: dict):
        params = d["params"]
        names = [f.name for f in fields(cls)]
        if not isinstance(params, list) or len(params) != len(names):
            raise ValueError(f"{cls.kind} params must be [{', '.join(names)}]; got {params!r}")
        return cls(*params)


@dataclass(frozen=True)
class Gaussian(_ParamLaw):
    """N(mu, sigma^2); sigma = 0 is the point mass at mu."""

    mu: float = 0.0
    sigma: float = 1.0
    kind: ClassVar[str] = "gaussian"
    domain: ClassVar[tuple] = ("sigma >= 0", lambda law: law.sigma >= 0)

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        """``rng.normal(mu, sigma, size)`` bit for bit, drawn into ``out`` when given."""
        return _scaled(rng.standard_normal(size, out=out), self.sigma, self.mu)

    def mean(self) -> float:
        return self.mu

    def second_moment(self) -> float:
        return self.mu * self.mu + self.sigma * self.sigma

    def abs_moment(self, p: int):
        """E|X|^p; closed forms for mu = 0 and for p = 3, else None.  Infinite where
        the moment overflows a float."""
        mu, sigma = self.mu, self.sigma
        if mu == 0.0:
            # E|sigma Z|^p = sigma^p 2^{p/2} Gamma((p+1)/2) / sqrt(pi)
            return _pow(sigma, p) * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
        if p != 3:
            return None
        if sigma == 0.0:
            return _pow(abs(mu), 3)
        z = mu / sigma
        if abs(z) > 40.0:  # phi(z) underflows and erf is +-1: |mu|^3 + 3 |mu| sigma^2
            return abs(mu) * (mu * mu + 3.0 * sigma * sigma)
        # E|sigma (Z + z)|^3 = sigma^3 [2 (z^2 + 2) phi(z) + (z^3 + 3z) erf(z / sqrt 2)]
        return _pow(sigma, 3) * (2.0 * (z * z + 2.0) * _normal_pdf(z)
                                 + (z ** 3 + 3.0 * z) * math.erf(z / math.sqrt(2.0)))

    def ridge_law(self, weights, offset: float):
        """b + sum_j w_j X_j ~ N(b + mu sum(w), sigma^2 |w|^2)."""
        w = np.asarray(weights, dtype=float)
        return normal_quadrature(offset + self.mu * float(w.sum()),
                                 self.sigma * float(np.linalg.norm(w)))


@dataclass(frozen=True)
class Uniform(_ParamLaw):
    """Uniform on [low, high]; the width high - low must be a finite float, as
    the draws are low + (high - low) u."""

    low: float
    high: float
    kind: ClassVar[str] = "uniform"
    domain: ClassVar[tuple] = ("0 < high - low < inf",
                               lambda law: 0 < law.high - law.low < math.inf)

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        """``rng.uniform(low, high, size)`` bit for bit, drawn into ``out`` when given."""
        return _scaled(rng.random(size, out=out), self.high - self.low, self.low)

    def mean(self) -> float:
        return 0.5 * self.low + 0.5 * self.high  # finite whenever the mean is

    def second_moment(self) -> float:
        a, b = self.low, self.high
        value = (a * a + a * b + b * b) / 3.0
        if math.isfinite(value):
            return value
        m = max(abs(a), abs(b))  # the squares overflow: work in units of the larger bound
        a, b = a / m, b / m
        return m * (m * ((a * a + a * b + b * b) / 3.0))

    def abs_moment(self, p: int) -> float:
        """E|X|^p.  With both bounds of one sign, the sum of |low|^k |high|^(p-k) / (p+1)
        over k = 0..p, which has no cancellation; otherwise (F(high) - F(low)) /
        (high - low) for F(x) = sign(x) |x|^(p+1) / (p+1).  In units of the larger
        |bound| when a power overflows; infinite when the moment itself does."""

        def moment(a, b):
            if a > 0 or b < 0:
                a, b = abs(a), abs(b)
                return math.fsum(a ** k * b ** (p - k) for k in range(p + 1)) / (p + 1)
            anti = lambda x: math.copysign(abs(x) ** (p + 1) / (p + 1), x)
            return (anti(b) - anti(a)) / (b - a)

        try:
            return moment(self.low, self.high)
        except OverflowError:
            m = max(abs(self.low), abs(self.high))
            return _pow(m, p) * moment(self.low / m, self.high / m)

    def cf(self, t):
        """E e^{itX} = e^{i (low + high) t / 2} sin(h t) / (h t), with h = (high - low) / 2."""
        t = np.asarray(t, dtype=float)
        half = 0.5 * self.high - 0.5 * self.low
        return np.exp(1j * self.mean() * t) * np.sinc(half * t / np.pi)

    def ridge_law(self, weights, offset: float):
        """The density of b + sum_j w_j X_j by inverting its characteristic function.

        The sum is centre + U with U supported on [-R, R], R = h sum|w_j|, and U's
        2R-periodic extension has Fourier coefficients psi(pi k / R) / (2R), where
        psi(t) = prod_j E e^{i w_j t (X_j - EX_j)} is real.  The density is summed
        over k = 1..1024 at the points of [-R, R] spaced R / 400 apart, by
        Clenshaw's recurrence, and integrated by the trapezoid rule; the check
        rule takes 724 terms and a spacing sqrt(2) times wider.  With one nonzero
        weight the sum is uniform on [centre - R, centre + R], whose density
        jumps at the ends: Gauss-Legendre rules of 64 and 45 nodes on that
        interval integrate it instead.
        """
        w = np.asarray(weights, dtype=float)
        half = 0.5 * self.high - 0.5 * self.low
        centre = offset + self.mean() * float(w.sum())
        radius = half * float(np.abs(w).sum())
        if not (math.isfinite(centre) and math.isfinite(radius)):
            return None
        if radius == 0.0:
            return RidgeLaw(np.array([centre]), np.ones(1))
        if np.count_nonzero(w) == 1:
            from numpy.polynomial.legendre import leggauss

            def legendre(nodes: int) -> RidgeLaw:
                x, weights = leggauss(nodes)
                return RidgeLaw(centre + radius * x, 0.5 * weights)

            return replace(legendre(64), check=legendre(45))
        centred = Uniform(-half, half)
        scales, counts = np.unique(np.abs(w), return_counts=True)

        def rule(terms: int, step: float) -> RidgeLaw:
            k = np.arange(1, terms + 1)
            psi = np.ones(terms)
            for scale, count in zip(scales, counts):
                psi *= centred.cf(scale * np.pi * k / radius).real ** count
            x = _symmetric_grid(step, 1.0)
            # the density vanishes at +-1, so the trapezoid weights are all equal
            probs = 0.5 * step * (1.0 + 2.0 * _cosine_series(x, psi))
            return RidgeLaw(centre + radius * x, probs)

        step = 1.0 / 400.0
        return replace(rule(1024, step), check=rule(724, math.sqrt(2.0) * step))


@dataclass(frozen=True)
class StudentT(_ParamLaw):
    """Student's t with df degrees of freedom."""

    df: float
    kind: ClassVar[str] = "student_t"
    domain: ClassVar[tuple] = ("df > 0", lambda law: law.df > 0)

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        return _filled(out, rng.standard_t(self.df, size))

    def mean(self) -> float:
        return 0.0

    def second_moment(self) -> float:
        return self.df / (self.df - 2.0) if self.df > 2 else math.inf

    def abs_moment(self, p: int) -> float:
        """df^{p/2} Gamma((p+1)/2) Gamma((df-p)/2) / (sqrt(pi) Gamma(df/2)), infinite
        for p >= df; the Gammas are taken as logs, as Gamma(df/2) overflows past df ~ 340."""
        df = self.df
        if p >= df:
            return math.inf
        return math.exp(0.5 * p * math.log(df) + math.lgamma((p + 1) / 2)
                        + math.lgamma((df - p) / 2) - math.lgamma(df / 2)) / math.sqrt(math.pi)

    def ridge_law(self, weights, offset: float):
        """No exact route: sums of t variables have no closed-form law."""
        return None


@dataclass(frozen=True)
class Finite:
    """Atoms ``values`` with probabilities ``probs`` (nonnegative, summing to 1)."""

    values: tuple
    probs: tuple
    kind: ClassVar[str] = "finite"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_reals("finite values", self.values).tolist()))
        object.__setattr__(self, "probs", tuple(_reals("finite probs", self.probs).tolist()))
        if not (self.values and len(self.probs) == len(self.values)
                and _is_probability_vector(self.probs)):
            raise ValueError("finite law needs at least one atom, one probability per atom, "
                             "and probabilities that are nonnegative and sum to 1")

    def sample(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        return _filled(out, rng.choice(np.asarray(self.values, dtype=float), size=size,
                                       p=np.asarray(self.probs, dtype=float)))

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def second_moment(self) -> float:
        return float(np.dot(np.square(self.values), self.probs))

    def abs_moment(self, p: int) -> float:
        return float(np.dot(np.abs(self.values) ** p, self.probs))

    def ridge_law(self, weights, offset: float):
        """No exact route is implemented for weighted sums of atoms."""
        return None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "values": list(self.values), "probs": list(self.probs)}

    @classmethod
    def from_dict(cls, d: dict) -> "Finite":
        return cls(d["values"], d["probs"])


Distribution = Union[Gaussian, Uniform, StudentT, Finite]

_LAW_TYPES = {cls.kind: cls for cls in get_args(Distribution)}


def _law_from_dict(d: dict) -> Distribution:
    cls = _LAW_TYPES.get(d["kind"])
    if cls is None:
        raise ValueError(f"law kind must be one of {', '.join(_LAW_TYPES)}; got {d['kind']!r}")
    law = cls.from_dict(d)
    unknown = sorted(set(d) - set(law.to_dict()))
    if unknown:
        raise ValueError(f"unknown key(s) in {cls.kind} law: {', '.join(unknown)}")
    return law


gaussian, uniform, student_t = Gaussian, Uniform, StudentT


def _cosine_series(x: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_k coefs[k-1] cos(pi k x) over k = 1..len(coefs), by Clenshaw's recurrence
    b_k = coefs[k-1] + 2 cos(pi x) b_{k+1} - b_{k+2}: one pass over the
    coefficients, with no table of cosines."""
    c = np.cos(np.pi * x)
    two_c = 2.0 * c
    b1 = np.zeros_like(c)
    b2 = np.zeros_like(c)
    for a in coefs[::-1]:
        b1, b2 = a + two_c * b1 - b2, b1
    return c * b1 - b2


def _is_probability_vector(probs: tuple) -> bool:
    """Whether nonempty finite ``probs`` are nonnegative and sum to 1 within 1e-12."""
    return min(probs) >= 0 and abs(sum(probs) - 1.0) <= 1e-12


def _pow(x: float, p) -> float:
    """x ** p for x >= 0; infinite where that overflows a float."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Laws of a ridge argument w.X + b, as quadratures
# ---------------------------------------------------------------------------

# A stated error above this means the rule cannot resolve the integrand.
_QUADRATURE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class RidgeLaw:
    """The law of a ridge argument w.X + b as ``nodes`` with probabilities ``probs``.

    ``check`` is the same construction at a resolution lower by sqrt(2), or None
    when the nodes are the law's exact atoms.  Its node spacing is an irrational
    multiple of this rule's, so no integrand period divides both: an integrand
    the rules cannot resolve makes them disagree instead of aliasing alike.
    """

    nodes: np.ndarray
    probs: np.ndarray
    check: RidgeLaw | None = None

    def expect(self, g):
        """(E g, stated error), the error being the gap to the check rule; None when
        that error exceeds 1e-6 or is not a number."""
        value = float(np.dot(self.probs, g(self.nodes)))
        if self.check is None:
            return value, 0.0
        error = abs(value - float(np.dot(self.check.probs, g(self.check.nodes))))
        return (value, error) if error <= _QUADRATURE_TOL else None


def _symmetric_grid(step: float, half_width: float) -> np.ndarray:
    """The multiples of ``step`` in [-half_width, half_width]."""
    k = int(half_width / step)
    return step * np.arange(-k, k + 1)


def _normal_rule(step: float):
    z = _symmetric_grid(step, 12.0)
    return z, step * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


# Trapezoid rules in standard units z on [-12, 12].  For g analytic in the strip
# |Im z| < a, the error at step h is of order exp(-2 pi a / h), and the tails
# beyond 12 carry 4e-33 of the mass.
_NORMAL_RULE = _normal_rule(0.1)
_NORMAL_CHECK = _normal_rule(0.1 * math.sqrt(2.0))


def normal_quadrature(mean: float, sd: float):
    """N(mean, sd^2) as a ``RidgeLaw``; None unless both parameters are finite."""
    if not (math.isfinite(mean) and math.isfinite(sd)):
        return None
    if sd == 0.0:
        return RidgeLaw(np.array([mean]), np.ones(1))
    (z, probs), (zc, probs_c) = _NORMAL_RULE, _NORMAL_CHECK
    return RidgeLaw(mean + sd * z, probs, RidgeLaw(mean + sd * zc, probs_c))


def _common_weight(weights):
    """The weight shared by every coordinate, or None when they differ."""
    w = np.asarray(weights, dtype=float)
    return float(w[0]) if w.size and np.all(w == w[0]) else None


# ---------------------------------------------------------------------------
# Exchangeable / weakly dependent vector specs.  Each class checks its fields
# where it is built and nowhere else, and owns its sampler (``sample``) and
# its law's oracles: ``ab_exact`` (None without an exact route), ``ridge_law``,
# ``abs_third_moment`` (closed forms only), and ``ab_cap`` (closed-form caps on
# A_i/B_i) where ``ab_exact`` can return None.  Its JSON form is its
# constructor's parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ABEstimate:
    """Discrepancies A_i, B_i: their values when ``exact``, else closed-form caps on them."""

    a: float
    b: float
    exact: bool


def _marginal_ab(m1: float, m2: float, y_mean: float, y_second: float) -> ABEstimate:
    """A_i, B_i when X_i's conditional moments are its marginal ones, m1 = E X_i and
    m2 = E X_i^2: for i = 1, whose prefix is empty, and for independent coordinates."""
    return ABEstimate(abs(m1 - y_mean), abs(m2 - y_second), True)


def _jensen_cap(l1: float, shift: float, spread: float) -> float:
    """min(l1, sqrt(shift^2 + spread)), the L1 and L2 caps on E|E(V | X_<i) - c|
    (docs/derivations.md); inf where a moment is."""
    return min(l1, math.sqrt(shift * shift + spread))


def _prefix_count_distribution(counts: Sequence[int], k: int):
    """Joint law of per-value draw counts after k draws without replacement.

    Yields (count_vector, probability); the weights are multivariate
    hypergeometric.
    """
    n = sum(counts)
    total = math.comb(n, k)
    ranges = [range(0, min(c, k) + 1) for c in counts]
    for combo in product(*ranges):
        if sum(combo) != k:
            continue
        weight = 1
        for c, kk in zip(counts, combo):
            weight *= math.comb(c, kk)
        yield combo, weight / total


_ENUMERATION_BUDGET = 200_000


def _check_length(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer; got {n!r}")
    if n > np.iinfo(np.intp).max:
        raise ValueError(f"n must be at most {np.iinfo(np.intp).max}, numpy's largest "
                         f"array size; got {n}")


class MultisetPermutation:
    """Uniformly random permutation of a fixed value multiset (exchangeable).

    The values are stored once, at construction.  When they form few runs of
    equal consecutive values (runs^2 <= n, equal meaning bit for bit), they are
    stored as those runs: one value and one end offset per run, which
    ``sample`` fills in one slice each.  Otherwise they
    are stored as a read-only float64 array: one that owns its memory is kept
    as it is, anything else is copied.  ``values`` gives that array either way.
    """

    __slots__ = ("_values", "_runs")
    variant: ClassVar[str] = "multiset"

    def __init__(self, values):
        array = _reals("multiset values", values)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("multiset values must be a nonempty sequence of numbers")
        bits = array.view(np.int64)
        change = bits[1:] != bits[:-1]
        self._values = self._runs = None
        if (1 + np.count_nonzero(change)) ** 2 <= array.size:
            ends = np.append(np.flatnonzero(change) + 1, array.size)
            self._runs = (array[ends - 1], ends)
            return
        if array is values and (array.flags.writeable or not array.flags.owndata):
            array = array.copy()
        array.setflags(write=False)
        self._values = array

    @property
    def values(self) -> np.ndarray:
        if self._runs is None:
            return self._values
        run_values, ends = self._runs
        values = np.repeat(run_values, np.diff(ends, prepend=0))
        values.setflags(write=False)
        return values

    def __repr__(self):
        return f"MultisetPermutation(values={self.values!r})"

    def __eq__(self, other):
        if not isinstance(other, MultisetPermutation):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.values.tobytes())

    @property
    def n(self) -> int:
        return self._values.size if self._runs is None else int(self._runs[1][-1])

    def sample(self, rng: np.random.Generator, replicates: int, out=None) -> np.ndarray:
        if out is None:
            out = np.empty((replicates, self.n))
        if self._runs is None:
            out[...] = self._values
        else:
            start = 0
            for value, end in zip(*self._runs):
                out[:, start:end] = value
                start = end
        return rng.permuted(out, axis=1, out=out)

    def ab_exact(self, y_mean, y_second, i):
        """By enumerating the prefix's value counts; None past the budget."""
        values, counts = np.unique(self.values, return_counts=True)
        budget = 1
        for c in counts:
            budget *= min(int(c), i - 1) + 1
            if budget > _ENUMERATION_BUDGET:
                return None
        total_sum = float(np.dot(values, counts))
        total_sq = float(np.dot(values * values, counts))
        rest = self.n - (i - 1)
        a = b = 0.0
        for combo, p in _prefix_count_distribution([int(c) for c in counts], i - 1):
            combo = np.asarray(combo)
            cond_mean = (total_sum - float(np.dot(values, combo))) / rest
            cond_sq = (total_sq - float(np.dot(values * values, combo))) / rest
            a += p * abs(cond_mean - y_mean)
            b += p * abs(cond_sq - y_second)
        return ABEstimate(a, b, True)

    def ab_cap(self, y_mean, y_second, i) -> ABEstimate:
        """For V = X_i or X_i^2 against its target c: mean |v - c| over the values
        of V, or the root of (mean - c)^2 plus the variance of the mean of the
        n - k values a k-prefix leaves (k = i - 1), whichever is smaller."""
        n, k = self.n, i - 1
        share = k / ((n - 1) * (n - k)) if k else 0.0
        values = self.values
        a, b = (_jensen_cap(float(np.mean(np.abs(v - c))), float(np.mean(v)) - c,
                            share * float(np.var(v)))
                for v, c in ((values, y_mean), (values * values, y_second)))
        return ABEstimate(a, b, False)

    def abs_third_moment(self, i: int):
        return float(np.mean(np.abs(self.values) ** 3))

    def ridge_law(self, weights, offset: float):
        """One atom when every weight is equal, as every permutation has the same
        sum; None otherwise."""
        if _common_weight(weights) is None:
            return None
        atom = float(self.values @ np.asarray(weights, dtype=float)) + offset
        return RidgeLaw(np.array([atom]), np.ones(1))


@dataclass(frozen=True)
class IidFromDistribution:
    """n independent draws from a scalar distribution (exchangeable)."""

    dist: Distribution
    n: int
    variant: ClassVar[str] = "iid"

    def __post_init__(self):
        _check_length(self.n)

    def sample(self, rng: np.random.Generator, replicates: int, out=None) -> np.ndarray:
        return self.dist.sample(rng, (replicates, self.n), out)

    def ab_exact(self, y_mean, y_second, i) -> ABEstimate:
        return _marginal_ab(self.dist.mean(), self.dist.second_moment(), y_mean, y_second)

    def abs_third_moment(self, i: int):
        return self.dist.abs_moment(3)

    def ridge_law(self, weights, offset: float):
        return self.dist.ridge_law(weights, offset)


@dataclass(frozen=True)
class MarkovChain:
    """Finite-state chain with real state values.

    Generally not exchangeable; admitted as a weakly dependent input for the
    swapping bound, never for the exchangeable summarization bound.
    """

    states: tuple
    initial: tuple
    kernel: tuple
    n: int
    variant: ClassVar[str] = "markov"

    def __post_init__(self):
        _check_length(self.n)
        object.__setattr__(self, "states", tuple(_reals("markov states", self.states).tolist()))
        object.__setattr__(self, "initial", tuple(_reals("markov initial", self.initial).tolist()))
        object.__setattr__(self, "kernel", tuple(tuple(_reals("markov kernel", row).tolist())
                                                 for row in self.kernel))
        k = len(self.states)
        if not self.states:
            raise ValueError("markov states must hold at least one state")
        if not (len(self.initial) == k and _is_probability_vector(self.initial)):
            raise ValueError(f"markov initial must hold one probability per state ({k}), "
                             f"nonnegative and summing to 1; got {list(self.initial)}")
        if not (len(self.kernel) == k and all(len(row) == k and _is_probability_vector(row)
                                              for row in self.kernel)):
            raise ValueError(f"markov kernel must be {k} x {k}, each row nonnegative "
                             "and summing to 1 within 1e-12")

    @cached_property
    def _step_laws(self) -> tuple:
        """The laws of the state at steps 1..n, each the one before times the kernel."""
        kernel = np.asarray(self.kernel)
        laws = [np.asarray(self.initial, dtype=float)]
        for _ in range(self.n - 1):
            laws.append(laws[-1] @ kernel)
        return tuple(laws)

    def sample(self, rng: np.random.Generator, replicates: int, out=None) -> np.ndarray:
        """Inverse-cdf draws from one row-major block of uniforms: column 0 goes
        through the initial law, column t through the kernel row of state t-1.
        Each column of uniforms is overwritten by its states once used."""
        kernel_cum = np.cumsum(self.kernel, axis=1)
        states = np.asarray(self.states, dtype=float)
        draws = rng.random((replicates, self.n), out=out)
        cum = np.cumsum(self.initial)
        for t in range(self.n):
            idx = np.minimum((draws[:, t, None] >= cum).sum(axis=1), len(states) - 1)
            draws[:, t] = states[idx]
            cum = kernel_cum[idx]
        return draws

    def ab_exact(self, y_mean, y_second, i) -> ABEstimate:
        kernel = np.asarray(self.kernel)
        states = np.asarray(self.states)
        if i == 1:
            return _marginal_ab(float(np.dot(self.initial, states)),
                                float(np.dot(self.initial, states * states)), y_mean, y_second)
        prev = self._step_laws[i - 2]
        a = float(np.dot(prev, np.abs(kernel @ states - y_mean)))
        b = float(np.dot(prev, np.abs(kernel @ (states * states) - y_second)))
        return ABEstimate(a, b, True)

    def abs_third_moment(self, i: int):
        return float(np.dot(self._step_laws[i - 1], np.abs(self.states) ** 3))

    def ridge_law(self, weights, offset: float):
        """Exact atoms when every weight is equal: the sum is fixed by how often
        each state is visited, and the law of those counts follows from a dynamic
        program over (current state, counts).  None for unequal weights or when
        the count table would exceed the enumeration budget.
        """
        w = _common_weight(weights)
        k, n = len(self.states), self.n
        if w is None or k * (n + 1) ** (k - 1) > _ENUMERATION_BUDGET:
            return None
        kernel = np.asarray(self.kernel)

        def visit(j, table):
            """``table`` over the counts of states 0..k-2, after one more visit to j."""
            if j == k - 1:  # the last state's count is n minus the others
                return table
            out = np.zeros_like(table)
            src, dst = [slice(None)] * (k - 1), [slice(None)] * (k - 1)
            src[j], dst[j] = slice(0, -1), slice(1, None)
            out[tuple(dst)] = table[tuple(src)]
            return out

        start = np.zeros((n + 1,) * (k - 1))
        start[(0,) * (k - 1)] = 1.0
        mass = np.stack([p * visit(j, start) for j, p in enumerate(self.initial)])
        for _ in range(n - 1):
            mass = np.stack([visit(j, np.tensordot(kernel[:, j], mass, axes=1))
                             for j in range(k)])
        probs = mass.sum(axis=0).reshape(-1)
        counts = np.indices(mass.shape[1:]).reshape(k - 1, probs.size)
        keep = probs > 0.0
        counts = counts[:, keep]
        states = np.asarray(self.states, dtype=float)
        totals = states[:-1] @ counts + states[-1] * (n - counts.sum(axis=0))
        return RidgeLaw(offset + w * totals, probs[keep])


def _normal_mass(lo: float, hi: float) -> float:
    """P(lo < Z < hi) for standard normal Z, from erfc in either tail."""
    root2 = math.sqrt(2.0)
    if lo > 0.0:
        return 0.5 * (math.erfc(lo / root2) - math.erfc(hi / root2))
    if hi < 0.0:
        return 0.5 * (math.erfc(-hi / root2) - math.erfc(-lo / root2))
    return 0.5 * (math.erf(hi / root2) - math.erf(lo / root2))


def _normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


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
    if c >= 0.0:
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
    return max(second - mean * mean, 0.0) + 16.0 * np.finfo(float).eps * second


@dataclass(frozen=True)
class ConditionallyIid:
    """Mixture of i.i.d. laws: theta from ``mixing``, then n conditional draws from
    N(theta, scale^2), the one family there is, which ``conditional`` names."""

    mixing: Distribution
    conditional: str
    scale: float
    n: int
    variant: ClassVar[str] = "conditionally_iid"

    def __post_init__(self):
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
        m, tau = self.mixing.mu, self.mixing.sigma
        k = i - 1
        tau2 = tau * tau
        if tau2 == 0.0:
            var_k = v_k = 0.0
        else:
            var_k = k * tau2 * tau2 / (s2 + k * tau2)
            v_k = tau2 * s2 / (s2 + k * tau2)
        sd = math.sqrt(var_k)
        return ABEstimate(_folded_normal_mean(m - y_mean, sd),
                          _abs_shifted_square_mean(m, sd, v_k + s2 - y_second), True)

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

    def ridge_law(self, weights, offset: float):
        """Under Gaussian mixing, b + w.X ~ N(b + m sum(w), tau^2 sum(w)^2 + scale^2 |w|^2);
        None for other mixing laws."""
        if not isinstance(self.mixing, Gaussian):
            return None
        w = np.asarray(weights, dtype=float)
        total = float(w.sum())
        return normal_quadrature(offset + self.mixing.mu * total,
                                 math.hypot(self.mixing.sigma * total,
                                            self.scale * float(np.linalg.norm(w))))

    def abs_third_moment(self, i: int) -> float:
        """Exact under Gaussian mixing (X_i ~ N(m, tau^2 + scale^2)), at scale 0 and
        where E|theta|^3 = inf; else min((E X_i^4)^{3/4}, ((E|theta|^3)^{1/3} +
        (E|scale Z|^3)^{1/3})^3), the Lyapunov and Minkowski caps (docs/derivations.md)."""
        mixing, s = self.mixing, self.scale
        if isinstance(mixing, Gaussian):
            sd = math.sqrt(mixing.sigma * mixing.sigma + s ** 2)
            return Gaussian(mixing.mu, sd).abs_moment(3)
        m3 = mixing.abs_moment(3)
        if s == 0.0 or m3 == math.inf:
            return m3
        minkowski = _pow(m3 ** (1 / 3) + Gaussian(0.0, s).abs_moment(3) ** (1 / 3), 3)
        fourth = mixing.abs_moment(4) + s * s * (6.0 * mixing.second_moment() + 3.0 * s * s)
        return min(minkowski, fourth ** 0.75)


ExchangeableSpec = Union[MultisetPermutation, IidFromDistribution, MarkovChain, ConditionallyIid]

_SPEC_TYPES = {cls.variant: cls for cls in get_args(ExchangeableSpec)}


# Elements per row block of Monte Carlo draws: 1 MiB of float64.
_BLOCK_ELEMENTS = 1 << 17


def row_blocks(replicates: int, n: int):
    """Slices that cover rows 0..replicates-1 in blocks of about 1 MiB of
    float64 for vectors of length n."""
    rows = max(1, _BLOCK_ELEMENTS // n)
    return (slice(start, min(start + rows, replicates))
            for start in range(0, replicates, rows))


class RunningMean:
    """Mean and standard error of the mean of float64 blocks fed in turn, kept as
    the count, the mean and M2, the sum of squared deviations from the mean.  A
    first block gives ``v.mean()`` and ``v.std(ddof=1) / sqrt(v.size)`` bit for
    bit; each later one is merged by Chan et al.'s pairwise update.  ``add``
    overwrites its block with the squared deviations from the block's mean.
    """

    count, mean, m2 = 0, 0.0, 0.0

    def add(self, values):
        mean = values.mean()
        np.square(np.subtract(values, mean, out=values), out=values)
        size, mean, m2 = values.size, float(mean), float(values.sum())
        if self.count:
            total = self.count + size
            delta = mean - self.mean
            mean = self.mean + delta * (size / total)
            m2 = self.m2 + m2 + delta * delta * (self.count * size / total)
            size = total
        self.count, self.mean, self.m2 = size, mean, m2
        return self

    def result(self) -> tuple:
        """(mean, standard error of the mean)."""
        return self.mean, math.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)


def _scaled(x, scale, shift):
    """``x * scale + shift``, computed in place in that order."""
    x *= scale
    x += shift
    return x


def _filled(out, draws: np.ndarray) -> np.ndarray:
    """``draws``, or ``out`` holding a copy of them when ``out`` is given."""
    if out is None:
        return draws
    out[...] = draws
    return out


def sample_batch(spec: ExchangeableSpec, seed: int | np.random.Generator,
                 replicates: int, out: np.ndarray | None = None) -> np.ndarray:
    """Draw ``replicates`` independent vectors; shape (replicates, n).

    ``seed`` is a 64-bit seed or a Generator to keep drawing from.  Row blocks
    drawn in turn from one Generator concatenate to the single batch of the
    same size, except for ``ConditionallyIid``: it draws a block's mixing
    parameters before that block's noise.  ``out``, a float64 array of shape
    (replicates, n), receives the same draws when given: a multiset is
    permuted in place there, i.i.d. Student t and finite laws are drawn and
    copied in, and every other law is drawn straight into it.
    """
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
    return spec.sample(rng, replicates, out)


def sample_exchangeable(spec: ExchangeableSpec, seed: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """One draw from the spec's law, shape (n,); written into ``out``, a
    float64 array of that shape, when given."""
    return sample_batch(spec, seed, 1, None if out is None else out[None])[0]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def spec_from_dict(d: dict) -> ExchangeableSpec:
    """Build a spec from its JSON document: ``variant`` names the class, and each
    constructor parameter is read from the key of its name, a ``Distribution`` in
    its law form (``kind`` with ``params``, or ``values`` and ``probs``).  A
    malformed document, or one with a key that is not a parameter, raises ValueError."""
    variant = d.get("variant") if isinstance(d, dict) else None
    cls = _SPEC_TYPES.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"spec variant must be one of {', '.join(_SPEC_TYPES)}; "
                         f"got {variant!r}")
    params = inspect.signature(cls).parameters
    unknown = sorted(set(d) - {"variant", *params})
    if unknown:
        raise ValueError(f"unknown key(s) in {variant} spec: {', '.join(unknown)}")
    try:
        return cls(**{name: _law_from_dict(d[name]) if p.annotation == "Distribution"
                      else d[name] for name, p in params.items()})
    except (KeyError, TypeError, OverflowError) as exc:  # a missing or mistyped field
        raise ValueError(f"malformed {variant} spec ({type(exc).__name__}: {exc})") from None


def balanced_signs(n: int) -> np.ndarray:
    """The near-balanced +-1 multiset of size n: its first n // 2 values are -1."""
    return np.repeat([-1.0, 1.0], [n // 2, n - n // 2])


def standardized_multiset(values: Sequence[float]) -> MultisetPermutation:
    """Multiset spec whose values are standardized to mean 0, mean-square 1."""
    std = center_and_scale(np.asarray(values, dtype=float))
    if std.sigma_hat == 0.0:
        raise ValueError("cannot standardize a constant multiset")
    std.x_tilde.setflags(write=False)  # a fresh array: the spec keeps it without a copy
    return MultisetPermutation(std.x_tilde)
