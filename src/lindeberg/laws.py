"""Scalar laws, and the laws of a ridge argument w.X as quadratures.

Each law checks its fields where it is built, and nowhere else.  It owns its
sampler and what the swapping bound needs of it: its moments (infinite where
a moment overflows a float) and the law of w.X for i.i.d. coordinates as
a quadrature where one exists.  Its JSON form is ``kind`` with its fields.
"""

from __future__ import annotations

import math
from typing import Union, get_args

import numpy as np

from .value import Value


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


class _ParamLaw(Value):
    """A law whose fields are finite floats that meet its ``domain`` (a rule and its
    test), listed in order as its JSON ``params``."""

    __slots__ = ()

    def _validate(self):
        for name in self._fields:
            value = float(_reals(f"{self.kind} {name}", [getattr(self, name)])[0])
            object.__setattr__(self, name, value)
        rule, holds = self.domain
        if not holds(self):
            raise ValueError(f"{self.kind} needs {rule}; got {self.to_dict()['params']}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self._astuple())}

    @classmethod
    def from_dict(cls, d: dict):
        params = d["params"]
        if not isinstance(params, list) or len(params) != len(cls._fields):
            raise ValueError(f"{cls.kind} params must be [{', '.join(cls._fields)}]; "
                             f"got {params!r}")
        return cls(*params)


class Gaussian(_ParamLaw):
    """N(mu, sigma^2); sigma = 0 is the point mass at mu."""

    __slots__ = _fields = ("mu", "sigma")
    _defaults = {"mu": 0.0, "sigma": 1.0}
    kind = "gaussian"
    domain = ("sigma >= 0", lambda law: law.sigma >= 0)

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

    def ridge_law(self, weights):
        """sum_j w_j X_j ~ N(mu sum(w), sigma^2 |w|^2)."""
        w = np.asarray(weights, dtype=float)
        return normal_quadrature(self.mu * float(w.sum()),
                                 self.sigma * float(np.linalg.norm(w)))


class Uniform(_ParamLaw):
    """Uniform on [low, high]; the width high - low must be a finite float, as
    the draws are low + (high - low) u."""

    __slots__ = _fields = ("low", "high")
    kind = "uniform"
    domain = ("0 < high - low < inf", lambda law: 0 < law.high - law.low < math.inf)

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

    def ridge_law(self, weights):
        """The law of sum_j w_j X_j, as a product rule or from its characteristic function.

        With at most three nonzero weights, the product of Gauss-Legendre rules of
        64 nodes on each coordinate's interval integrates it, and the product of
        45-node rules is the check rule.  (The sum's density has kinks or jumps
        there, which a density series resolves slowly.)

        With more, the sum is centre + U with U supported on [-R, R], R = h sum|w_j|,
        and U's 2R-periodic extension has Fourier coefficients psi(pi k / R) / (2R),
        where psi(t) = prod_j E e^{i w_j t (X_j - EX_j)} is real.  The density is
        summed over k = 1..1024 at the points of [-R, R] spaced R / 400 apart, by
        Clenshaw's recurrence, and integrated by the trapezoid rule; the check rule
        takes 724 terms and a spacing sqrt(2) times wider.
        """
        w = np.asarray(weights, dtype=float)
        half = 0.5 * self.high - 0.5 * self.low
        centre = self.mean() * float(w.sum())
        radius = half * float(np.abs(w).sum())
        if not (math.isfinite(centre) and math.isfinite(radius)):
            return None
        if radius == 0.0:
            return RidgeLaw(np.array([centre]), np.ones(1))
        if np.count_nonzero(w) <= 3:
            from numpy.polynomial.legendre import leggauss

            def product_rule(nodes: int) -> tuple:
                x, x_weights = leggauss(nodes)
                sums, probs = np.array([centre]), np.ones(1)
                for w_j in w[w != 0.0]:
                    sums = np.add.outer(sums, half * w_j * x).ravel()
                    probs = np.multiply.outer(probs, 0.5 * x_weights).ravel()
                return sums, probs

            return RidgeLaw(*product_rule(64), product_rule(45))
        centred = Uniform(-half, half)
        scales, counts = np.unique(np.abs(w), return_counts=True)
        if not math.isfinite(float(scales[-1]) * math.pi * 1024 / radius):
            return None  # the rule's top frequency overflows a float for so narrow a law

        def rule(terms: int, step: float) -> tuple:
            k = np.arange(1, terms + 1)
            psi = np.ones(terms)
            for scale, count in zip(scales, counts):
                psi *= centred.cf(scale * np.pi * k / radius).real ** count
            x = _symmetric_grid(step, 1.0)
            # the density vanishes at +-1, so the trapezoid weights are all equal
            probs = 0.5 * step * (1.0 + 2.0 * _cosine_series(x, psi))
            return centre + radius * x, probs

        step = 1.0 / 400.0
        return RidgeLaw(*rule(1024, step), rule(724, math.sqrt(2.0) * step))


class StudentT(_ParamLaw):
    """Student's t with df degrees of freedom."""

    __slots__ = _fields = ("df",)
    kind = "student_t"
    domain = ("df > 0", lambda law: law.df > 0)

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

    def ridge_law(self, weights):
        """No exact route: sums of t variables have no closed-form law."""
        return None


class Finite(Value):
    """Atoms ``values`` with probabilities ``probs`` (nonnegative, summing to 1)."""

    __slots__ = _fields = ("values", "probs")
    kind = "finite"

    def _validate(self):
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
        return self._expect(np.square)

    def abs_moment(self, p: int) -> float:
        return self._expect(lambda v: np.abs(v) ** p)

    def _expect(self, power) -> float:
        """sum_j probs_j power(values_j); infinite where a power overflows a float."""
        with np.errstate(over="ignore"):
            return float(_expectation(self.probs, power(np.asarray(self.values))))

    def ridge_law(self, weights):
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


def _expectation(probs, values):
    """probs @ values over the last axis, with 0 * inf taken as 0: an outcome of
    probability 0 adds nothing, even where its power overflows a float."""
    probs = np.asarray(probs, dtype=float)
    if np.isfinite(values).all():
        return probs @ values
    return (probs * np.where(probs > 0.0, values, 0.0)).sum(axis=-1)


def _pow(x: float, p) -> float:
    """x ** p for x >= 0; infinite where that overflows a float."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


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


# ---------------------------------------------------------------------------
# Laws of a ridge argument w.X, as quadratures
# ---------------------------------------------------------------------------

# A stated error above this means the rule cannot resolve the integrand.
_QUADRATURE_TOL = 1e-6


class RidgeLaw(Value):
    """The law of a ridge argument w.X as ``nodes`` with probabilities ``probs``.

    ``check`` is the (nodes, probs) of the same construction at a resolution
    lower by sqrt(2), or None when the nodes are the law's exact atoms.  Its node
    spacing is an irrational multiple of this rule's, so no integrand period
    divides both: an integrand the rules cannot resolve makes them disagree
    instead of aliasing alike.  Exact atoms must carry probabilities that are
    nonnegative and sum to 1 within 1e-12.  A rule's weights are not checked:
    they may integrate a truncated density series, whose mass misses 1 by up
    to 5e-11 for four uniform coordinates.  Laws compare by identity.
    """

    __slots__ = _fields = ("nodes", "probs", "check")
    _defaults = {"check": None}
    __eq__, __hash__ = object.__eq__, object.__hash__

    def _validate(self):
        if self.check is None and not _is_probability_vector(self.probs.tolist()):
            raise ValueError(f"ridge law atoms need probabilities that are nonnegative and "
                             f"sum to 1 within 1e-12; they sum to {float(self.probs.sum())!r}")

    def expect(self, g):
        """(E g, stated error), the error being the gap to the check rule; None when
        that error exceeds 1e-6 or is not a number."""
        value = float(np.dot(self.probs, g(self.nodes)))
        if self.check is None:
            return value, 0.0
        nodes, probs = self.check
        error = abs(value - float(np.dot(probs, g(nodes))))
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
    return RidgeLaw(mean + sd * z, probs, (mean + sd * zc, probs_c))
