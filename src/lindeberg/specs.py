"""Exchangeable and weakly dependent vector specs: a fixed multiset in random
order, i.i.d. draws from a scalar law, and a finite-state Markov chain.

Each class checks its fields where it is built and nowhere else, and owns its
sampler (``sample``) and its law's oracles: ``ab_exact`` (None without an
exact route), ``ridge_law``, ``abs_third_moment`` (closed forms only), and
``ab_cap`` (closed-form caps on A_i/B_i) where ``ab_exact`` can return None.
A multiset's ``prefix_law`` serves its ``ab_exact`` and the enumerated
identities of ``exchangeable``.  Its JSON form is its fields (``_fields``).
"""

from __future__ import annotations

import math
from operator import getitem
from typing import NamedTuple

import numpy as np

from .laws import Distribution, RidgeLaw, _expectation, _is_probability_vector, _reals
from .value import Value


class ABEstimate(NamedTuple):
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


_ENUMERATION_BUDGET = 200_000


def _compositions(counts: list, size: int):
    """Each tuple c with 0 <= c_j <= counts[j] and sum(c) = size, in lexicographic
    order: c_j runs only over the values that the counts after j can complete."""
    room = [0] * (len(counts) + 1)  # room[j] = sum(counts[j:])
    for j in range(len(counts) - 1, -1, -1):
        room[j] = room[j + 1] + counts[j]

    def walk(j: int, left: int):
        if left == 0:
            yield (0,) * (len(counts) - j)
            return
        for k in range(max(0, left - room[j + 1]), min(counts[j], left) + 1):
            for rest in walk(j + 1, left - k):
                yield (k, *rest)

    return walk(0, size) if size <= room[0] else iter(())


def _binomial_row(c: int, lo: int, hi: int, old: dict) -> dict:
    """{k: C(c, k)} for k = lo..hi, exact.  An entry of ``old`` (such a row) is
    reused, and C(c, k) = C(c, k - 1) (c - k + 1) / k steps from the entry before;
    only a row with neither calls math.comb."""
    row = {}
    for k in range(lo, hi + 1):
        prev = row.get(k - 1, old.get(k - 1))
        row[k] = (old[k] if k in old else math.comb(c, k) if prev is None
                  else prev * (c - k + 1) // k)
    return row


def _check_length(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer; got {n!r}")
    if n > np.iinfo(np.intp).max:
        raise ValueError(f"n must be at most {np.iinfo(np.intp).max}, numpy's largest "
                         f"array size; got {n}")


def _common_weight(weights):
    """The weight shared by every coordinate, or None when they differ."""
    w = np.asarray(weights, dtype=float)
    return float(w[0]) if w.size and np.all(w == w[0]) else None


class MultisetPermutation:
    """Uniformly random permutation of a fixed value multiset (exchangeable).

    The values are stored once, at construction.  When they form few runs of
    equal consecutive values (runs^2 <= n, equal meaning bit for bit), they are
    stored as those runs: one value and one end offset per run, which
    ``sample`` fills in one slice each.  Otherwise they
    are stored as a read-only float64 array: one that owns its memory is kept
    as it is, anything else is copied.  ``values`` gives that array either way.
    The sum of the squared values must be a finite float, as the second
    moments of every prefix are taken from it.  The distinct values, their
    counts and moments, and the binomials of the last prefix size asked for
    are kept once taken.
    """

    __slots__ = ("_values", "_runs", "_distinct", "_rows")
    _fields, _law_fields = ("values",), ()
    variant = "multiset"

    def __init__(self, values):
        array = _reals("multiset values", values)
        if array.ndim != 1 or array.size == 0:
            raise ValueError("multiset values must be a nonempty sequence of numbers")
        bits = array.view(np.int64)
        change = bits[1:] != bits[:-1]
        self._values = self._runs = self._distinct = None
        self._rows = {}
        if (1 + np.count_nonzero(change)) ** 2 <= array.size:
            ends = np.append(np.flatnonzero(change) + 1, array.size)
            self._runs = (array[ends - 1], ends)
        else:
            if array is values and (array.flags.writeable or not array.flags.owndata):
                array = array.copy()
            array.setflags(write=False)
            self._values = array
        if not math.isfinite(self._square_sum()):
            raise ValueError("multiset values: the sum of their squares overflows a float")

    def _square_sum(self) -> float:
        with np.errstate(over="ignore"):
            if self._runs is None:
                return float(np.dot(self._values, self._values))
            run_values, ends = self._runs
            return float(np.dot(run_values * run_values, np.diff(ends, prepend=0)))

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

    def _moments(self) -> tuple:
        """(distinct values, their counts as a list, the sum of the values and of
        their squares, mean |v|^3), taken on first use."""
        if self._distinct is None:
            values, counts = np.unique(self.values, return_counts=True)
            counts = counts.tolist()
            with np.errstate(over="ignore"):
                m3 = float(np.mean(np.abs(self.values) ** 3))
            self._distinct = (values, counts, float(np.dot(values, counts)),
                              float(np.dot(values * values, counts)), m3)
        return self._distinct

    def prefix_law(self, size: int):
        """The distinct values, their counts, an iterator over each composition c
        that a uniform ``size``-subset of the coordinates can hold (c_j of the
        counts[j] copies of value j, in lexicographic order) with its number of index
        sets, a product of binomials, and C(n, size), the sum of those numbers.  None
        when the search, prod_j (min(counts[j], size) + 1) candidates, exceeds the
        budget.

        The binomials C(c, k) that a size-subset can use, k from max(0, size - n + c)
        to min(c, size) for each count c and for c = n, are kept until the next
        call, which reuses them: sizes asked for in turn cost one exact step per
        new binomial."""
        values, counts = self._moments()[:2]
        budget = 1
        for c in counts:
            budget *= min(c, size) + 1
            if budget > _ENUMERATION_BUDGET:
                return None
        n = self.n
        self._rows = {c: _binomial_row(c, max(0, size - n + c), min(c, size),
                                       self._rows.get(c, {})) for c in {*counts, n}}
        rows = [self._rows[c] for c in counts]
        compositions = ((combo, math.prod(map(getitem, rows, combo)))
                        for combo in _compositions(counts, size))
        return values, counts, compositions, self._rows[n].get(size, 0)

    def ab_exact(self, y_mean, y_second, i):
        """By walking the prefix law; None past the budget."""
        law = self.prefix_law(i - 1)
        if law is None:
            return None
        values, counts, compositions, sets = law
        total_sum, total_sq = self._moments()[2:4]
        rest = self.n - (i - 1)
        a = b = 0.0
        for combo, weight in compositions:
            p = weight / sets
            combo = np.asarray(combo)
            cond_mean = (total_sum - float(np.dot(values, combo))) / rest
            cond_sq = (total_sq - float(np.dot(values * values, combo))) / rest
            a += p * abs(cond_mean - y_mean)
            b += p * abs(cond_sq - y_second)
        return ABEstimate(a, b, True)

    def ab_cap(self, y_mean, y_second, i) -> ABEstimate:
        """For V = X_i or X_i^2 against its target c: mean |v - c| over the values
        of V, or the root of (mean - c)^2 plus the variance of the mean of the
        n - k values a k-prefix leaves (k = i - 1), whichever is smaller.  The
        variance is infinite where the squares of V's deviations overflow."""
        n, k = self.n, i - 1
        values = self.values
        with np.errstate(over="ignore"):
            a, b = (_jensen_cap(float(np.mean(np.abs(v - c))), float(np.mean(v)) - c,
                                k / ((n - 1) * (n - k)) * float(np.var(v)) if k else 0.0)
                    for v, c in ((values, y_mean), (values * values, y_second)))
        return ABEstimate(a, b, False)

    def abs_third_moment(self, i: int):
        """mean |v|^3; infinite where a cube overflows a float."""
        return self._moments()[4]

    def ridge_law(self, weights):
        """One atom when every weight is equal, as every permutation has the same
        sum; None otherwise."""
        if _common_weight(weights) is None:
            return None
        atom = float(self.values @ np.asarray(weights, dtype=float))
        return RidgeLaw(np.array([atom]), np.ones(1))


class IidFromDistribution(Value):
    """n independent draws from a scalar distribution (exchangeable)."""

    __slots__ = _fields = ("dist", "n")
    _law_fields = ("dist",)
    variant = "iid"

    def _validate(self):
        _check_length(self.n)

    def sample(self, rng: np.random.Generator, replicates: int, out=None) -> np.ndarray:
        return self.dist.sample(rng, (replicates, self.n), out)

    def ab_exact(self, y_mean, y_second, i) -> ABEstimate:
        return _marginal_ab(self.dist.mean(), self.dist.second_moment(), y_mean, y_second)

    def abs_third_moment(self, i: int):
        return self.dist.abs_moment(3)

    def ridge_law(self, weights):
        return self.dist.ridge_law(weights)


class MarkovChain(Value):
    """Finite-state chain with real state values.

    Generally not exchangeable; admitted as a weakly dependent input for the
    swapping bound, never for the exchangeable summarization bound.
    """

    _fields = ("states", "initial", "kernel", "n")
    __slots__ = (*_fields, "_laws")
    _law_fields = ()
    variant = "markov"

    def _validate(self):
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

    @property
    def _step_laws(self) -> tuple:
        """The laws of the state at steps 1..n, each the one before times the
        kernel; computed on first use."""
        if not hasattr(self, "_laws"):
            kernel = np.asarray(self.kernel)
            laws = [np.asarray(self.initial, dtype=float)]
            for _ in range(self.n - 1):
                laws.append(laws[-1] @ kernel)
            object.__setattr__(self, "_laws", tuple(laws))
        return self._laws

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
        """From the step laws; infinite where a reachable state's square overflows a float."""
        kernel = np.asarray(self.kernel)
        states = np.asarray(self.states)
        with np.errstate(over="ignore"):
            squares = states * states
            if i == 1:
                return _marginal_ab(float(np.dot(self.initial, states)),
                                    float(_expectation(self.initial, squares)), y_mean, y_second)
            prev = self._step_laws[i - 2]
            a = float(_expectation(prev, np.abs(kernel @ states - y_mean)))
            b = float(_expectation(prev, np.abs(_expectation(kernel, squares) - y_second)))
        return ABEstimate(a, b, True)

    def abs_third_moment(self, i: int):
        with np.errstate(over="ignore"):
            return float(_expectation(self._step_laws[i - 1], np.abs(self.states) ** 3))

    def ridge_law(self, weights):
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
        return RidgeLaw(w * totals, probs[keep])
