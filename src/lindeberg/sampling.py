"""Seeded draws from the vector specs, and their JSON round trip.

Every sampler is a pure function of ``(spec, seed)``: the same pair always
reproduces the same vector, and replicate streams are derived with a
counter-based splitter.  The laws live in ``laws``, the vector specs in
``specs`` and ``mixture``; this module draws from them in row blocks, keeps
running means of what is drawn, reads a spec from its JSON document and builds
the multisets the commands use.
"""

from __future__ import annotations

import math
from typing import Sequence, Union, get_args

import numpy as np

from .laws import _law_from_dict
from .mixture import ConditionallyIid
from .specs import IidFromDistribution, MarkovChain, MultisetPermutation
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


# A control is skipped when what the controls before it leave of its spread is
# at most this fraction of the spread: a constant control, one collinear with
# those before it, and one whose spread overflowed to inf or NaN alike.
_COLLINEAR = 1e-9


class RunningMean:
    """Mean and standard error of the mean of float64 blocks fed in turn, each
    with ``controls`` control columns of known mean zero that the values are
    regressed on (docs/derivations.md, "Control variates").  Kept as the count,
    the means of the values and the controls, and M2, the sums of products of
    their deviations from those means, summed without BLAS so that no bit
    depends on its threads.  Without controls a first block gives ``v.mean()``
    and ``v.std(ddof=1) / sqrt(v.size)`` bit for bit; each later block is merged
    by Chan et al.'s pairwise update.  ``add`` overwrites its columns with
    their squared deviations.
    """

    def __init__(self, controls: int = 0):
        self.count = 0
        self.means = [0.0] * (1 + controls)
        self.m2 = [[0.0] * (1 + controls) for _ in range(1 + controls)]

    def add(self, values, *controls):
        columns = (values, *controls)
        if len(columns) != len(self.means):
            raise ValueError(f"give {len(self.means) - 1} control column(s)")
        means = [float(c.mean()) for c in columns]
        m2 = [[0.0] * len(columns) for _ in columns]
        for i, (a, mean) in enumerate(zip(columns, means)):
            np.subtract(a, mean, out=a)
            for j in range(i):
                m2[i][j] = m2[j][i] = float(np.einsum("i,i->", a, columns[j]))
        for i, a in enumerate(columns):
            m2[i][i] = float(np.square(a, out=a).sum())
        size = values.size
        if self.count:
            total = self.count + size
            delta = [new - old for new, old in zip(means, self.means)]
            weight = self.count * size / total
            means = [old + d * (size / total) for old, d in zip(self.means, delta)]
            m2 = [[old + new + di * dj * weight for old, new, dj in zip(row_old, row_new, delta)]
                  for row_old, row_new, di in zip(self.m2, m2, delta)]
            size = total
        self.count, self.means, self.m2 = size, means, m2
        return self

    def result(self) -> tuple:
        """(mean of the values less beta . (mean of the controls), its standard
        error): beta by least squares on the controls that keep a residual degree
        of freedom and are not collinear with those before them, the error from
        the residual sum of squares over count - 1 - (controls used)."""
        a = [row[:] for row in self.m2]
        used = []
        for k in range(1, len(a)):
            if len(used) + 2 < self.count and a[k][k] > _COLLINEAR * self.m2[k][k]:
                _sweep(a, k)
                used.append(k)
        estimate = self.means[0]
        for k in used:
            estimate -= a[0][k] * self.means[k]
        rss = max(a[0][0], 0.0)  # a fit can round the residual below 0
        dof = self.count - 1 - len(used)
        return estimate, math.sqrt(rss / dof) / math.sqrt(self.count)


def _sweep(a: list, k: int) -> None:
    """Sweep the symmetric matrix ``a`` (nested lists) on pivot k in place:
    afterwards a[0][k] is the least-squares coefficient of column 0 on the
    pivots swept so far and a[0][0] its residual sum of squares."""
    pivot = a[k][k]
    size = len(a)
    for i in range(size):
        for j in range(size):
            if i != k and j != k:
                a[i][j] -= a[i][k] * a[k][j] / pivot
    for i in range(size):
        if i != k:
            a[i][k] /= pivot
            a[k][i] /= pivot
    a[k][k] = -1.0 / pivot


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


def spec_from_dict(d: dict) -> ExchangeableSpec:
    """Build a spec from its JSON document: ``variant`` names the class, and each
    of its fields (``_fields``) is read from the key of its name, the fields that
    hold a ``Distribution`` (``_law_fields``) in its law form (``kind`` with
    ``params``, or ``values`` and ``probs``).  A malformed document, or one with a
    key that is not a field, raises ValueError."""
    variant = d.get("variant") if isinstance(d, dict) else None
    cls = _SPEC_TYPES.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"spec variant must be one of {', '.join(_SPEC_TYPES)}; "
                         f"got {variant!r}")
    unknown = sorted(set(d) - {"variant", *cls._fields})
    if unknown:
        raise ValueError(f"unknown key(s) in {variant} spec: {', '.join(unknown)}")
    try:
        return cls(*(_law_from_dict(d[name]) if name in cls._law_fields else d[name]
                     for name in cls._fields))
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
