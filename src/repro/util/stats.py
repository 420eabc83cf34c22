"""Small statistics helpers used across the analyses.

The paper's figures are almost all empirical CDFs and binned counts of event
time differences; :class:`Ecdf` and :func:`bin_counts` are the shared
implementations behind those figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF over a finite sample.

    ``xs`` is the sorted sample and ``ps`` the cumulative probability at each
    sorted value, i.e. ``ps[i] = (i + 1) / n``.
    """

    xs: np.ndarray
    ps: np.ndarray

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def at(self, x: float) -> float:
        """P(X <= x) under the empirical distribution.

        >>> Ecdf.from_values([1.0, 2.0, 3.0]).at(2.0)
        0.6666666666666666
        """
        if self.n == 0:
            raise ValueError("ECDF over empty sample")
        return float(np.searchsorted(self.xs, x, side="right")) / self.n

    def at_many(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorized :meth:`at`: P(X <= x) for every x in one pass.

        One ``np.searchsorted`` over the whole query array instead of N
        scalar calls — the read-optimized query plane evaluates CDFs at
        many shift points per request and must not pay a Python loop.
        Each element equals the scalar :meth:`at` exactly.

        >>> Ecdf.from_values([1.0, 2.0, 3.0]).at_many([0.0, 2.0, 9.0]).tolist()
        [0.0, 0.6666666666666666, 1.0]
        """
        if self.n == 0:
            raise ValueError("ECDF over empty sample")
        queries = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs,
                             dtype=float)
        positions = np.searchsorted(self.xs, queries, side="right")
        return positions.astype(float) / self.n

    def quantile(self, p: float) -> float:
        """Smallest sample value x with P(X <= x) >= p."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"quantile level out of range: {p}")
        if self.n == 0:
            raise ValueError("ECDF over empty sample")
        index = int(np.ceil(p * self.n)) - 1
        return float(self.xs[max(index, 0)])

    def series(self) -> List[Tuple[float, float]]:
        """The (x, P(X<=x)) step points, suitable for plotting/printing."""
        return [(float(x), float(p)) for x, p in zip(self.xs, self.ps)]

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Ecdf":
        xs = np.sort(np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=float,
        ))
        if xs.size == 0:
            return cls(xs=xs, ps=xs.copy())
        ps = np.arange(1, xs.size + 1, dtype=float) / xs.size
        return cls(xs=xs, ps=ps)


def ecdf(values: Iterable[float]) -> Ecdf:
    """Build an :class:`Ecdf` from an iterable of floats."""
    return Ecdf.from_values(values)


def fraction(items: Sequence[T], predicate: Callable[[T], bool]) -> float:
    """Fraction of items satisfying a predicate.

    >>> fraction([1, 2, 3, 4], lambda x: x % 2 == 0)
    0.5
    """
    if not items:
        raise ValueError("fraction over empty sequence")
    return sum(1 for item in items if predicate(item)) / len(items)


def bin_counts(
    values: Iterable[float], *, bin_width: float, lo: float, hi: float
) -> List[Tuple[float, int]]:
    """Counts of values in fixed-width bins over [lo, hi).

    Returns (bin_left_edge, count) for every bin, including empty ones, so
    that histogram series have stable shapes.  Values outside [lo, hi) are
    ignored.

    >>> bin_counts([0.5, 1.5, 1.6], bin_width=1.0, lo=0.0, hi=3.0)
    [(0.0, 1), (1.0, 2), (2.0, 0)]

    Non-representable widths (0.1, 0.2, ...) must not drift: the final
    edge lands exactly on ``hi`` and the labels stay clean.

    >>> [edge for edge, _ in bin_counts([], bin_width=0.1, lo=0.0, hi=0.5)]
    [0.0, 0.1, 0.2, 0.3, 0.4]
    >>> bin_counts([0.999999], bin_width=0.1, lo=0.0, hi=1.0)[-1]
    (0.9, 1)

    When ``bin_width`` does not divide ``hi - lo``, the leftover tail gets a
    final *partial* bin covering ``[lo + floor(span)*width, hi)`` — every
    value passing the ``[lo, hi)`` filter is counted somewhere, rather than
    silently vanishing past the last full edge.  (Partial over clamped: a
    clamped last bin would mislabel its population as ending a full width
    earlier than it does.)

    >>> bin_counts([9.5], bin_width=3.0, lo=0.0, hi=10.0)
    [(0.0, 0), (3.0, 0), (6.0, 0), (9.0, 1)]
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if hi <= lo:
        raise ValueError("empty bin range")
    # An accumulating np.arange(lo, hi + w/2, w) drifts for widths with no
    # exact binary representation (its last edge can fall short of hi,
    # silently dropping in-range values near the top).  Derive an integer
    # bin count instead and let linspace divide [lo, hi] exactly; a
    # non-dividing width keeps its floor(range / width) full bins plus one
    # partial bin reaching hi.
    span = (hi - lo) / bin_width
    divides = abs(span - round(span)) < 1e-9
    n_bins = max(1, round(span) if divides else int(span))
    top = hi if divides else lo + n_bins * bin_width
    edges = np.linspace(lo, top, n_bins + 1)
    if top < hi:
        # A width wider than the whole range (n_bins forced to 1) already
        # covers [lo, hi); otherwise emit the partial tail bin [top, hi).
        edges = np.append(edges, hi)
    data = np.asarray(
        values if isinstance(values, np.ndarray) else list(values), dtype=float
    )
    data = data[(data >= lo) & (data < hi)]
    counts, _ = np.histogram(data, bins=edges)
    return [
        (float(np.round(edge, 12)), int(count))
        for edge, count in zip(edges[:-1], counts)
    ]


def quantile(values: Iterable[float], p: float) -> float:
    """Empirical quantile (type-1 / inverse-ECDF convention)."""
    return Ecdf.from_values(values).quantile(p)
