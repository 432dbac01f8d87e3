"""Streaming quantile sketches with bounded memory.

The exact :class:`~repro.sim.metrics.Histogram` keeps every observation
in a list — fine for experiment-sized runs, unbounded at million-invoke
scale. :class:`QuantileSketch` is a DDSketch-style relative-error
sketch (Masson, Rim & Lee, VLDB'19): values land in log-spaced buckets
chosen so that the *value* reconstructed for a bucket is within a fixed
relative error ``alpha`` of every value stored in it. Properties the
rest of the stack leans on:

- **O(1) insert** — one log, one dict increment.
- **Bounded memory** — at most ``max_buckets`` buckets; when the cap is
  hit the *lowest* buckets collapse together, preserving accuracy at
  the upper quantiles the tail pipeline cares about.
- **Lossless merge** — two sketches with the same ``relative_accuracy``
  merge by adding per-bucket counts; ``merge(a, b).quantile(q)`` is
  identical to sketching the concatenated stream (modulo collapse).
- **JSON round-trip** — ``to_json()``/``from_json()`` reproduce the
  sketch exactly, so sketches can ride in gate baselines and exports.

``gamma = (1 + alpha) / (1 - alpha)``; a value ``v > 0`` maps to bucket
``ceil(log(v, gamma))`` and is reconstructed as the bucket midpoint
``2 * gamma**key / (gamma + 1)``, which is within ``alpha`` relative
error of any value in the bucket. Zero (and values below ``min_value``)
go to a dedicated zero bucket; negative values are rejected — every
latency this system measures is non-negative.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "QuantileSketch",
    "SketchAccuracyError",
    "quantile_rel_err",
    "max_quantile_rel_err",
]

DEFAULT_RELATIVE_ACCURACY = 0.01
DEFAULT_MAX_BUCKETS = 512


class SketchAccuracyError(ValueError):
    """Raised when merging sketches with different accuracy settings."""


class QuantileSketch:
    """DDSketch-style relative-error quantile sketch.

    ``relative_accuracy`` is the guaranteed bound: for any quantile q,
    ``abs(estimate - exact) <= relative_accuracy * exact`` as long as
    the lowest buckets have not collapsed past that quantile's rank.
    ``max_buckets`` caps memory; collapse folds the lowest keys
    together so upper quantiles (p90/p99) keep their guarantee.
    """

    __slots__ = ("relative_accuracy", "max_buckets", "_gamma", "_log_gamma",
                 "_min_value", "_buckets", "_zero_count", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                 max_buckets: int = DEFAULT_MAX_BUCKETS):
        if not 0 < relative_accuracy < 1:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}")
        if max_buckets < 2:
            raise ValueError(f"max_buckets must be >= 2, got {max_buckets}")
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        # Values below this are indistinguishable from zero at the
        # sketch's resolution; they share the zero bucket.
        self._min_value = 1e-12
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- insertion ---------------------------------------------------------

    def insert(self, value: float, count: int = 1) -> None:
        """Record ``value``; O(1). Negative values are rejected."""
        if value < 0:
            raise ValueError(f"QuantileSketch accepts non-negative values, "
                             f"got {value}")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if value < self._min_value:
            self._zero_count += count
        else:
            key = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[key] = self._buckets.get(key, 0) + count
            if len(self._buckets) > self.max_buckets:
                self._collapse()
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _collapse(self) -> None:
        """Fold the lowest buckets together to respect ``max_buckets``.

        Collapsing low keys sacrifices accuracy at the *bottom* of the
        distribution only: p90/p99 stay within the relative-error
        bound, which is the end the tail pipeline reads.
        """
        keys = sorted(self._buckets)
        while len(self._buckets) > self.max_buckets:
            lowest, second = keys[0], keys[1]
            self._buckets[second] += self._buckets.pop(lowest)
            keys.pop(0)

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        if self._count == 0:
            raise ValueError("empty sketch has no min")
        return self._min

    @property
    def max(self) -> float:
        if self._count == 0:
            raise ValueError("empty sketch has no max")
        return self._max

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("empty sketch has no mean")
        return self._sum / self._count

    def _value_of(self, key: int) -> float:
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (``0 <= q <= 1``) of the stream."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            raise ValueError("empty sketch has no quantiles")
        # Rank walk over the zero bucket then ascending log buckets.
        rank = q * (self._count - 1)
        seen = self._zero_count
        if rank < seen:
            return 0.0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if rank < seen:
                est = self._value_of(key)
                # The true min/max are tracked exactly; clamp so the
                # estimate never leaves the observed range.
                return min(max(est, self._min), self._max)
        return self._max

    def percentile(self, pct: float) -> float:
        """Percentile variant of :meth:`quantile` (``0 <= pct <= 100``)."""
        return self.quantile(pct / 100.0)

    def fraction_below(self, threshold: float) -> float:
        """Approximate fraction of observations strictly below ``threshold``."""
        if self._count == 0:
            return 0.0
        if threshold <= 0:
            return 0.0
        below = self._zero_count
        for key, cnt in self._buckets.items():
            if self._value_of(key) < threshold:
                below += cnt
        return below / self._count

    # -- merge -------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Merge ``other`` into ``self`` (lossless); returns ``self``."""
        if abs(other.relative_accuracy - self.relative_accuracy) > 1e-12:
            raise SketchAccuracyError(
                f"cannot merge sketches with relative_accuracy "
                f"{self.relative_accuracy} and {other.relative_accuracy}")
        for key, cnt in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + cnt
        if len(self._buckets) > self.max_buckets:
            self._collapse()
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        if other._count:
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max
        return self

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch(self.relative_accuracy, self.max_buckets)
        clone._buckets = dict(self._buckets)
        clone._zero_count = self._zero_count
        clone._count = self._count
        clone._sum = self._sum
        clone._min = self._min
        clone._max = self._max
        return clone

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]
               ) -> Optional["QuantileSketch"]:
        """Merge an iterable of sketches into a fresh one (or None)."""
        out: Optional[QuantileSketch] = None
        for sk in sketches:
            if out is None:
                out = sk.copy()
            else:
                out.merge(sk)
        return out

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A JSON-safe dict; ``from_json`` reproduces the sketch exactly."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "max_buckets": self.max_buckets,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
            "zero_count": self._zero_count,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "QuantileSketch":
        sk = cls(relative_accuracy=float(doc["relative_accuracy"]),
                 max_buckets=int(doc["max_buckets"]))
        sk._buckets = {int(k): int(v)
                       for k, v in doc["buckets"].items()}  # type: ignore
        sk._zero_count = int(doc["zero_count"])
        sk._count = int(doc["count"])
        sk._sum = float(doc["sum"])
        sk._min = math.inf if doc["min"] is None else float(doc["min"])
        sk._max = -math.inf if doc["max"] is None else float(doc["max"])
        return sk

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "QuantileSketch":
        return cls.from_json(json.loads(text))

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (f"QuantileSketch(alpha={self.relative_accuracy}, "
                f"count={self._count}, buckets={len(self._buckets)})")


# -- exact-reference differential harness ----------------------------------
#
# Used by the property tests and the E26 gate to pin the sketch against
# the exact histogram on real workload streams.

def _exact_bracket(sorted_values: Sequence[float],
                   q: float) -> Tuple[float, float]:
    """The order statistics bracketing the exact q-quantile.

    Every reasonable quantile definition (nearest-rank, linear
    interpolation, inclusive/exclusive) lands inside
    ``[x_floor(rank), x_ceil(rank)]`` with ``rank = q*(n-1)``, so the
    differential measures the sketch against that interval rather
    than one arbitrary interpolation convention. This matters at small
    n: when adjacent order statistics straddle a gap (base latency vs
    a tail spike), the interpolated "exact" value lies in empty space
    no sample ever occupied, and no sketch — however accurate — could
    match it.
    """
    if not sorted_values:
        raise ValueError("no values")
    rank = q * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    return sorted_values[lo], sorted_values[hi]


def quantile_rel_err(values: Sequence[float], q: float,
                     sketch: Optional[QuantileSketch] = None,
                     relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                     ) -> float:
    """Relative error of the sketch estimate vs the exact quantile.

    Builds a sketch over ``values`` (unless one is supplied) and
    returns the estimate's relative distance to the bracketing
    order-statistic interval (see :func:`_exact_bracket`): 0 when the
    estimate lies inside it, otherwise ``abs(est - nearest) /
    nearest`` (absolute error when the nearest endpoint is ~0).
    """
    if sketch is None:
        sketch = QuantileSketch(relative_accuracy=relative_accuracy)
        for v in values:
            sketch.insert(v)
    lo, hi = _exact_bracket(sorted(values), q)
    est = sketch.quantile(q)
    if lo <= est <= hi:
        return 0.0
    exact = lo if est < lo else hi
    if abs(exact) < 1e-12:
        return abs(est - exact)
    return abs(est - exact) / abs(exact)


def max_quantile_rel_err(values: Sequence[float],
                         quantiles: Sequence[float] = (0.5, 0.9, 0.99),
                         relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                         ) -> float:
    """Worst relative error across ``quantiles`` for one stream."""
    sketch = QuantileSketch(relative_accuracy=relative_accuracy)
    for v in values:
        sketch.insert(v)
    return max(quantile_rel_err(values, q, sketch=sketch) for q in quantiles)
