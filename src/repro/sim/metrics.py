"""Measurement helpers: counters, gauges-over-time, and histograms.

Experiments report simulated latency/cost/utilization numbers that must
be deterministic, so these classes do exact bookkeeping (sorted samples
for percentiles) by default rather than approximate sketches.

**Memory cost of the exact backend:** the exact histogram appends every
observation to a Python list — 8 bytes of pointer plus a float object
per sample, so a million-invoke run with a handful of per-request
series holds tens of millions of floats just for percentile queries.
That is the right trade for experiment-sized runs (exact percentiles,
byte-stable gate fingerprints) and the wrong one at scale. High-volume
series can opt into ``backend="sketch"`` — a DDSketch-style
relative-error sketch (:mod:`repro.sim.sketch`) with O(1) insert and a
hard bucket cap (~512 buckets ≈ a few KiB regardless of sample count)
at the price of ~1% relative error on quantiles. The exact backend
stays the default everywhere so existing byte-pinned gates do not
move.

**Exemplars** bridge aggregate metrics back to traces: a histogram
keeps, per value bucket, a bounded reservoir of ``(value, trace_id)``
pairs, so a p99 bucket of ``invoke.latency`` can point at a concrete
sampled span tree to inspect instead of being a bare number. The
reservoir keeps the *most recent* entries (deterministic, no RNG), the
standard choice for exemplar storage: the freshest trace is the one an
operator wants to open.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .sketch import QuantileSketch

#: Default upper bounds (``le``) of the exemplar buckets: log-spaced
#: latency buckets from 100 us to 10 s, plus a +Inf catch-all. The
#: bounds only shape exemplar *grouping*; percentiles stay exact.
DEFAULT_EXEMPLAR_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0, math.inf)

#: Default reservoir bound: exemplars retained per bucket.
DEFAULT_EXEMPLAR_RESERVOIR = 4


class EmptyHistogramError(ValueError):
    """A percentile was requested from a histogram with no samples."""


class Counter:
    """A named monotonic counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters are monotonic; use a Gauge instead")
        self.value += amount


class Histogram:
    """Collects samples; reports mean/percentiles exactly by default.

    Passing ``exemplar=<trace root id>`` to :meth:`observe` files the
    sample's trace reference into a bounded per-bucket reservoir (see
    :data:`DEFAULT_EXEMPLAR_BUCKETS`); :meth:`exemplars` and
    :meth:`exemplars_near_percentile` read it back.

    ``backend="sketch"`` swaps the exact sample list for a bounded
    :class:`~repro.sim.sketch.QuantileSketch`: O(1) insert, memory
    capped at the sketch's bucket limit, percentiles within
    ``relative_accuracy`` relative error, and :meth:`summary` gains
    ``q50``/``q90``/``q99`` keys. Sketch-backed histograms only accept
    non-negative values (every latency/size this system measures is).
    Exemplars behave identically in both modes. The exact backend is
    the default; its behavior and summary shape are byte-pinned by the
    regression gates and must not change.
    """

    def __init__(self, name: str = "",
                 exemplar_reservoir: int = DEFAULT_EXEMPLAR_RESERVOIR,
                 backend: str = "exact",
                 relative_accuracy: Optional[float] = None,
                 max_sketch_buckets: Optional[int] = None):
        if exemplar_reservoir < 1:
            raise ValueError("exemplar reservoir must hold >= 1 entry")
        if backend not in ("exact", "sketch"):
            raise ValueError(f"unknown histogram backend: {backend!r}")
        if backend == "exact" and (relative_accuracy is not None
                                   or max_sketch_buckets is not None):
            raise ValueError("relative_accuracy/max_sketch_buckets only "
                             "apply to backend='sketch'")
        self.name = name
        self.backend = backend
        self._sketch: Optional[QuantileSketch] = None
        if backend == "sketch":
            kwargs: Dict[str, Any] = {}
            if relative_accuracy is not None:
                kwargs["relative_accuracy"] = relative_accuracy
            if max_sketch_buckets is not None:
                kwargs["max_buckets"] = max_sketch_buckets
            self._sketch = QuantileSketch(**kwargs)
        self._samples: List[float] = []
        self._sorted = True
        self._sum = 0.0
        self._bounds = DEFAULT_EXEMPLAR_BUCKETS
        self._reservoir = exemplar_reservoir
        #: bucket index -> most recent (value, trace_id) pairs.
        self._exemplars: Dict[int, List[Tuple[float, Any]]] = {}

    def observe(self, value: float, exemplar: Optional[Any] = None) -> None:
        """Record one sample, optionally carrying a trace reference."""
        if self._sketch is not None:
            self._sketch.insert(value)
        else:
            if self._samples and value < self._samples[-1]:
                self._sorted = False
            self._samples.append(value)
            self._sum += value
        if exemplar is not None:
            idx = bisect.bisect_left(self._bounds, value)
            bucket = self._exemplars.setdefault(idx, [])
            bucket.append((value, exemplar))
            if len(bucket) > self._reservoir:
                del bucket[0]

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        if self._sketch is not None:
            return self._sketch.count
        return len(self._samples)

    @property
    def mean(self) -> float:
        if self._sketch is not None:
            return self._sketch.mean if self._sketch.count else math.nan
        if not self._samples:
            return math.nan
        return self._sum / len(self._samples)

    @property
    def total(self) -> float:
        if self._sketch is not None:
            return self._sketch.sum
        return self._sum

    @property
    def min(self) -> float:
        if self._sketch is not None:
            return self._sketch.min if self._sketch.count else math.nan
        return min(self._samples) if self._samples else math.nan

    @property
    def max(self) -> float:
        if self._sketch is not None:
            return self._sketch.max if self._sketch.count else math.nan
        return max(self._samples) if self._samples else math.nan

    @property
    def sketch(self) -> Optional[QuantileSketch]:
        """The backing sketch (None for the exact backend).

        Exposed so the registry can roll sketch-backed families up by
        lossless :meth:`~repro.sim.sketch.QuantileSketch.merge` instead
        of re-observing samples.
        """
        return self._sketch

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation (p in [0, 100]).

        Raises :class:`EmptyHistogramError` when no samples have been
        recorded — an empty histogram has no percentiles, and silently
        returning NaN let the mistake propagate into reports.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self._sketch is not None:
            if not self._sketch.count:
                raise EmptyHistogramError(
                    f"histogram {self.name!r} is empty: no samples to take "
                    f"a percentile of")
            return self._sketch.percentile(p)
        if not self._samples:
            raise EmptyHistogramError(
                f"histogram {self.name!r} is empty: no samples to take "
                f"a percentile of")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        data = self._samples
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples <= threshold (SLO attainment).

        Approximate (bucket-resolution) under the sketch backend.
        """
        if self._sketch is not None:
            if not self._sketch.count:
                return math.nan
            return self._sketch.fraction_below(threshold)
        if not self._samples:
            return math.nan
        return sum(1 for v in self._samples
                   if v <= threshold) / len(self._samples)

    def summary(self) -> Dict[str, float]:
        """Dict of the usual summary statistics.

        Safe on an empty histogram (count 0, NaN statistics) so that
        exporters can serialize every instrument unconditionally; only
        the *direct* percentile accessors raise when empty.

        Sketch-backed histograms additionally report ``q50``/``q90``/
        ``q99`` — the quantiles the tail pipeline exports. The exact
        backend's key set is byte-pinned by gate fingerprints and does
        not grow.
        """
        if self._sketch is not None:
            if not self._sketch.count:
                return {"count": 0.0, "mean": math.nan, "min": math.nan,
                        "p50": math.nan, "p99": math.nan, "max": math.nan,
                        "q50": math.nan, "q90": math.nan, "q99": math.nan}
            q50 = self._sketch.percentile(50)
            q90 = self._sketch.percentile(90)
            q99 = self._sketch.percentile(99)
            return {
                "count": float(self._sketch.count),
                "mean": self._sketch.mean,
                "min": self._sketch.min,
                "p50": q50,
                "p99": q99,
                "max": self._sketch.max,
                "q50": q50,
                "q90": q90,
                "q99": q99,
            }
        if not self._samples:
            return {"count": 0.0, "mean": math.nan, "min": math.nan,
                    "p50": math.nan, "p99": math.nan, "max": math.nan}
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "p50": self.p50,
            "p99": self.p99,
            "max": self.max,
        }

    # -- exemplars ---------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """The exemplar bucket a value files under."""
        return bisect.bisect_left(self._bounds, value)

    def exemplars(self) -> Dict[float, List[Tuple[float, Any]]]:
        """Retained exemplars keyed by bucket upper bound (``le``)."""
        return {self._bounds[idx]: list(pairs)
                for idx, pairs in sorted(self._exemplars.items())}

    def exemplars_in_bucket(self, value: float) -> List[Tuple[float, Any]]:
        """The exemplars sharing a bucket with ``value``."""
        return list(self._exemplars.get(self.bucket_index(value), ()))

    def exemplars_near_percentile(self, p: float
                                  ) -> List[Tuple[float, Any]]:
        """Exemplars for the bucket holding the ``p``-th percentile.

        When that exact bucket retained none (the percentile sample ran
        untraced), the nearest non-empty bucket is used — below first,
        then above — so a traced neighbor can still be opened. Empty
        list only when the histogram holds no exemplars at all.
        """
        target = self.bucket_index(self.percentile(p))
        if not self._exemplars:
            return []
        best = min(self._exemplars,
                   key=lambda idx: (abs(idx - target), idx > target))
        return list(self._exemplars[best])


class TimeWeightedGauge:
    """A level sampled against virtual time; reports time-weighted mean.

    Used for utilization: call :meth:`set` whenever the level changes and
    :meth:`mean` at the end of the run.
    """

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0):
        self.name = name
        self._level = initial
        self._start_time = start_time
        self._last_time = start_time
        self._area = 0.0
        self._max = initial

    @property
    def level(self) -> float:
        return self._level

    def set(self, level: float, now: float) -> None:
        """Record that the level became ``level`` at time ``now``."""
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level
        self._max = max(self._max, level)

    def add(self, delta: float, now: float) -> None:
        """Adjust the level by ``delta`` at time ``now``."""
        self.set(self._level + delta, now)

    def load(self, level: float, last_time: float, area: float,
             peak: float) -> None:
        """Take over state tallied elsewhere with :meth:`set`'s
        arithmetic: the level, when it last changed, the level-seconds
        accumulated up to then, and the peak (a registry collector's
        write)."""
        self._level = level
        self._last_time = last_time
        self._area = area
        self._max = peak

    def mean(self, now: float) -> float:
        """Time-weighted mean level over [start_time, now]."""
        if now < self._last_time:
            raise ValueError("time went backwards")
        area = self._area + self._level * (now - self._last_time)
        elapsed = now - self._start_time
        if elapsed <= 0:
            return self._level
        return area / elapsed

    def integral(self, now: float) -> float:
        """Level-seconds accumulated over [start_time, now].

        Exact (no mean round-trip): two runs whose level trajectories
        match produce bit-identical integrals even if read at
        different end times once the level has returned to zero.
        """
        if now < self._last_time:
            raise ValueError("time went backwards")
        return self._area + self._level * (now - self._last_time)

    @property
    def peak(self) -> float:
        return self._max
