"""Labeled metrics: the run's one registry of instrument families.

Naming every instrument with a flat string would force callers to
mangle dimensions into names (``"pool-a.cold_starts"``) and make
cross-cutting questions ("cold starts by platform", "bytes by purpose")
a string-parsing exercise. Here an *instrument family* is one name
(``"network.bytes"``) with one child instrument per label set
(``purpose="fifo-put"``), plus an always-present unlabeled aggregate
that every labeled update forwards into.

The aggregate forwarding means ``registry.counter("network.bytes")``
reads the total across all purposes, while
``registry.counter("network.bytes", purpose="dispatch")`` reads one
slice.

Cardinality is bounded per family (``max_label_sets``): once a family
is full, new label sets collapse into a single ``__overflow__`` child
(and are counted in :attr:`LabeledMetricsRegistry.dropped_label_sets`)
instead of growing memory without bound — the standard defense against
accidentally labeling by request id.

Time series: :meth:`LabeledMetricsRegistry.sample` snapshots every
counter value and gauge level against *simulated* time;
:meth:`series` reads one instrument's ``(t, value)`` points back.
Snapshots are O(instruments) appends — cheap enough to run on an
interval process (:meth:`sampler_process`) for E-series runs.

Exporters: :meth:`to_json` (one self-contained dict: counters, gauges,
histogram summaries, series) and :meth:`to_line_protocol` (Influx-style
lines) turn a run's telemetry into a build artifact.

Collected families: a component whose hot path would otherwise update
an instrument per operation keeps plain tallies of its own and
registers a *collector* (:meth:`LabeledMetricsRegistry.add_collector`)
that reports them. Collectors run before every read (the Prometheus
collector pattern): the registry zeroes each collected counter family
and adds every reported tally back into its child, which forwards into
the aggregate, so readers see current values while the hot path makes
no registry call.
"""

from __future__ import annotations

import json
from functools import partial
from typing import (Any, Callable, Dict, Generator, Iterable, Iterator,
                    List, Optional, Set, Tuple)

from .metrics import Counter, Histogram, TimeWeightedGauge
from .sketch import QuantileSketch

#: Label name used for the collapsed catch-all child of a full family.
OVERFLOW_LABEL = "__overflow__"

#: Default bound on distinct label sets per family.
DEFAULT_MAX_LABEL_SETS = 256

LabelKey = Tuple[Tuple[str, str], ...]

#: One tally a collector reports: ``(family, label items, value)``.
Tally = Tuple[str, Tuple[Tuple[str, Any], ...], float]


def label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical (sorted, stringified) key for one label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_instrument(name: str, key: LabelKey) -> str:
    """Printable instrument id: ``name{k=v,k2=v2}`` (bare name if unlabeled)."""
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class LabeledCounter(Counter):
    """A counter child that forwards every increment to its aggregate."""

    def __init__(self, name: str = "", aggregate: Optional[Counter] = None):
        super().__init__(name)
        self._aggregate = aggregate

    def add(self, amount: float = 1.0) -> None:
        super().add(amount)
        if self._aggregate is not None:
            self._aggregate.add(amount)


class LabeledHistogram(Histogram):
    """A histogram child that forwards every sample to its aggregate.

    Exemplars ride along: a ``(value, trace_id)`` pair recorded on a
    labeled child is also retained by the family aggregate, so the
    unlabeled ``invoke.latency`` view can point at span trees too.
    """

    def __init__(self, name: str = "",
                 aggregate: Optional[Histogram] = None,
                 backend: str = "exact"):
        super().__init__(name, backend=backend)
        self._aggregate = aggregate

    def observe(self, value: float,
                exemplar: Optional[Any] = None) -> None:
        super().observe(value, exemplar=exemplar)
        if self._aggregate is not None:
            self._aggregate.observe(value, exemplar=exemplar)


class LabeledGauge(TimeWeightedGauge):
    """A gauge child whose *level changes* flow into the aggregate.

    The aggregate gauge therefore tracks the sum of all children's
    levels (total in-flight transfers, total live sandboxes), which is
    the meaningful roll-up for a level metric.
    """

    def __init__(self, name: str = "", initial: float = 0.0,
                 start_time: float = 0.0,
                 aggregate: Optional[TimeWeightedGauge] = None):
        super().__init__(name, initial=initial, start_time=start_time)
        self._aggregate = aggregate

    def set(self, level: float, now: float) -> None:
        delta = level - self.level
        super().set(level, now)
        if self._aggregate is not None and delta:
            self._aggregate.add(delta, now)


class _Family:
    """One instrument name: unlabeled aggregate + labeled children."""

    __slots__ = ("name", "kind", "aggregate", "children", "series")

    def __init__(self, name: str, kind: str, aggregate):
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.aggregate = aggregate
        self.children: Dict[LabelKey, Any] = {}
        #: (t, value) points per label key; () is the aggregate.
        self.series: Dict[LabelKey, List[Tuple[float, float]]] = {}

    def instruments(self) -> Iterator[Tuple[LabelKey, Any]]:
        yield (), self.aggregate
        for key in sorted(self.children):
            yield key, self.children[key]


class LabeledMetricsRegistry:
    """Counters, gauges and histograms for one run, keyed by label sets.

    Unlabeled calls read the family aggregate; labeled calls address
    one child. Mixing is the normal usage: hot paths update labeled
    children, summary code reads the bare name.
    """

    def __init__(self, max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
                 histogram_backend: str = "exact"):
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        if histogram_backend not in ("exact", "sketch"):
            raise ValueError(
                f"unknown histogram backend: {histogram_backend!r}")
        self.max_label_sets = max_label_sets
        #: Default backend for new histogram families ("exact" keeps
        #: every sample; "sketch" bounds memory at ~1% quantile error).
        self.histogram_backend = histogram_backend
        #: Per-family backend overrides (set before first use).
        self._hist_backends: Dict[str, str] = {}
        self._families: Dict[str, _Family] = {}
        #: Label sets collapsed into __overflow__ children, by family.
        self.dropped_label_sets = 0
        self._sample_times: List[float] = []
        #: Hot-path memo: ``(kind, name, *label items as passed)`` →
        #: instrument. Keyed on the *call-site* label order (kwargs
        #: preserve it), so the canonical sort + stringify of
        #: :func:`label_key` runs once per distinct call shape instead
        #: of on every update. Only materialized (non-overflow)
        #: instruments enter the cache — overflow lookups must keep
        #: counting ``dropped_label_sets`` per call — and nothing ever
        #: invalidates it because instruments are never removed.
        self._fast: Dict[tuple, Any] = {}
        #: Read-side collectors (:meth:`add_collector`), the family
        #: names they fill, and the ``(family, owner key)`` claims.
        self._collectors: Tuple[Callable[[], Iterable[Tally]], ...] = ()
        self._collected: Set[str] = set()
        self._producers: Set[Tuple[str, LabelKey]] = set()
        #: ``(family, label items)`` a collector reported -> its child,
        #: resolved once (an overflowed label set counts one drop).
        self._tally_children: Dict[tuple, Counter] = {}

    # -- collectors --------------------------------------------------------
    def add_collector(self, families: Iterable[str],
                      collect: Callable[[], Iterable[Tally]],
                      **owner: Any) -> None:
        """Fill ``families`` from ``collect`` before every read.

        ``collect()`` returns its owner's counter tallies as
        ``(family, label items, value)`` triples, one per label set that
        has had an event (a value of 0 still creates its child). Each
        read zeroes every collected counter family and adds the tallies
        back in, so several owners can fill one family and their sum is
        the aggregate. A collector may also load its gauges itself.
        Collectors run before :meth:`counters`, :meth:`gauges`,
        :meth:`sample`, :meth:`window_level`, the exporters, and any
        :meth:`counter`/:meth:`gauge` lookup of a collected family.

        ``owner`` labels name the producer (``pool="fn/impl"``): a
        family has one producer per owner, so claiming one twice with
        the same owner labels raises.
        """
        owner_key = label_key(owner)
        claims = {(family, owner_key) for family in families}
        taken = claims & self._producers
        if taken:
            raise ValueError(
                f"families already collected for owner {owner_key}: "
                f"{sorted(family for family, _ in taken)}")
        self._producers |= claims
        self._collected.update(family for family, _ in claims)
        self._collectors = (*self._collectors, collect)

    def _collect(self) -> None:
        """Rebuild every collected counter family from its collectors'
        tallies (each read does, first)."""
        collectors = self._collectors
        # A collector's own lookups of its families must not re-enter.
        self._collectors = ()
        try:
            for name in self._collected:
                family = self._families.get(name)
                if family is not None and family.kind == "counter":
                    family.aggregate.value = 0.0
                    for child in family.children.values():
                        child.value = 0.0
            children = self._tally_children
            for collect in collectors:
                for name, items, value in collect():
                    child = children.get((name, items))
                    if child is None:
                        family = self._family(name, "counter",
                                              LabeledCounter)
                        child = children[(name, items)] = self._child(
                            family, dict(items), LabeledCounter)
                    child.add(value)
        finally:
            self._collectors = collectors

    # -- family plumbing -------------------------------------------------
    def _family(self, name: str, kind: str, factory) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, factory(name, aggregate=None))
            self._families[name] = family
        elif family.kind != kind:
            raise TypeError(
                f"instrument {name!r} is a {family.kind}, not a {kind}")
        return family

    def _child(self, family: _Family, labels: Dict[str, Any], factory):
        if not labels:
            return family.aggregate
        key = label_key(labels)
        child = family.children.get(key)
        if child is None:
            if len(family.children) >= self.max_label_sets:
                self.dropped_label_sets += 1
                key = ((OVERFLOW_LABEL, "true"),)
                child = family.children.get(key)
                if child is None:
                    child = factory(format_instrument(family.name, key),
                                    aggregate=family.aggregate)
                    family.children[key] = child
                return child
            child = factory(format_instrument(family.name, key),
                            aggregate=family.aggregate)
            family.children[key] = child
        return child

    def _instrument(self, kind: str, name: str,
                    labels: Dict[str, Any]) -> Any:
        """The ``kind`` instrument for ``name`` and ``labels``: the one
        memoized lookup behind :meth:`counter`, :meth:`histogram` and
        :meth:`gauge`.

        A call whose label values are unhashable skips the memo and
        resolves on the slow path every time. The overflow catch-all is
        never memoized: its every lookup must count a drop. The
        constructor is chosen only on a memo miss.
        """
        cache_key = (kind, name, *labels.items())
        try:
            child = self._fast.get(cache_key)
        except TypeError:
            child = None
            cache_key = None
        if child is not None:
            return child
        if kind == "counter":
            factory = LabeledCounter
        elif kind == "gauge":
            factory = LabeledGauge
        else:
            backend = self._hist_backends.get(name, self.histogram_backend)
            factory = partial(LabeledHistogram, backend=backend)
        family = self._family(name, kind, factory)
        child = self._child(family, labels, factory)
        if cache_key is not None and (
                not labels or label_key(labels) in family.children):
            self._fast[cache_key] = child
        return child

    # -- instruments ------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter (the family aggregate if unlabeled)."""
        if name in self._collected:
            self._collect()
        return self._instrument("counter", name, labels)

    def set_histogram_backend(self, name: str, backend: str) -> None:
        """Pick the backend for one histogram family, before first use.

        High-volume families (per-request latency at million-invoke
        scale) opt into ``"sketch"`` here while everything else stays
        exact; gate-pinned families must never be switched.
        """
        if backend not in ("exact", "sketch"):
            raise ValueError(f"unknown histogram backend: {backend!r}")
        if name in self._families:
            raise ValueError(
                f"histogram family {name!r} already exists; the backend "
                f"must be chosen before the first observation")
        self._hist_backends[name] = backend

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Get or create a histogram (the family aggregate if unlabeled)."""
        return self._instrument("histogram", name, labels)

    def merged_sketch(self, name: str,
                      **labels: Any) -> Optional[QuantileSketch]:
        """Lossless merge of a sketch family's children into one sketch.

        ``labels`` is a *subset* filter, like :meth:`window_delta`:
        every child whose label set contains the given pairs
        contributes (``merged_sketch("request_latency", fn="etl")``
        merges across the ``tenant=...`` label that rides along). With
        no labels the family aggregate's sketch is copied — the
        aggregate already holds every forwarded sample. Returns None
        for unknown, exact-backed, or empty selections.
        """
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            return None
        if not labels:
            sketch = family.aggregate.sketch
            if sketch is None or not sketch.count:
                return None
            return sketch.copy()
        want = set(label_key(labels))
        sketches = []
        for key in sorted(family.children):
            if not want <= set(key):
                continue
            sketch = family.children[key].sketch
            if sketch is not None and sketch.count:
                sketches.append(sketch)
        return QuantileSketch.merged(sketches)

    def merged_quantile(self, name: str, pct: float,
                        **labels: Any) -> Optional[float]:
        """One percentile (``0 <= pct <= 100``) of a merged roll-up.

        Convenience over :meth:`merged_sketch`; None when the selection
        is empty or the family is exact-backed.
        """
        sketch = self.merged_sketch(name, **labels)
        if sketch is None:
            return None
        return sketch.percentile(pct)

    def gauge(self, name: str, **labels: Any) -> TimeWeightedGauge:
        """Get or create a time-weighted gauge.

        The aggregate of a labeled gauge family tracks the *sum* of its
        children's levels.
        """
        if name in self._collected:
            self._collect()
        return self._instrument("gauge", name, labels)

    # -- snapshots ---------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """All counter values: aggregates under bare names, children
        under ``name{label=value}`` keys."""
        self._collect()
        out: Dict[str, float] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if family.kind != "counter":
                continue
            for key, inst in family.instruments():
                out[format_instrument(name, key)] = inst.value
        return out

    def histograms(self) -> Dict[str, Dict[str, float]]:
        """All histogram summaries (aggregates and labeled children)."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if family.kind != "histogram":
                continue
            for key, inst in family.instruments():
                out[format_instrument(name, key)] = inst.summary()
        return out

    def exemplars(self, name: str, **labels: Any
                  ) -> Dict[float, List[Tuple[float, Any]]]:
        """One histogram instrument's retained exemplars, by bucket
        upper bound (empty dict for unknown or exemplar-less
        instruments)."""
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            return {}
        inst = family.aggregate if not labels \
            else family.children.get(label_key(labels))
        if inst is None:
            return {}
        return inst.exemplars()

    def all_exemplars(self) -> Dict[str, List[Dict[str, Any]]]:
        """Every histogram instrument's exemplars, JSON-shaped.

        ``{instrument: [{"le": bound, "exemplars": [[value, trace_id],
        ...]}, ...]}``; instruments that retained none are omitted.
        """
        out: Dict[str, List[Dict[str, Any]]] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if family.kind != "histogram":
                continue
            for key, inst in family.instruments():
                buckets = [{"le": le, "exemplars": [[v, t] for v, t in pairs]}
                           for le, pairs in inst.exemplars().items()]
                if buckets:
                    out[format_instrument(name, key)] = buckets
        return out

    def exemplar_ids(self) -> Set[Any]:
        """Every trace id some histogram's exemplar reservoir holds (the
        trees a tracer must keep openable; see
        :meth:`~repro.sim.trace.Tracer.link_exemplars`)."""
        ids: Set[Any] = set()
        for family in self._families.values():
            if family.kind != "histogram":
                continue
            for inst in (family.aggregate, *family.children.values()):
                for pairs in inst.exemplars().values():
                    ids.update(trace_id for _v, trace_id in pairs)
        return ids

    def gauges(self, now: float) -> Dict[str, Dict[str, float]]:
        """All gauge levels / time-weighted means / peaks as of ``now``."""
        self._collect()
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if family.kind != "gauge":
                continue
            for key, inst in family.instruments():
                out[format_instrument(name, key)] = {
                    "level": inst.level,
                    "mean": inst.mean(now),
                    "peak": inst.peak,
                }
        return out

    # -- time series -------------------------------------------------------
    def sample(self, now: float) -> None:
        """Snapshot every counter value and gauge level at sim time
        ``now`` (histograms are cumulative; they are exported once at
        the end instead of per sample)."""
        self._collect()
        self._sample_times.append(now)
        for family in self._families.values():
            if family.kind == "histogram":
                continue
            for key, inst in family.instruments():
                value = inst.value if family.kind == "counter" \
                    else inst.level
                family.series.setdefault(key, []).append((now, value))

    def series(self, name: str, **labels: Any) -> List[Tuple[float, float]]:
        """The sampled ``(t, value)`` points of one instrument."""
        family = self._families.get(name)
        if family is None:
            return []
        return list(family.series.get(label_key(labels), ()))

    # -- windowed reads (the autoscale controller's view) -----------------
    def series_window(self, name: str, since: float,
                      **labels: Any) -> List[Tuple[float, float]]:
        """The sampled points of one instrument with ``t >= since``.

        Points are appended in time order, so the window is the tail of
        the series; the scan walks backwards from the end and is
        O(window), not O(history).
        """
        family = self._families.get(name)
        if family is None:
            return []
        points = family.series.get(label_key(labels), ())
        idx = len(points)
        while idx > 0 and points[idx - 1][0] >= since:
            idx -= 1
        return list(points[idx:])

    def _matching_keys(self, family: _Family,
                       labels: Dict[str, Any]) -> List[LabelKey]:
        """Children whose label set contains ``labels`` (subset filter);
        the bare aggregate when no labels are given."""
        if not labels:
            return [()]
        want = set(label_key(labels))
        return [key for key in sorted(family.series)
                if key and want <= set(key)]

    def window_delta(self, name: str, since: float,
                     **labels: Any) -> float:
        """How much a counter family grew over the sampled window.

        ``labels`` is a *subset* filter: every child whose label set
        contains the given pairs contributes (so ``window_delta(
        "warmpool.acquire", t, pool="fn/impl")`` sums across the
        ``outcome=...`` label that rides along). With no labels the
        family aggregate is read. The delta is measured from the last
        sample at or before ``since`` to the newest sample; instruments
        born inside the window contribute their full value.
        """
        family = self._families.get(name)
        if family is None or family.kind != "counter":
            return 0.0
        total = 0.0
        for key in self._matching_keys(family, labels):
            points = family.series.get(key)
            if not points:
                continue
            idx = len(points)
            while idx > 0 and points[idx - 1][0] > since:
                idx -= 1
            base = points[idx - 1][1] if idx > 0 else 0.0
            total += points[-1][1] - base
        return total

    def window_level(self, name: str, **labels: Any) -> float:
        """Sum of current gauge levels across children matching the
        subset filter (the family aggregate with no labels)."""
        if name in self._collected:
            self._collect()
        family = self._families.get(name)
        if family is None or family.kind != "gauge":
            return 0.0
        if not labels:
            return family.aggregate.level
        want = set(label_key(labels))
        return sum(child.level for key, child in sorted(
            family.children.items()) if want <= set(key))

    def sampler_process(self, sim, interval: float) -> Generator:
        """A simulation process that samples every ``interval`` seconds.

        Spawn with ``inherit_context=False`` so the sampler never
        parents under whatever span is open when it starts::

            sim.spawn(registry.sampler_process(sim, 1.0),
                      inherit_context=False)
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        while True:
            yield sim.timeout(interval)
            self.sample(sim.now)

    # -- export ------------------------------------------------------------
    def to_json(self, now: float = 0.0) -> Dict[str, Any]:
        """The whole registry as one JSON-serializable dict."""
        out: Dict[str, Any] = {
            "now_s": now,
            "counters": self.counters(),
            "gauges": self.gauges(now),
            "histograms": self.histograms(),
            "dropped_label_sets": self.dropped_label_sets,
        }
        series: Dict[str, List[List[float]]] = {}
        for name in sorted(self._families):
            family = self._families[name]
            for key, points in sorted(family.series.items()):
                series[format_instrument(name, key)] = \
                    [[t, v] for t, v in points]
        if series:
            out["series"] = series
        exemplars = self.all_exemplars()
        if exemplars:
            out["exemplars"] = exemplars
        return out

    def write_json(self, path: str, now: float = 0.0) -> None:
        """Dump :meth:`to_json` to a file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(now), fh, indent=2, sort_keys=True)

    def to_line_protocol(self, now: float = 0.0) -> str:
        """Final values as Influx line protocol (one line per
        instrument; histogram summaries become multiple fields).
        Timestamps are integer nanoseconds of simulated time."""
        self._collect()
        ts = int(now * 1e9)
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            for key, inst in family.instruments():
                tags = "".join(f",{k}={v}" for k, v in key)
                if family.kind == "counter":
                    fields = f"value={inst.value}"
                elif family.kind == "gauge":
                    fields = (f"level={inst.level}"
                              f",mean={inst.mean(now)}"
                              f",peak={inst.peak}")
                else:
                    summary = inst.summary()
                    if not summary["count"]:
                        continue
                    fields = ",".join(f"{k}={v}"
                                      for k, v in summary.items())
                lines.append(f"{name}{tags} {fields} {ts}")
                if family.kind == "histogram":
                    for le, pairs in inst.exemplars().items():
                        for value, trace_id in pairs:
                            lines.append(
                                f"{name}{tags},le={le} "
                                f"exemplar_value={value}"
                                f",trace_id={trace_id} {ts}")
        return "\n".join(lines)
