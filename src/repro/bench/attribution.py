"""Online latency attribution: span trees folded into feedback vectors.

The critical-path walk (:mod:`repro.bench.critical_path`) answers *why*
one invocation was slow — cold start vs. wire vs. quorum — but until
now it only ran offline, after a whole experiment. This module runs the
same walk *incrementally*: a :class:`LatencyAttributor` registers as a
root listener on the tracer and, every time a sampled span tree
finishes, decomposes each ``invoke`` span in it into a small
**attribution vector** — cold start, queueing, transfer, quorum wait,
execute, other — keyed by ``(function, impl, node class)``.

Per key it maintains exponential moving averages with explicit
cold/warm separation: the **warm path** EMA excludes the cold-start
component entirely (a 2 s sandbox provision must not poison the
steady-state estimate), while the **cold overhead** EMA averages the
cold-start component over cold invocations only. That split is what
lets the observation-fed optimizer (:mod:`repro.core.optimizer`)
amortize observed cold starts exactly the way it amortizes modeled
ones, instead of ping-ponging off one expensive first call.

Alongside the EMA vectors each key keeps a **warm-latency quantile
sketch** (:class:`~repro.sim.sketch.QuantileSketch`): bounded-memory,
mergeable, so :meth:`LatencyAttributor.tail_latency` can answer "what
is the observed p99 of fn X on impl Y?" — per key or losslessly merged
across keys. That is the signal the tail-aware control loops read: the
scheduler's adaptive hedge arms at observed p99 instead of a fixed
constant, and the optimizer's ``objective="p99"`` trades mean against
tail.

Everything here is a pure observer: folding a finished tree schedules
no events and opens no spans, so attaching an attributor to a run
leaves the simulation's event order byte-identical.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.sketch import QuantileSketch
from ..sim.trace import Span, Tracer
from .critical_path import path_segments

#: The components every attribution vector decomposes into. They
#: partition the invoke span's duration exactly (critical-path
#: segments sum to the root duration), so a vector's values always add
#: up to the invocation's end-to-end latency.
COMPONENTS: Tuple[str, ...] = ("coldstart", "queueing", "transfer",
                               "quorum", "execute", "other")

#: Span name -> attribution component. Unknown span names fall into
#: "other" (control-plane bookkeeping, storage media time, etc.), so a
#: new span can never silently vanish from a vector.
COMPONENT_OF: Dict[str, str] = {
    "sandbox.provision": "coldstart",
    "warmpool.prewarm": "coldstart",
    "queue.wait": "queueing",
    "retry.backoff": "queueing",
    "net.transfer": "transfer",
    "net.local_copy": "transfer",
    "fifo.put": "transfer",
    "fifo.get": "transfer",
    "socket.send": "transfer",
    "socket.recv": "transfer",
    "quorum.read": "quorum",
    "quorum.write": "quorum",
    "eventual.read": "quorum",
    "eventual.write": "quorum",
    "execute": "execute",
    "compute": "execute",
}

#: Default EMA smoothing factor (weight of the newest observation).
DEFAULT_ALPHA = 0.3

#: Default minimum observations before consumers should trust a key.
DEFAULT_MIN_SAMPLES = 3


def component_of(span_name: str) -> str:
    """The attribution component a span name folds into."""
    return COMPONENT_OF.get(span_name, "other")


class AttributionStats:
    """Running attribution state for one (fn, impl, node-class) key."""

    __slots__ = ("count", "cold_count", "ema", "warm_ema",
                 "cold_overhead_ema", "total_ema", "warm_sketch")

    def __init__(self):
        self.count = 0
        self.cold_count = 0
        #: Per-component EMA over *all* observations.
        self.ema: Dict[str, float] = {}
        #: EMA of (total - coldstart): the steady-state latency.
        self.warm_ema: Optional[float] = None
        #: EMA of the coldstart component over cold invocations only.
        self.cold_overhead_ema: Optional[float] = None
        #: EMA of the raw end-to-end total (cold starts included).
        self.total_ema: Optional[float] = None
        #: Streaming quantile sketch of (total - coldstart): the warm
        #: latency *distribution*, not just its mean — what
        #: :meth:`LatencyAttributor.tail_latency` reads.
        self.warm_sketch = QuantileSketch()

    def update(self, vector: Dict[str, float], cold: bool,
               alpha: float) -> None:
        """Fold one decomposed invocation into the running state."""
        # Each EMA step is seeded by its first observation, then
        # ``(1 - alpha) * old + alpha * new``.
        self.count += 1
        keep = 1.0 - alpha
        total = sum(vector.values())
        coldstart = vector.get("coldstart", 0.0)
        ema = self.ema
        for comp in COMPONENTS:
            old = ema.get(comp)
            new = vector.get(comp, 0.0)
            ema[comp] = new if old is None else keep * old + alpha * new
        warm = total - coldstart
        old = self.warm_ema
        self.warm_ema = warm if old is None else keep * old + alpha * warm
        self.warm_sketch.insert(0.0 if warm < 0.0 else warm)
        old = self.total_ema
        self.total_ema = total if old is None \
            else keep * old + alpha * total
        if cold:
            self.cold_count += 1
            old = self.cold_overhead_ema
            self.cold_overhead_ema = coldstart if old is None \
                else keep * old + alpha * coldstart

    def to_json(self) -> Dict[str, Any]:
        """JSON-shaped snapshot of this key's state."""
        doc: Dict[str, Any] = {
            "count": self.count,
            "cold_count": self.cold_count,
            "ema": {c: self.ema.get(c, 0.0) for c in COMPONENTS},
            "warm_ema_s": self.warm_ema,
            "cold_overhead_ema_s": self.cold_overhead_ema,
            "total_ema_s": self.total_ema,
        }
        if self.warm_sketch.count:
            doc["warm_tail_s"] = {
                "q50": self.warm_sketch.percentile(50),
                "q90": self.warm_sketch.percentile(90),
                "q99": self.warm_sketch.percentile(99),
            }
        return doc


class _KeyedStats(dict):
    """The attributor's per-key state, with its keys kept in sorted order.

    Keys are only ever added, so each is placed once, when it is first
    inserted; queries then walk :attr:`ordered` instead of sorting the
    whole dict every time.
    """

    __slots__ = ("ordered",)

    def __init__(self):
        super().__init__()
        self.ordered: List[Tuple[str, str, str]] = []

    def __setitem__(self, key: Tuple[str, str, str],
                    value: AttributionStats) -> None:
        if key not in self:
            insort(self.ordered, key)
        dict.__setitem__(self, key, value)


class LatencyAttributor:
    """Folds finished sampled span trees into attribution vectors.

    Attach to a tracer (done in the constructor) and read back with
    :meth:`vector`, :meth:`warm_latency`, :meth:`cold_overhead`,
    :meth:`samples`, and :meth:`node_class_latency`. ``node_class_fn``
    maps an executor node id to a coarse class ("gpu", "cpu", ...); the
    default lumps every node into ``"all"``.
    """

    def __init__(self, tracer: Tracer,
                 node_class_fn: Optional[Callable[[str], str]] = None,
                 alpha: float = DEFAULT_ALPHA,
                 min_samples: int = DEFAULT_MIN_SAMPLES):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.tracer = tracer
        self.alpha = alpha
        self.min_samples = min_samples
        self.node_class_fn = node_class_fn or (lambda node_id: "all")
        self._stats = _KeyedStats()
        #: Invocations folded in (across all keys).
        self.observed_invokes = 0
        tracer.add_root_listener(self.observe_root)

    # -- ingestion --------------------------------------------------------
    def observe_root(self, root: Span) -> None:
        """Fold every finished ``invoke`` span under a finished root.

        Called by the tracer once per retained tree; also callable
        directly (e.g. replaying a recorded tracer offline).
        """
        # Depth-first in start order, as Tracer.walk visits: the fold
        # order decides the EMAs.
        stack = [root]
        pop = stack.pop
        push = stack.extend
        while stack:
            span = pop()
            if span.name == "invoke" and span.end is not None:
                self.observe_invoke(span)
            kids = span._kids
            if kids is not None:
                push(reversed(kids))

    def observe_invoke(self, span: Span) -> None:
        """Decompose one finished invoke span and update its key."""
        fn = span.attributes.get("fn")
        impl = span.attributes.get("impl")
        if fn is None or impl is None:
            return  # failed before placement: nothing to attribute to
        node = span.attributes.get("node")
        node_class = self.node_class_fn(node) if node is not None \
            else "all"
        vector = self.decompose(span)
        cold = bool(span.attributes.get("cold"))
        key = (str(fn), str(impl), node_class)
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = AttributionStats()
        stats.update(vector, cold, self.alpha)
        self.observed_invokes += 1

    def decompose(self, span: Span) -> Dict[str, float]:
        """One finished invoke span's attribution vector.

        Sums the critical path's segments per component, in
        chronological order, straight off the walk's tuples (no
        :class:`~repro.bench.critical_path.CriticalPathReport` is
        built); the values equal summing ``critical_path(...).segments``
        contribution by contribution, bit for bit.
        """
        vector = dict.fromkeys(COMPONENTS, 0.0)
        component = COMPONENT_OF.get
        for seg_span, lo, hi in path_segments(self.tracer, span):
            vector[component(seg_span.name, "other")] += hi - lo
        return vector

    # -- queries ----------------------------------------------------------
    def _matching(self, fn: Optional[str], impl: Optional[str],
                  node_class: Optional[str]
                  ) -> List[Tuple[Tuple[str, str, str], AttributionStats]]:
        stats = self._stats
        return [(key, stats[key]) for key in stats.ordered
                if (fn is None or key[0] == fn)
                and (impl is None or key[1] == impl)
                and (node_class is None or key[2] == node_class)]

    def samples(self, fn: Optional[str] = None,
                impl: Optional[str] = None,
                node_class: Optional[str] = None) -> int:
        """Observations folded into the matching keys."""
        return sum(st.count for _, st in self._matching(fn, impl,
                                                        node_class))

    def vector(self, fn: str, impl: str,
               node_class: Optional[str] = None
               ) -> Optional[Dict[str, float]]:
        """The EMA attribution vector for one (fn, impl).

        With ``node_class=None`` the per-class vectors merge by
        count-weighted average. None when the key was never observed.
        """
        matches = self._matching(fn, impl, node_class)
        total_n = sum(st.count for _, st in matches)
        if not total_n:
            return None
        out = {comp: 0.0 for comp in COMPONENTS}
        for _, st in matches:
            weight = st.count / total_n
            for comp in COMPONENTS:
                out[comp] += weight * st.ema.get(comp, 0.0)
        return out

    def _weighted(self, matches, field: str) -> Optional[float]:
        """Count-weighted average of one EMA field over matching keys."""
        pairs = [(st.count, getattr(st, field)) for _, st in matches
                 if getattr(st, field) is not None]
        total_n = sum(n for n, _ in pairs)
        if not total_n:
            return None
        return sum(n * value for n, value in pairs) / total_n

    def warm_latency(self, fn: str, impl: str,
                     node_class: Optional[str] = None) -> Optional[float]:
        """Observed steady-state latency (cold starts excluded)."""
        return self._weighted(self._matching(fn, impl, node_class),
                              "warm_ema")

    def tail_latency(self, fn: Optional[str] = None,
                     impl: Optional[str] = None,
                     node_class: Optional[str] = None,
                     q: float = 99.0) -> Optional[float]:
        """Observed warm-latency percentile (``0 <= q <= 100``).

        Each ``None`` dimension widens the selection; the matching
        keys' sketches merge losslessly before the quantile is read, so
        ``tail_latency("etl", q=99)`` is the p99 over *every* impl and
        node class that ran ``etl`` — not an average of per-key p99s.
        None when no matching key has warm observations.
        """
        merged = QuantileSketch.merged(
            st.warm_sketch for _, st in self._matching(fn, impl,
                                                       node_class)
            if st.warm_sketch.count)
        if merged is None:
            return None
        return merged.percentile(q)

    def cold_overhead(self, fn: str, impl: str,
                      node_class: Optional[str] = None) -> Optional[float]:
        """Observed cold-start overhead (None until a cold invoke)."""
        return self._weighted(self._matching(fn, impl, node_class),
                              "cold_overhead_ema")

    def node_class_latency(self, node_class: str,
                           fn: Optional[str] = None,
                           impl: Optional[str] = None) -> Optional[float]:
        """Observed warm latency of everything run on one node class."""
        return self._weighted(self._matching(fn, impl, node_class),
                              "warm_ema")

    def node_classes(self) -> List[str]:
        """Node classes observed so far (sorted)."""
        return sorted({key[2] for key in self._stats})

    def keys(self) -> List[Tuple[str, str, str]]:
        """All observed (fn, impl, node_class) keys (sorted)."""
        return list(self._stats.ordered)

    # -- export -----------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The whole attribution state as one JSON-shaped dict."""
        return {
            "alpha": self.alpha,
            "min_samples": self.min_samples,
            "observed_invokes": self.observed_invokes,
            "keys": {
                f"{fn}/{impl}@{node_class}": st.to_json()
                for (fn, impl, node_class), st in sorted(
                    self._stats.items())
            },
        }


#: The attributor of a cloud without attribution: its private tracer is
#: disabled, so it never observes — ``samples()`` is 0 and every latency
#: read is None, and consumers fall back through their min-samples guards.
#: One instance is shared by every such cloud in the process, so it must
#: never be fed (``observe_root``/``observe_invoke``) or re-configured.
NO_ATTRIBUTION = LatencyAttributor(Tracer(enabled=False))
