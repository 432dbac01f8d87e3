"""Hierarchical tracing for simulations: spans with context propagation.

A :class:`Tracer` records a *span tree*: every :class:`Span` has a
start/end in simulated time, arbitrary attributes, an ok/error status,
and a parent — so an invocation decomposes into placement, cold start,
execution, storage operations, and the network transfers each of those
issued (the whole-request visibility §4.1 argues PCSI gives the
provider).

Context propagation is cooperative with the simulation kernel: the
current span is stored on the *active process* (see
:class:`~repro.sim.engine.Process.context`), so spans opened inside a
simulation process parent correctly even while many processes
interleave, and child processes spawned mid-span (quorum fan-out)
inherit the span that spawned them.

Each span is stored in one place: the tracer's id-keyed span dict
(start order) plus its parent's child list. Every query
(``spans(name=, category=)``, ``roots()``, ``children()``, ``walk()``)
reads that store, and dropping a finished tree is O(tree).

The store is bounded: root listeners consume each retained tree when
its root ends, so the tracer keeps only the open trees, the last
:data:`RETAIN_WINDOW` to ``2 * RETAIN_WINDOW`` finished retained trees
(finish order), and any finished tree a histogram exemplar links to
(see :meth:`Tracer.link_exemplars`). Older finished trees are dropped
in batches of one window.

``record(time, category, **payload)`` is an *instant* span (start =
end = ``time``, no parent) for callers outside the kernel; no kernel
code calls it (a kernel fact that is not a span is a metric).

Tracing is off by default; a disabled tracer's ``span()`` returns a
shared no-op singleton, so the hot path allocates nothing.

**Head-based sampling** makes tracing affordable under load: a
:class:`SamplingPolicy` decides *once*, when a root span is about to
open, whether that whole request tree is recorded. The decision
propagates through the same process-context mechanism as the spans
themselves, so every descendant of an unsampled root gets the
allocation-free :data:`NULL_SPAN` without consulting the policy again.
Three decisions exist:

* :data:`SAMPLE` — record the tree normally;
* :data:`DROP` — record nothing (children all see :data:`NULL_SPAN`);
* :data:`DEFER` — record *provisionally* and keep the tree only if any
  span in it ends with an error (tail-latency/error capture on top of
  an otherwise aggressive drop rate; see :class:`ErrorTailSampler`).
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from sys import getrefcount
from sys import intern as _intern
from typing import (Any, Callable, Collection, Dict, Iterable, Iterator,
                    List, Optional)

from .rng import RandomStream

#: Process-context key under which the current span is stored.
_CTX_KEY = "trace.current_span"

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Sampling decisions a :class:`SamplingPolicy` may return.
SAMPLE = "sample"
DROP = "drop"
DEFER = "defer"

#: Internal mark of a span whose tree was discarded. Every discarded
#: span carries it, and a span opened under a marked parent inherits
#: it at open, so a straggler of a dropped tree — still open at the
#: discard, or opened afterwards — records nothing when it ends. It
#: never reaches a sampling policy.
_ORPHAN = "orphan"

#: Bound on the discarded-span freelist (beyond this, dropped spans are
#: left to the garbage collector).
_SPAN_POOL_LIMIT = 4096

#: Finished retained trees kept after their root listeners ran: once
#: ``2 * RETAIN_WINDOW`` are held, the oldest ``RETAIN_WINDOW`` are
#: discarded in one batch (exemplar-linked trees excepted).
RETAIN_WINDOW = 256


class Span:
    """One node of the span tree.

    A plain slotted class (not a dataclass): spans are the dominant
    allocation of a traced run, and finished-and-dropped spans are
    recycled through the tracer's freelist at its one checkout,
    :meth:`Tracer._open_span`, so construction and field reset must be
    cheap. ``_kids`` is the deferred child list — ``None`` until the
    first child arrives, replacing the old per-tracer
    ``{parent_id: [children]}`` dict and its per-span ``setdefault``.
    """

    __slots__ = ("span_id", "parent_id", "name", "category", "start",
                 "attributes", "end", "status", "error", "sampling",
                 "_kids")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 category: str, start: float,
                 attributes: Optional[Dict[str, Any]] = None,
                 end: Optional[float] = None, status: str = STATUS_OK,
                 error: Optional[str] = None,
                 sampling: Optional[str] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.attributes = attributes if attributes is not None else {}
        self.end = end
        self.status = status
        self.error = error
        #: Sampling disposition: None (normal), DEFER (a root recorded
        #: provisionally, fate decided at its end), "error_tail" (a
        #: deferred root kept because its tree erred), or ``_ORPHAN``
        #: (a span of a discarded tree).
        self.sampling = sampling
        self._kids: Optional[List["Span"]] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed simulated time (raises if the span is still open)."""
        if self.end is None:
            raise ValueError(f"span {self.name!r} has not ended")
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach or update attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def __repr__(self) -> str:
        return (f"Span(span_id={self.span_id}, parent_id={self.parent_id}, "
                f"name={self.name!r}, category={self.category!r}, "
                f"start={self.start}, end={self.end}, "
                f"status={self.status!r})")


class _NullSpan:
    """Shared no-op stand-in when tracing is disabled or unsampled.

    Acts as both the context manager and the span, so call sites write
    ``with tracer.span(...) as sp: sp.set(...)`` with zero branches.
    A single instance is reused; the disabled hot path allocates nothing
    beyond the call's argument tuple.
    """

    __slots__ = ()

    span_id = -1
    parent_id = None
    name = ""
    category = ""
    start = 0.0
    end = 0.0
    status = STATUS_OK
    error = None
    attributes: Dict[str, Any] = {}
    finished = True
    duration = 0.0

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


#: The singleton returned by ``span()`` on a disabled tracer.
NULL_SPAN = _NullSpan()

#: Context-dict sentinel marking "this process is inside an unsampled
#: root": every span opened while it is set short-circuits to
#: :data:`NULL_SPAN`. Spawned children inherit it with the context.
_UNSAMPLED = object()


class SamplingPolicy:
    """Decides the fate of a would-be root span (head-based sampling).

    ``decide`` sees the root's name and attributes — for the kernel's
    request roots that means ``invoke`` with ``fn=...``/``client=...``
    (plus whatever the caller attached, e.g. ``tenant=...``) — and
    returns :data:`SAMPLE`, :data:`DROP`, or :data:`DEFER`. It is never
    consulted for child spans: the root decision covers the tree.
    """

    def decide(self, name: str,
               attributes: Dict[str, Any]) -> str:  # pragma: no cover
        raise NotImplementedError


class AlwaysSample(SamplingPolicy):
    """Record every root (the implicit default of a sampler-less tracer)."""

    def decide(self, name: str, attributes: Dict[str, Any]) -> str:
        return SAMPLE


class NeverSample(SamplingPolicy):
    """Drop every root (spans off; ``record()`` instants are kept)."""

    def decide(self, name: str, attributes: Dict[str, Any]) -> str:
        return DROP


class ProbabilisticSampler(SamplingPolicy):
    """Sample each root independently with fixed probability ``rate``.

    Draws come from a seeded :class:`~repro.sim.rng.RandomStream`, so a
    run's sampled set is reproducible from the seed.
    """

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate out of range: {rate}")
        self.rate = rate
        self._rng = RandomStream(seed, f"trace-sampler/p={rate}")

    def decide(self, name: str, attributes: Dict[str, Any]) -> str:
        if self.rate >= 1.0:
            return SAMPLE
        if self.rate <= 0.0:
            return DROP
        return SAMPLE if self._rng.uniform() < self.rate else DROP


class KeyedRateSampler(SamplingPolicy):
    """Per-key sampling rates read from one root attribute.

    ``KeyedRateSampler("fn", {"infer": 0.01}, default=1.0)`` traces 1%
    of ``infer`` invocations and everything else; keying on ``tenant``
    gives per-tenant budgets. Roots missing the attribute use
    ``default``.
    """

    def __init__(self, key: str, rates: Dict[str, float],
                 default: float = 1.0, seed: int = 0):
        for k, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {k!r} out of range: {rate}")
        if not 0.0 <= default <= 1.0:
            raise ValueError(f"default rate out of range: {default}")
        self.key = key
        self.rates = dict(rates)
        self.default = default
        self._rng = RandomStream(seed, f"trace-sampler/{key}")

    def decide(self, name: str, attributes: Dict[str, Any]) -> str:
        rate = self.rates.get(attributes.get(self.key), self.default)
        if rate >= 1.0:
            return SAMPLE
        if rate <= 0.0:
            return DROP
        return SAMPLE if self._rng.uniform() < rate else DROP


class ErrorTailSampler(SamplingPolicy):
    """Upgrade a base policy's drops to deferred (keep-on-error) roots.

    The wrapped policy sets the steady-state budget; any root it would
    drop is instead recorded provisionally and retained only if its
    tree finishes with an error somewhere — so failures are *always*
    traced, no matter how aggressive the base rate.
    """

    def __init__(self, base: SamplingPolicy):
        self.base = base

    def decide(self, name: str, attributes: Dict[str, Any]) -> str:
        decision = self.base.decide(name, attributes)
        return DEFER if decision == DROP else decision


class _UnsampledRootContext:
    """Context manager for a dropped root: marks the process context so
    every descendant span short-circuits to :data:`NULL_SPAN`.

    Stateless — a single instance per tracer is shared by all processes
    (the marker lives in each process's own context dict, and roots by
    definition open with no current span, so exit simply clears it).
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self) -> _NullSpan:
        self._tracer._context()[_CTX_KEY] = _UNSAMPLED
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        self._tracer._context().pop(_CTX_KEY, None)
        return False


class _SpanContext:
    """Context manager that opens a span on entry and ends it on exit.

    Entry and exit run in the same simulation process (the generator
    that wrote the ``with``), so saving/restoring the process-local
    current span is race-free under interleaving — and the context
    dict resolved once by :meth:`Tracer.span` (``_ctx``) stays valid
    for both.

    Entry resolves the parent from that context and checks the span
    out through :meth:`Tracer._open_span`; exit closes it through
    :meth:`Tracer.end_span`. Those two methods are the only span open
    and close paths, so explicit ``start_span``/``end_span`` callers
    and ``with tracer.span(...)`` produce identical trees.
    """

    __slots__ = ("_tracer", "_name", "_category", "_parent", "_attributes",
                 "_span", "_saved", "_sampling", "_ctx")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 parent: Optional[Span], attributes: Dict[str, Any],
                 sampling: Optional[str], ctx: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._parent = parent
        self._attributes = attributes
        self._span: Optional[Span] = None
        self._saved: Optional[Span] = None
        self._sampling = sampling
        self._ctx = ctx

    def __enter__(self) -> Span:
        tracer = self._tracer
        ctx = self._ctx
        current = ctx.get(_CTX_KEY)
        parent = self._parent
        if parent is None and current is not _UNSAMPLED:
            parent = current
        if parent is not None and parent.span_id < 0:
            parent = None
        # The attribute dict was freshly built by span()'s **kwargs, so
        # the span takes ownership of it.
        span = tracer._open_span(self._name, self._category, parent,
                                 self._attributes, tracer._now())
        if self._sampling is not None:
            span.sampling = self._sampling
        self._span = span
        self._saved = current
        ctx[_CTX_KEY] = span
        return span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        span = self._span
        ctx = self._ctx
        if self._saved is None:
            ctx.pop(_CTX_KEY, None)
        else:
            ctx[_CTX_KEY] = self._saved
        if exc_type is None:
            self._tracer.end_span(span)
            return False
        # The exception type is a queryable attribute ("cause"), so
        # error-tail analysis can group spans by failure mode without
        # parsing the human-readable error string.
        span.attributes.setdefault("cause", exc_type.__name__)
        self._tracer.end_span(span, status=STATUS_ERROR,
                              error=f"{exc_type.__name__}: {exc}")
        return False


class Tracer:
    """Span-tree trace.

    Tracing is off by default (``enabled=False`` constructs a no-op
    tracer) so the hot path stays cheap in large experiments. Bind a
    simulator (:meth:`bind`) for simulated-time clocks and per-process
    context propagation; unbound tracers fall back to an explicit
    ``clock`` callable (or time 0) and a single shared context.
    """

    def __init__(self, enabled: bool = True,
                 clock: Optional[Callable[[], float]] = None,
                 sampler: Optional[SamplingPolicy] = None):
        self.enabled = enabled
        self._clock = clock
        self._sim = None
        #: The span store: insertion-ordered (= start-ordered) dict,
        #: with each parent's ``_kids`` the only other link. There is
        #: deliberately no parallel list — discarding a sampled-out
        #: tree must be O(tree), not O(all spans).
        self._spans_by_id: Dict[int, Span] = {}
        self._ids = itertools.count(1)
        #: Fallback context when no simulator process is active.
        self._local_ctx: Dict[str, Any] = {}
        self._sampler = sampler
        self._unsampled_cm = _UnsampledRootContext(self)
        #: Freelist of discarded spans (only ever *finished* spans from
        #: dropped deferred trees). Entries may still be referenced by
        #: live frames when they enter; the refcount check happens at
        #: *checkout* (see :meth:`_open_span`), by which point the
        #: discarding frames have usually unwound.
        self._span_pool: "deque[Span]" = deque()
        #: Head-sampling accounting (roots only).
        self.sampled_roots = 0
        self.unsampled_roots = 0
        self.deferred_kept = 0
        self.deferred_dropped = 0
        #: Callbacks fired once per *retained* finished root span (see
        #: :meth:`add_root_listener`).
        self._root_listeners: List[Callable[[Span], None]] = []
        #: Finished retained roots, oldest first (see :meth:`_retain`).
        self._finished: "deque[Span]" = deque()
        #: Finished roots a trim skipped because an exemplar links them;
        #: each trim checks them again.
        self._linked: List[Span] = []
        #: Source of the root ids a trim must keep (see
        #: :meth:`link_exemplars`); the default keeps none.
        self._linked_ids: Callable[[], Collection[int]] = frozenset

    # -- wiring ---------------------------------------------------------
    def bind(self, sim) -> "Tracer":
        """Attach a simulator: clock = sim.now, context = active process."""
        self._sim = sim
        return self

    def add_root_listener(self,
                          callback: Callable[[Span], None]) -> "Tracer":
        """Register an online consumer of finished span trees.

        The callback runs synchronously when a *root* span ends and its
        tree is retained: immediately for normally sampled roots, and
        at keep-time for deferred (error-tail) trees. Dropped trees —
        head-sampled away or deferred-then-clean — never fire, so a
        listener only ever sees trees whose spans are fully recorded.
        Listeners must not open spans or advance the simulation; they
        are observers, not participants. After the listeners ran, the
        tree stays queryable only while it is in the retention window
        (:data:`RETAIN_WINDOW`) or an exemplar links it.
        """
        self._root_listeners.append(callback)
        return self

    def link_exemplars(self,
                       exemplar_ids: Callable[[], Collection[int]]
                       ) -> "Tracer":
        """Keep the finished trees whose root ids ``exemplar_ids()``
        returns (a metrics registry's ``exemplar_ids``) past the
        retention window, so an exemplar link stays openable.

        The source is read once per trim; a tree whose id has left it
        is dropped at the next trim.
        """
        self._linked_ids = exemplar_ids
        return self

    def _retain(self, root: Span) -> None:
        """Hand a retained finished root to the listeners, then keep it
        in the finish-ordered window, trimming the window when full."""
        for callback in self._root_listeners:
            callback(root)
        finished = self._finished
        finished.append(root)
        if len(finished) >= 2 * RETAIN_WINDOW:
            self._trim()

    def _trim(self) -> None:
        """Discard the oldest window of finished trees, keeping those an
        exemplar links (checked again at the next trim)."""
        finished = self._finished
        linked_ids = self._linked_ids()
        oldest = [finished.popleft() for _ in range(RETAIN_WINDOW)]
        linked = []
        for root in itertools.chain(self._linked, oldest):
            if root.span_id in linked_ids:
                linked.append(root)
            else:
                self._discard_tree(root)
        self._linked = linked

    def exemplar_root_id(self, span) -> Optional[int]:
        """The trace root id a metrics exemplar may reference, or None.

        None for :data:`NULL_SPAN` / disabled tracing (nothing to point
        at), for roots still in :data:`DEFER` limbo — their tree may yet
        be discarded, and an exemplar must never dangle — and for spans
        whose tree was already discarded (a straggler of a trimmed or
        dropped tree). Kept error-tail trees and normally sampled roots
        qualify; once a returned id is filed in a reservoir the tracer
        links (:meth:`link_exemplars`), the retention window keeps its
        tree while the reservoir holds it.
        """
        if not self.enabled or span is None or span is NULL_SPAN:
            return None
        node = span
        while node.parent_id is not None:
            parent = self._spans_by_id.get(node.parent_id)
            if parent is None:
                return None  # tree already discarded
            node = parent
        if node.sampling == DEFER or node.sampling == _ORPHAN:
            return None
        return node.span_id

    def set_sampler(self, sampler: Optional[SamplingPolicy]) -> "Tracer":
        """Install (or clear) the head-based sampling policy.

        ``None`` restores the default: every root is recorded. The
        policy is consulted only when a *root* span opens; in-flight
        trees keep the decision made at their root.
        """
        self._sampler = sampler
        return self

    def _now(self) -> float:
        if self._sim is not None:
            return self._sim._now
        if self._clock is not None:
            return self._clock()
        return 0.0

    def _context(self) -> Dict[str, Any]:
        """The mutable context dict of whoever is running right now."""
        if self._sim is not None:
            proc = self._sim.active_process
            if proc is not None:
                return proc.context
        return self._local_ctx

    # -- span lifecycle -------------------------------------------------
    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span of the running process (or None)."""
        if not self.enabled:
            return None
        span = self._context().get(_CTX_KEY)
        return None if span is _UNSAMPLED else span

    def span(self, name: str, category: Optional[str] = None,
             parent: Optional[Span] = None, **attributes: Any):
        """Context manager: open a child of the current span.

        Returns :data:`NULL_SPAN` (a shared no-op) when disabled or
        anywhere inside an unsampled root's tree, so wrapping hot-path
        code in ``with tracer.span(...)`` costs almost nothing
        untraced.

        With a sampler installed, a span opening with no current span
        (a *root*) consults the policy once; the verdict rides the
        process context to every descendant, across ``spawn`` fan-out.
        """
        if not self.enabled:
            return NULL_SPAN
        # Resolve the process context dict once; the returned context
        # manager reuses it for both entry and exit, which run in the
        # same process as this call.
        ctx = self._context()
        sampling = None
        if self._sampler is not None and parent is None:
            current = ctx.get(_CTX_KEY)
            if current is _UNSAMPLED:
                return NULL_SPAN
            if current is None:
                decision = self._sampler.decide(name, attributes)
                if decision == DROP:
                    self.unsampled_roots += 1
                    return self._unsampled_cm
                if decision == DEFER:
                    sampling = DEFER
                else:
                    self.sampled_roots += 1
        return _SpanContext(self, name,
                            category if category is not None else name,
                            parent, attributes, sampling=sampling, ctx=ctx)

    def start_span(self, name: str, parent: Optional[Span] = None,
                   category: Optional[str] = None,
                   time: Optional[float] = None,
                   **attributes: Any) -> Span:
        """Explicitly open a span (the context manager is preferred)."""
        return self._open_span(
            name, category if category is not None else name,
            parent if parent is not None and parent.span_id >= 0 else None,
            attributes, self._now() if time is None else time)

    def _open_span(self, name: str, category: str,
                   parent: Optional[Span],
                   attributes: Dict[str, Any], start: float) -> Span:
        """The one span checkout (behind ``span()`` and ``start_span``);
        takes ownership of ``attributes``.

        Recycles a pooled span when one is available: every field is
        reassigned here, so a recycled span is indistinguishable from a
        fresh one (pinned by tests/sim/test_trace_pooling.py). Names
        and categories are interned — traced runs repeat a small
        vocabulary millions of times.
        """
        span_id = next(self._ids)
        name = _intern(name)
        category = _intern(category)
        parent_id = parent.span_id if parent is not None else None
        span = None
        pool = self._span_pool
        while pool:
            candidate = pool.popleft()
            # 2 = our local + getrefcount's argument: nothing outside
            # this frame holds the discarded span anymore, so reusing
            # it can never be observed. A still-referenced candidate
            # is dropped to the garbage collector, not retried.
            if getrefcount(candidate) == 2:
                span = candidate
                span.span_id = span_id
                span.parent_id = parent_id
                span.name = name
                span.category = category
                span.start = start
                span.attributes = attributes
                span.end = None
                span.status = STATUS_OK
                span.error = None
                span.sampling = None
                span._kids = None
                break
        if span is None:
            span = Span(span_id=span_id, parent_id=parent_id, name=name,
                        category=category, start=start,
                        attributes=attributes)
        self._spans_by_id[span_id] = span
        if parent is not None:
            kids = parent._kids
            if kids is None:
                parent._kids = [span]
            else:
                kids.append(span)
            if parent.sampling == _ORPHAN:
                span.sampling = _ORPHAN
        return span

    def end_span(self, span: Span, time: Optional[float] = None,
                 status: str = STATUS_OK,
                 error: Optional[str] = None) -> Span:
        """Close a span.

        Closing a *deferred* (keep-on-error) root decides its tree:
        kept if any span in it erred, else discarded. A span of an
        already discarded tree is dropped from the store.
        """
        if span is None or span is NULL_SPAN:
            return span
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already ended")
        span.end = self._now() if time is None else time
        span.status = status
        span.error = error
        mark = span.sampling
        if mark is not None:
            if mark == DEFER:
                self._resolve_deferred(span)
                return span
            if mark == _ORPHAN:
                # Straggler of an already-dropped tree.
                self._spans_by_id.pop(span.span_id, None)
                return span
        if span.parent_id is None \
                and self._spans_by_id.get(span.span_id) is span:
            self._retain(span)
        return span

    def _resolve_deferred(self, root: Span) -> None:
        """Decide a deferred tree at root end: keep on error, else drop."""
        if any(s.status == STATUS_ERROR for s in self.walk(root)):
            root.sampling = "error_tail"
            self.deferred_kept += 1
            if self._spans_by_id.get(root.span_id) is root:
                self._retain(root)
        else:
            self.deferred_dropped += 1
            self._discard_tree(root)

    def _discard_tree(self, root: Span) -> None:
        """Remove a root and all its descendants from the tracer.

        Removal is O(tree size): spans are stored only in the id dict,
        so no global list needs rebuilding. Discarded spans with no
        surviving outside reference are recycled through the span pool;
        anything user code still holds (a ``with ... as sp`` binding, a
        still-open child's context entry) stays out of the pool, so a
        held span can never be observed mutating into a new one.
        """
        spans_by_id = self._spans_by_id
        pool = self._span_pool
        stack = [root]
        while stack:
            node = stack.pop()
            spans_by_id.pop(node.span_id, None)
            # Unlink the tree: children() of a discarded span reports
            # none, and each span's liveness is judged independently at
            # checkout. Attribute payloads stay — a caller still holding
            # a discarded span sees its data unchanged.
            kids = node._kids
            if kids is not None:
                stack.extend(kids)
                node._kids = None
            # A straggler still open ends without recording, and a span
            # opened later under any discarded span (an explicit
            # ``parent=`` included) inherits the mark. Live spans never
            # enter the pool.
            node.sampling = _ORPHAN
            if node.end is not None and len(pool) < _SPAN_POOL_LIMIT:
                pool.append(node)

    # -- span queries ----------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self._spans_by_id)

    def spans(self, name: Optional[str] = None,
              category: Optional[str] = None) -> List[Span]:
        """All spans (in start order), optionally filtered."""
        out: Iterable[Span] = self._spans_by_id.values()
        if name is not None:
            out = (s for s in out if s.name == name)
        if category is not None:
            out = (s for s in out if s.category == category)
        return list(out)

    def roots(self) -> List[Span]:
        """Spans with no parent (request/graph roots)."""
        return [s for s in self._spans_by_id.values()
                if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in start order."""
        kids = span._kids
        return list(kids) if kids is not None else []

    def get_span(self, span_id: int) -> Optional[Span]:
        return self._spans_by_id.get(span_id)

    def root_of(self, span: Span) -> Span:
        """Walk parent links to the tree root."""
        while span.parent_id is not None:
            span = self._spans_by_id[span.parent_id]
        return span

    def walk(self, span: Span) -> Iterator[Span]:
        """Depth-first iteration over ``span`` and its descendants."""
        stack = [span]
        while stack:
            node = stack.pop()
            yield node
            if node._kids is not None:
                stack.extend(reversed(node._kids))

    def depth_of(self, span: Span) -> int:
        """Tree depth below ``span`` (a leaf has depth 0)."""
        kids = span._kids
        if not kids:
            return 0
        return 1 + max(self.depth_of(k) for k in kids)

    def record(self, time: float, category: str, **payload: Any) -> None:
        """Keep an instant span at ``time`` with ``payload`` as its
        attributes (a no-op if disabled).

        The span is a root named after ``category``; no sampler is
        consulted, so it is kept under any policy.
        """
        if not self.enabled:
            return
        self.end_span(self._open_span(category, category, None, payload,
                                      time), time)

    def clear(self) -> None:
        """Drop all spans and empty the retention window.

        A root still open at the clear is not retained when it ends.
        Cleared spans are *not* pooled: callers may hold references to
        them (clearing between experiment phases while keeping a few
        roots for inspection is normal usage).
        """
        self._spans_by_id.clear()
        self._finished.clear()
        self._linked = []

    # -- export -----------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The span tree as Chrome/Perfetto trace-event JSON (a dict).

        Each finished span becomes one complete ("ph": "X") event;
        timestamps are microseconds of simulated time. Each root span's
        tree renders as its own track (tid = root span id), so
        concurrent requests stack instead of smearing into one row.
        Load the dumped file in ``chrome://tracing`` or
        https://ui.perfetto.dev.
        """
        events: List[Dict[str, Any]] = []
        for span in self._spans_by_id.values():
            if span.end is None:
                continue
            args = dict(span.attributes)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.status != STATUS_OK:
                args["status"] = span.status
                args["error"] = span.error
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 0,
                "tid": self.root_of(span).span_id,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Dump :meth:`to_chrome_trace` to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, default=str)


#: A shared disabled tracer, for components constructed without one.
NULL_TRACER = Tracer(enabled=False)
