"""Critical-path extraction over span trees.

Given a root span (one invocation, or a whole task-graph run), walk the
tree backwards from the root's end and attribute every instant of
end-to-end latency to exactly one span: the deepest span that was the
*reason* time was passing at that instant. Gaps not covered by any
child are the parent's own time (scheduling, isolation crossings,
bookkeeping). The segment lengths therefore sum exactly to the root's
duration, which is what makes the report trustworthy for "which layer
dominates E4 latency" questions.

The algorithm is the standard one used by distributed-trace analyzers:
start a cursor at the window's end, repeatedly charge the child span
with the latest end time before the cursor (recursing into it over the
overlap), and charge the remaining uncovered prefix to the span itself.
Parallel children (quorum fan-out) are handled by clamping each child
to the still-unattributed window, so only the blocking chain is
charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..sim.trace import Span, Tracer


@dataclass(frozen=True)
class PathSegment:
    """One stretch of wall-clock attributed to one span."""

    span: Span
    start: float
    end: float

    @property
    def contribution(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    """The critical path of one root span."""

    root: Span
    segments: List[PathSegment]

    @property
    def total(self) -> float:
        """End-to-end latency of the root (sum of all contributions)."""
        return self.root.duration

    def by_name(self) -> Dict[str, float]:
        """Aggregate contribution per span name, largest first."""
        agg: Dict[str, float] = {}
        for seg in self.segments:
            agg[seg.span.name] = agg.get(seg.span.name, 0.0) \
                + seg.contribution
        return dict(sorted(agg.items(), key=lambda kv: -kv[1]))

    def dominant(self, n: int = 5) -> List[tuple]:
        """The ``n`` largest (name, seconds, fraction) contributors."""
        total = max(self.total, 1e-12)
        return [(name, secs, secs / total)
                for name, secs in list(self.by_name().items())[:n]]

    def render(self) -> str:
        """A text report: one bar per span name, largest first."""
        total = max(self.total, 1e-12)
        lines = [f"critical path of {self.root.name!r}: "
                 f"{self.total * 1e3:.3f} ms end-to-end"]
        width = max((len(name) for name in self.by_name()), default=4)
        for name, secs in self.by_name().items():
            frac = secs / total
            bar = "#" * max(1, int(round(frac * 40)))
            lines.append(f"  {name.ljust(width)} {secs * 1e3:9.3f} ms "
                         f"{frac * 100:5.1f}%  {bar}")
        return "\n".join(lines)


def critical_path(tracer: Tracer,
                  root: Optional[Span] = None) -> CriticalPathReport:
    """Extract the critical path below ``root`` (default: first root).

    Every returned segment lies within the root's interval, segments do
    not overlap, and their lengths sum to the root's duration exactly.
    """
    if root is None:
        roots = [s for s in tracer.roots() if s.finished]
        if not roots:
            raise ValueError("tracer holds no finished root spans "
                             "(run with tracing enabled)")
        root = roots[0]
    if not root.finished:
        raise ValueError(f"root span {root.name!r} has not ended")
    segments = [PathSegment(span, lo, hi)
                for span, lo, hi in path_segments(tracer, root)]
    return CriticalPathReport(root=root, segments=segments)


def path_segments(tracer: Tracer,
                  root: Span) -> List[Tuple[Span, float, float]]:
    """The critical path of a finished ``root`` as plain tuples.

    ``(span, start, end)`` per segment, in chronological order: the
    same segments :func:`critical_path` wraps in :class:`PathSegment`,
    without the per-segment objects — the form online consumers
    (:class:`~repro.bench.attribution.LatencyAttributor`) fold per
    invocation.
    """
    segments: List[Tuple[Span, float, float]] = []
    _walk(root, root.start, root.end, segments)
    segments.reverse()  # chronological order
    return segments


#: Sort key of the walk: a C-level getter, so a sort makes no Python
#: call per child.
_end = attrgetter("end")


def _walk(span: Span, lo: float, hi: float,
          segments: List[Tuple[Span, float, float]]) -> None:
    """Attribute the window [lo, hi] to ``span`` and its descendants.

    Appends ``(span, start, end)`` segments in reverse-chronological
    order (the caller flips them once at the end). Reads the span's
    child list in place: a leaf returns at once, a single child is
    walked without a copy, and only two or more finished children are
    sorted by end (stably, so children that tie on end keep their
    start order).
    """
    kids = span._kids
    if kids is None:
        if hi > lo:
            segments.append((span, lo, hi))
        return
    if len(kids) == 1:
        children = kids if kids[0].end is not None else ()
    else:
        children = [c for c in kids if c.end is not None]
        if len(children) > 1:
            children.sort(key=_end, reverse=True)
    cursor = hi
    for child in children:
        if cursor <= lo:
            break
        c_end = child.end
        if cursor < c_end:
            c_end = cursor
        c_start = child.start
        if lo > c_start:
            c_start = lo
        if c_end <= c_start:
            continue
        if c_end < cursor:
            # Uncovered tail between this child and the last charged
            # work: the parent's own time.
            segments.append((span, c_end, cursor))
        _walk(child, c_start, c_end, segments)
        cursor = c_start
    if cursor > lo:
        segments.append((span, lo, cursor))


def invocation_critical_paths(tracer: Tracer) -> List[CriticalPathReport]:
    """One report per finished ``invoke`` span in the trace."""
    return [critical_path(tracer, span)
            for span in tracer.spans(name="invoke") if span.finished]


def merged_by_name(reports: List[CriticalPathReport]) -> Dict[str, float]:
    """Sum per-name contributions across many invocations."""
    agg: Dict[str, float] = {}
    for report in reports:
        for name, secs in report.by_name().items():
            agg[name] = agg.get(name, 0.0) + secs
    return dict(sorted(agg.items(), key=lambda kv: -kv[1]))
