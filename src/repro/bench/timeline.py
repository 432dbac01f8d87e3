"""Text Gantt charts from the invocation span tree.

With ``PCSICloud(trace=True)``, every invocation leaves an ``invoke``
span tree in the tracer. :func:`render_timeline` turns those trees into
an aligned text chart — the quickest way to *see* pipelining, cold
starts, and co-location without leaving the terminal.

Example output::

    0.000s                                            0.450s
    preprocess   [####......................................]
    infer              [..........##################........]
    postprocess                                 [......####..]

Rows come from the span tree (root ``invoke`` spans and their
``execute`` children).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.trace import Span, Tracer

#: Characters available for the bar area.
DEFAULT_WIDTH = 60


def _find_descendant(tracer: Tracer, span: Span,
                     name: str) -> Optional[Span]:
    """First descendant of ``span`` called ``name`` (depth-first)."""
    for node in tracer.walk(span):
        if node is not span and node.name == name:
            return node
    return None


def _rows_from_spans(tracer: Tracer,
                     label: Optional[str]) -> List[Tuple]:
    """(start, exec_start, end, tag) per finished invoke span."""
    rows: List[Tuple] = []
    for span in tracer.spans(name="invoke"):
        if not span.finished:
            continue
        attrs = span.attributes
        if label is not None and attrs.get("fn") != label:
            continue
        execute = _find_descendant(tracer, span, "execute")
        exec_start = execute.start if execute is not None else span.start
        tag = (f"{attrs.get('fn', '?')}/{attrs.get('impl', '?')}"
               f"@{attrs.get('node', '?')}"
               + (" COLD" if attrs.get("cold") else ""))
        rows.append((span.start, exec_start, span.end, tag))
    return rows


def render_timeline(tracer: Tracer, width: int = DEFAULT_WIDTH,
                    max_rows: int = 40,
                    label: Optional[str] = None) -> str:
    """Render every invocation in ``tracer`` as one chart row.

    Each row shows the invocation's full latency window (``#`` for the
    executing portion, ``.`` for dispatch/placement/cold start),
    labelled with the function, implementation, and node. Rows beyond
    ``max_rows`` are summarized.
    """
    if width < 10:
        raise ValueError("width must be at least 10")
    rows = _rows_from_spans(tracer, label)
    if not rows:
        return "(no invocation spans recorded — construct the cloud "\
               "with trace=True)"

    t0 = min(r[0] for r in rows)
    t1 = max(r[2] for r in rows)
    span_total = max(t1 - t0, 1e-12)
    label_width = min(max(len(r[3]) for r in rows), 40)

    def col(t: float) -> int:
        return int((t - t0) / span_total * (width - 1))

    lines = [f"{t0:.3f}s".ljust(label_width + 1 + width - 8)
             + f"{t1:.3f}s"]
    clipped = rows[:max_rows]
    for start, exec_start, end, tag in clipped:
        bar = [" "] * width
        for i in range(col(start), col(end) + 1):
            bar[i] = "."
        for i in range(col(exec_start), col(end) + 1):
            bar[i] = "#"
        lines.append(f"{tag[:label_width].ljust(label_width)} "
                     f"[{''.join(bar)}]")
    if len(rows) > max_rows:
        lines.append(f"... {len(rows) - max_rows} more spans")
    return "\n".join(lines)


#: Span names that represent bytes moving between places.
_MOVEMENT = ("net.transfer", "net.local_copy")
#: Span names that represent queue hand-offs between stages.
_HANDOFF = ("fifo.put", "fifo.get", "socket.send", "socket.recv")


def render_graph_timeline(tracer: Tracer, root: Optional[Span] = None,
                          width: int = DEFAULT_WIDTH,
                          max_rows: int = 40) -> str:
    """Per-stage lanes for one ``graph``/``pipeline`` root span.

    Each stage (``invoke`` descendant of the root) gets one lane over
    the root's time window, so overlap between stages is visible as
    vertically aligned bars. Within a lane, ``#`` marks the executing
    portion, ``~`` marks data movement (network transfers / local
    copies), ``>`` marks FIFO/socket hand-offs, and ``.`` the rest
    (dispatch, placement, cold start, queueing)::

        graph 0.000s                                        0.412s
        decode/wasm@rack0-n0 COLD [..####~~####>>          ]
        encode/wasm@rack0-n0      [      >..####~~####     ]
    """
    if width < 10:
        raise ValueError("width must be at least 10")
    if root is None:
        candidates = [s for s in tracer.roots()
                      if s.finished and s.name in ("graph", "pipeline")]
        if not candidates:
            return "(no finished graph/pipeline root spans — submit a " \
                   "graph or run a pipeline with trace=True)"
        root = candidates[0]
    if not root.finished:
        raise ValueError(f"root span {root.name!r} has not ended")
    stages = [s for s in tracer.walk(root)
              if s is not root and s.name == "invoke" and s.finished]
    if not stages:
        return f"(root {root.name!r} has no finished invoke stages)"
    stages.sort(key=lambda s: s.start)

    t0, t1 = root.start, root.end
    span_total = max(t1 - t0, 1e-12)

    def col(t: float) -> int:
        clamped = min(max(t, t0), t1)
        return int((clamped - t0) / span_total * (width - 1))

    def paint(bar: List[str], start: float, end: float, ch: str) -> None:
        for i in range(col(start), col(end) + 1):
            bar[i] = ch

    tags = []
    for stage in stages:
        attrs = stage.attributes
        tags.append(f"{attrs.get('fn', '?')}/{attrs.get('impl', '?')}"
                    f"@{attrs.get('node', '?')}"
                    + (" COLD" if attrs.get("cold") else ""))
    label_width = min(max(len(tag) for tag in tags), 40)

    header = f"{root.name} {t0:.3f}s"
    lines = [header.ljust(label_width + 1 + width - 8) + f"{t1:.3f}s"]
    for stage, tag in list(zip(stages, tags))[:max_rows]:
        bar = [" "] * width
        paint(bar, stage.start, stage.end, ".")
        for node in tracer.walk(stage):
            if node.name == "execute" and node.finished:
                paint(bar, node.start, node.end, "#")
        # Movement and hand-offs paint over execution: the point of the
        # chart is to show when a stage is moving bytes versus working.
        for node in tracer.walk(stage):
            if not node.finished:
                continue
            if node.name in _MOVEMENT:
                paint(bar, node.start, node.end, "~")
            elif node.name in _HANDOFF:
                paint(bar, node.start, node.end, ">")
        lines.append(f"{tag[:label_width].ljust(label_width)} "
                     f"[{''.join(bar)}]")
    if len(stages) > max_rows:
        lines.append(f"... {len(stages) - max_rows} more stages")
    lines.append("legend: # execute  ~ data movement  > fifo/socket  "
                 ". overhead")
    return "\n".join(lines)


def span_summary(tracer: Tracer) -> dict:
    """Aggregate statistics over invocations (counts by function,
    cold starts, total busy time)."""
    by_fn: dict = {}
    for span in tracer.spans(name="invoke"):
        if not span.finished:
            continue
        attrs = span.attributes
        stats = by_fn.setdefault(attrs.get("fn", "?"),
                                 {"count": 0, "cold": 0, "busy_s": 0.0})
        stats["count"] += 1
        stats["cold"] += 1 if attrs.get("cold") else 0
        execute = _find_descendant(tracer, span, "execute")
        stats["busy_s"] += execute.duration if execute is not None \
            else span.duration
    return by_fn
