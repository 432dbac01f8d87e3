"""Diff two runs' critical-path totals (A/B perf comparison).

Takes two critical-path JSON artifacts (the ``e4.json`` that
``repro.bench.regress --out-dir`` writes) and prints per-span-name and
per-layer deltas, largest absolute change first. The fastest way to answer
"where did the 12 ms go?" between two branches::

    python -m repro.bench.span_diff before.json after.json

Also usable as a library against live tracers::

    rows = diff_totals(merged_by_name(reports_a),
                       merged_by_name(reports_b))
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from .regress import fold_layers


@dataclass(frozen=True)
class DiffRow:
    """One name's totals in the two runs."""

    name: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def pct(self) -> Optional[float]:
        """Relative change, or None when the name is new (before=0)."""
        if self.before == 0.0:
            return None
        return self.delta / self.before


def diff_totals(before: Dict[str, float],
                after: Dict[str, float]) -> List[DiffRow]:
    """Per-name rows, largest absolute delta first.

    Names present in only one run appear with 0.0 on the other side,
    so added/removed spans are always visible.
    """
    rows = [DiffRow(name, before.get(name, 0.0), after.get(name, 0.0))
            for name in sorted(set(before) | set(after))]
    return sorted(rows, key=lambda r: (-abs(r.delta), r.name))


def render_diff(rows: List[DiffRow], title: str = "span totals",
                min_delta: float = 0.0) -> str:
    """A text table of deltas; rows under ``min_delta`` are summed."""
    shown = [r for r in rows if abs(r.delta) >= min_delta]
    hidden = [r for r in rows if abs(r.delta) < min_delta]
    name_width = max([len(r.name) for r in shown] + [4])
    lines = [f"{title}: {len(shown)} changed"
             + (f" ({len(hidden)} below threshold)" if hidden else "")]
    lines.append(f"  {'name'.ljust(name_width)} "
                 f"{'before':>12} {'after':>12} {'delta':>12}  rel")
    for r in shown:
        rel = "   new" if r.pct is None else f"{r.pct * 100:+6.1f}%"
        if r.after == 0.0 and r.before > 0.0:
            rel = "  gone"
        lines.append(f"  {r.name.ljust(name_width)} "
                     f"{r.before * 1e3:9.3f} ms {r.after * 1e3:9.3f} ms "
                     f"{r.delta * 1e3:+9.3f} ms  {rel}")
    if hidden:
        residual = sum(r.delta for r in hidden)
        lines.append(f"  {'(residual)'.ljust(name_width)} "
                     f"{'':>12} {'':>12} {residual * 1e3:+9.3f} ms")
    return "\n".join(lines)


def _load_by_name(path: Path) -> Dict[str, float]:
    """Read per-span totals from a regress artifact (or a plain dict)."""
    doc: Any = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "by_name" in doc:
        return dict(doc["by_name"])
    if isinstance(doc, dict) and all(
            isinstance(v, (int, float)) for v in doc.values()):
        return {str(k): float(v) for k, v in doc.items()}
    raise ValueError(f"{path}: expected a critical-path artifact with "
                     "'by_name' or a flat name->seconds dict")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 on success, 2 on bad input."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.span_diff",
        description="diff two critical-path JSON artifacts")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--min-delta-us", type=float, default=1.0,
                        help="hide per-name rows below this delta")
    args = parser.parse_args(argv)
    try:
        before = _load_by_name(args.before)
        after = _load_by_name(args.after)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = diff_totals(before, after)
    print(render_diff(rows, title="per-span critical-path totals",
                      min_delta=args.min_delta_us * 1e-6))
    print()
    layer_rows = diff_totals(fold_layers(before), fold_layers(after))
    print(render_diff(layer_rows, title="per-layer totals"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
