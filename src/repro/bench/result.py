"""The common shape every experiment returns."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from .tables import format_table


def outcome_record(outcomes: Sequence[Any], sim) -> Dict[str, Any]:
    """A pinned run's outcome digest and exact event count, kept apart.

    ``outcome_digest`` hashes every outcome and the final virtual clock;
    ``events`` is the simulator's event count. A change that only adds
    or removes simulator events moves ``events`` and leaves the digest,
    so it can never hide whether an outcome moved.
    """
    payload = json.dumps([outcomes, repr(sim.now)], separators=(",", ":"))
    return {
        "outcome_digest":
            hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16],
        "events": sim._seq,
    }


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rows plus machine-readable facts.

    ``claims`` holds the quantities the paper's argument rests on
    (ratios, orderings); benchmark tests assert against them, and
    EXPERIMENTS.md prints them next to the paper's numbers.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    claims: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The experiment as an ASCII table with notes."""
        out = [format_table(self.headers, self.rows,
                            title=f"[{self.experiment_id}] {self.title}")]
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)
