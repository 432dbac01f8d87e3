"""The gate registry: per-gate pinning, the CLI loop, and the CI matrix."""

import json
import re
from pathlib import Path

import pytest

from repro.bench import regress
from repro.bench.regress import BASELINE_DIR, GATES, main

from .conftest import pinned_pairs

GATE_NAMES = [gate.name for gate in GATES]

#: The deterministic gates; throughput's run is a timing benchmark and
#: is covered by synthetic docs in test_throughput_gate.py.
REPLAY_GATES = [gate for gate in GATES if gate.name != "throughput"]

CI_YML = Path(__file__).resolve().parents[2] / ".github" / "workflows" \
    / "ci.yml"


def _perturbed(value):
    """A different value of the same JSON kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1  # +1 s also clears every E4 layer tolerance
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, dict):
        return {**value, "perturbed": 0}
    assert value is None, f"unexpected pinned value {value!r}"
    return 0


def _snapshot(directory):
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(directory.iterdir())}


# -- every replay gate ---------------------------------------------------

@pytest.mark.parametrize("gate", REPLAY_GATES, ids=lambda g: g.name)
def test_gate_passes_itself_and_guards_pinned_fields(gate, gate_doc):
    doc = gate_doc(gate.name)
    assert gate.compare(doc, doc) == []
    assert gate.summary(doc)
    paths = ([("by_layer", layer) for layer in doc["by_layer"]]
             if gate.name == "e4" else pinned_pairs(gate, doc))
    assert paths
    for path in paths:
        baseline = gate_doc(gate.name)
        parent = baseline
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _perturbed(parent[path[-1]])
        violations = gate.compare(doc, baseline)
        assert len(violations) == 1, (path, violations)
        assert path[-1] in violations[0], (path, violations)


def test_registry_order_and_baselines():
    assert GATE_NAMES == ["e4", "autoscale", "chaos", "attribution",
                          "throughput", "overload", "recovery", "tail"]
    for gate in GATES:
        assert (BASELINE_DIR / gate.baseline).is_file(), gate.name


def test_digest_is_order_sensitive_and_tuple_blind():
    assert regress.digest([("ok", 0.5)]) == regress.digest([["ok", 0.5]])
    assert regress.digest(["a", "b"]) != regress.digest(["b", "a"])
    assert len(regress.digest([])) == 16


# -- the CLI loop ----------------------------------------------------------

def test_cli_update_leaves_committed_baselines_untouched(tmp_path):
    """``--update`` writes only under ``--baseline-dir``; the seven
    deterministic gates reproduce the committed baselines byte for
    byte."""
    before = _snapshot(BASELINE_DIR)
    argv = ["--update", "--baseline-dir", str(tmp_path)]
    for gate in REPLAY_GATES:
        argv += ["--only", gate.name]
    assert main(argv) == 0
    assert _snapshot(BASELINE_DIR) == before
    for gate in REPLAY_GATES:
        assert (tmp_path / gate.baseline).read_bytes() \
            == before[gate.baseline][0], gate.name


def test_cli_missing_baseline_fails_fast(tmp_path, capsys):
    """Every missing baseline is reported before any gate runs."""
    assert main(["--baseline-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    for gate in GATES:
        assert str(tmp_path / gate.baseline) in err


def test_cli_only_runs_exactly_the_selected_gates(tmp_path):
    out = tmp_path / "out"
    assert main(["--only", "autoscale", "--only", "e4",
                 "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) \
        == ["autoscale.json", "e4.json", "e4_metrics.json"]


@pytest.mark.parametrize("argv", [
    ["--only", "nosuchgate"],
    ["--skip", "chaos"],
    ["--only-chaos"],
    ["--out", "x.json"],
    ["--baseline", "x.json"],
    ["--throughput-repeat", "3"],
])
def test_cli_rejects_unknown_gates_and_removed_flags(argv):
    with pytest.raises(SystemExit):
        main(argv)


# -- CI ----------------------------------------------------------------------

def test_ci_matrix_has_one_arm_per_gate():
    text = CI_YML.read_text(encoding="utf-8")
    matrix = re.search(r"^ +gate:\n((?: +- \S+\n)+)", text, re.M)
    assert matrix is not None, "no gate: list in the CI matrix"
    assert re.findall(r"- (\S+)", matrix.group(1)) == GATE_NAMES
    assert "--only ${{ matrix.gate }} --out-dir artifacts" in text
