"""The tail sub-gate: pinned E26 drift replay and its CLI."""

import json

import pytest

from repro.bench.regress import BASELINE_DIR, main

from .conftest import GATE


@pytest.fixture(scope="module")
def tail_doc(gate_doc):
    return gate_doc("tail")


def test_gate_meets_its_own_bar(tail_doc):
    """A fresh gate run satisfies its own baseline and win conditions."""
    assert GATE["tail"].compare(tail_doc, tail_doc) == []
    assert tail_doc["p99"]["flip_index"] is not None
    assert tail_doc["mean"]["stuck_on_bimodal"]
    assert tail_doc["hedge_adaptive"]["p99_s"] \
        < tail_doc["hedge_fixed"]["p99_s"]
    assert tail_doc["hedge_adaptive"]["launch_fraction"] \
        <= tail_doc["max_hedge_overhead"]
    assert tail_doc["sketch_rel_err"] <= tail_doc["max_sketch_rel_err"]


def test_gate_matches_checked_in_baseline(tail_doc):
    """The repo baseline is fresh: a clean checkout replays it exactly."""
    baseline = json.loads((BASELINE_DIR / "tail_drift.json")
                          .read_text(encoding="utf-8"))
    assert GATE["tail"].compare(tail_doc, baseline) == []


def test_compare_flags_latency_drift(tail_doc):
    base = json.loads(json.dumps(tail_doc))
    base["hedge_adaptive"]["latency_fingerprint"] = "0" * 16
    assert any("hedge_adaptive.latency_fingerprint" in v
               for v in GATE["tail"].compare(tail_doc, base))


def test_compare_flags_missing_flip(tail_doc):
    cur = json.loads(json.dumps(tail_doc))
    cur["p99"]["flip_index"] = None
    assert any("never flipped" in v
               for v in GATE["tail"].compare(cur, tail_doc))


def test_compare_flags_unstuck_mean_arm(tail_doc):
    cur = json.loads(json.dumps(tail_doc))
    cur["mean"]["stuck_on_bimodal"] = False
    assert any("mean-steered arm" in v
               for v in GATE["tail"].compare(cur, tail_doc))


def test_compare_flags_weak_adaptive_hedge(tail_doc):
    cur = json.loads(json.dumps(tail_doc))
    cur["hedge_adaptive"]["p99_s"] = cur["hedge_fixed"]["p99_s"] + 1.0
    assert any("hedging no longer beats" in v
               for v in GATE["tail"].compare(cur, tail_doc))


def test_compare_flags_hedge_overhead_blowout(tail_doc):
    cur = json.loads(json.dumps(tail_doc))
    cur["hedge_adaptive"]["launch_fraction"] = \
        cur["max_hedge_overhead"] + 0.01
    assert any("launch" in v for v in GATE["tail"].compare(cur, tail_doc))


def test_compare_flags_sketch_accuracy_regression(tail_doc):
    cur = json.loads(json.dumps(tail_doc))
    cur["sketch_rel_err"] = cur["max_sketch_rel_err"] + 0.01
    assert any("sketch" in v for v in GATE["tail"].compare(cur, tail_doc))


def test_cli_only_tail_update_then_compare_and_perturb(tmp_path):
    tail = ["--only", "tail", "--baseline-dir", str(tmp_path)]
    out = tmp_path / "out"
    assert main(tail + ["--update"]) == 0
    tb = tmp_path / "tail_drift.json"
    doc = json.loads(tb.read_text())
    assert doc["p99"]["flip_index"] is not None
    assert main(tail + ["--out-dir", str(out)]) == 0
    assert json.loads((out / "tail.json").read_text())[
        "p99"]["decision_fingerprint"]

    # Perturb a pinned fingerprint: the gate must fail.
    doc["mean"]["latency_fingerprint"] = "f" * 16
    tb.write_text(json.dumps(doc))
    assert main(tail) == 1


def test_cli_missing_tail_baseline_is_usage_error(tmp_path):
    assert main(["--only", "tail",
                 "--baseline-dir", str(tmp_path / "nope")]) == 2


def test_cli_only_and_skip_tail_are_exclusive():
    """There is no ``--skip``, and the removed per-gate flags are not
    aliases of ``--only``."""
    with pytest.raises(SystemExit):
        main(["--only", "tail", "--skip", "tail"])
    with pytest.raises(SystemExit):
        main(["--only-tail"])
