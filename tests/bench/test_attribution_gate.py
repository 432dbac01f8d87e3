"""The attribution sub-gate: pinned E22 drift replay and its CLI."""

import json

import pytest

from repro.bench.regress import BASELINE_DIR, main

from .conftest import GATE


@pytest.fixture(scope="module")
def attribution_doc(gate_doc):
    return gate_doc("attribution")


def test_gate_meets_its_own_bar(attribution_doc):
    """A fresh gate run satisfies its own baseline and win conditions."""
    assert GATE["attribution"].compare(attribution_doc, attribution_doc) == []
    assert attribution_doc["gap_closed"] \
        >= attribution_doc["min_gap_closed"]
    assert attribution_doc["ema"]["phase2_mean_s"] \
        < attribution_doc["static"]["phase2_mean_s"]
    assert attribution_doc["static"]["phase2_all_npu"]
    assert attribution_doc["static"]["phase1_all_npu"]
    assert attribution_doc["ema"]["phase1_all_npu"]


def test_gate_matches_checked_in_baseline(attribution_doc):
    """The repo baseline is fresh: a clean checkout replays it exactly."""
    baseline = json.loads((BASELINE_DIR / "attribution_drift.json")
                          .read_text(encoding="utf-8"))
    assert GATE["attribution"].compare(attribution_doc, baseline) == []


def test_compare_flags_latency_drift(attribution_doc):
    base = json.loads(json.dumps(attribution_doc))
    base["forced_gpu"]["latency_fingerprint"] = "0" * 16
    assert any("forced_gpu.latency_fingerprint" in v
               for v in GATE["attribution"].compare(attribution_doc, base))


def test_compare_flags_weak_gap(attribution_doc):
    cur = json.loads(json.dumps(attribution_doc))
    cur["gap_closed"] = 0.1
    assert any("below the required" in v
               for v in GATE["attribution"].compare(cur, attribution_doc))


def test_compare_flags_slow_or_absent_migration(attribution_doc):
    cur = json.loads(json.dumps(attribution_doc))
    cur["ema_flip_index"] = None
    assert any("migrated" in v
               for v in GATE["attribution"].compare(cur, attribution_doc))


def test_compare_flags_static_arm_leaving_npu(attribution_doc):
    cur = json.loads(json.dumps(attribution_doc))
    cur["static"]["phase2_all_npu"] = False
    assert any("open-loop failure" in v
               for v in GATE["attribution"].compare(cur, attribution_doc))


def test_cli_only_attribution_update_then_compare_and_perturb(tmp_path):
    attribution = ["--only", "attribution", "--baseline-dir", str(tmp_path)]
    out = tmp_path / "out"
    assert main(attribution + ["--update"]) == 0
    ab = tmp_path / "attribution_drift.json"
    doc = json.loads(ab.read_text())
    assert doc["gap_closed"] >= doc["min_gap_closed"]
    assert main(attribution + ["--out-dir", str(out)]) == 0
    assert json.loads((out / "attribution.json").read_text())[
        "ema"]["decision_fingerprint"]

    # Perturb a pinned fingerprint: the gate must fail.
    doc["static"]["decision_fingerprint"] = "f" * 16
    ab.write_text(json.dumps(doc))
    assert main(attribution) == 1


def test_cli_missing_attribution_baseline_is_usage_error(tmp_path):
    assert main(["--only", "attribution",
                 "--baseline-dir", str(tmp_path / "nope")]) == 2


def test_cli_only_and_skip_attribution_are_exclusive():
    """There is no ``--skip``, and the removed per-gate flags are not
    aliases of ``--only``."""
    with pytest.raises(SystemExit):
        main(["--only", "attribution", "--skip", "attribution"])
    with pytest.raises(SystemExit):
        main(["--only-attribution"])
