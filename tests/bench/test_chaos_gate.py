"""The chaos sub-gate: pinned replay, win conditions, CLI round trip."""

import json

import pytest

from repro.bench.regress import main

from .conftest import GATE


@pytest.fixture(scope="module")
def chaos_doc(gate_doc):
    return gate_doc("chaos")


def test_chaos_gate_meets_its_own_bar(chaos_doc):
    """A fresh gate run satisfies its own baseline: exact pins hold,
    the hardened arm wins, nobody blocks past a deadline, hedging cuts
    the gray tail, and the run replays outcome-identically."""
    assert GATE["chaos"].compare(chaos_doc, chaos_doc) == []
    assert chaos_doc["hardened"]["goodput"] > chaos_doc["naive"]["goodput"]
    assert chaos_doc["hardened"]["max_time_to_outcome_s"] \
        <= chaos_doc["config"]["deadline_s"] + chaos_doc["deadline_eps_s"]
    assert chaos_doc["hedged"]["p99_s"] < chaos_doc["unhedged"]["p99_s"]
    assert chaos_doc["replay_identical"] is True
    assert chaos_doc["naive"]["faults_injected"] > 0


def test_compare_chaos_flags_outcome_fingerprint_drift(chaos_doc):
    base = json.loads(json.dumps(chaos_doc))
    base["naive"]["outcome_fingerprint"] = "0" * 16
    violations = GATE["chaos"].compare(chaos_doc, base)
    assert any("outcome_fingerprint" in v for v in violations)


def test_compare_chaos_flags_lost_goodput_win(chaos_doc):
    cur = json.loads(json.dumps(chaos_doc))
    cur["hardened"]["goodput"] = cur["naive"]["goodput"]
    assert any("does not beat" in v
               for v in GATE["chaos"].compare(cur, cur))


def test_compare_chaos_flags_deadline_breach(chaos_doc):
    cur = json.loads(json.dumps(chaos_doc))
    cur["hardened"]["max_time_to_outcome_s"] = \
        cur["config"]["deadline_s"] + 1.0
    assert any("blocked" in v for v in GATE["chaos"].compare(cur, cur))


def test_compare_chaos_flags_lost_hedge_win(chaos_doc):
    cur = json.loads(json.dumps(chaos_doc))
    cur["hedged"]["p99_s"] = cur["unhedged"]["p99_s"]
    assert any("no longer cuts" in v for v in GATE["chaos"].compare(cur, cur))


def test_compare_chaos_flags_broken_replay(chaos_doc):
    cur = json.loads(json.dumps(chaos_doc))
    cur["replay_identical"] = False
    assert any("replay" in v for v in GATE["chaos"].compare(cur, cur))


def test_cli_only_chaos_update_then_compare_and_perturb(tmp_path):
    chaos = ["--only", "chaos", "--baseline-dir", str(tmp_path)]
    out = tmp_path / "out"
    assert main(chaos + ["--update"]) == 0
    cb = tmp_path / "chaos_goodput.json"
    doc = json.loads(cb.read_text())
    assert doc["hardened"]["goodput"] > doc["naive"]["goodput"]
    assert main(chaos + ["--out-dir", str(out)]) == 0
    assert json.loads((out / "chaos.json").read_text())[
        "replay_identical"] is True

    # Perturb a pinned count: the gate must fail.
    doc["hardened"]["offered"] += 1
    cb.write_text(json.dumps(doc))
    assert main(chaos) == 1


def test_cli_missing_chaos_baseline_is_usage_error(tmp_path):
    assert main(["--only", "chaos",
                 "--baseline-dir", str(tmp_path / "nope")]) == 2


def test_cli_rejects_contradictory_flags():
    """Gate selection is ``--only NAME`` alone: no ``--skip``, and the
    old per-gate flags are gone rather than aliased."""
    with pytest.raises(SystemExit):
        main(["--only", "chaos", "--skip", "chaos"])
    with pytest.raises(SystemExit):
        main(["--only-chaos", "--skip-chaos"])
