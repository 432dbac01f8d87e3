"""The perf-regression gate: layer folding, comparison, CLI."""

import json

import pytest

from repro.bench.regress import (
    ABS_FLOOR,
    compare,
    fold_layers,
    layer_of,
    main,
    run_pinned_e4,
)

from .conftest import GATE


def _baseline(by_layer, **overrides):
    doc = {"by_layer": by_layer, "requests": 10,
           "default_tolerance": 0.15, "abs_floor_s": ABS_FLOOR,
           "tolerances": {}}
    doc.update(overrides)
    return doc


# -- layer folding -------------------------------------------------------

def test_layer_of_known_and_unknown_names():
    assert layer_of("net.transfer") == "network"
    assert layer_of("quorum.write") == "quorum"
    assert layer_of("sandbox.provision") == "coldstart"
    assert layer_of("brand.new.span") == "other"


def test_layer_of_autoscale_spans():
    assert layer_of("autoscale.tick") == "control"
    assert layer_of("autoscale.resize") == "control"
    # Prewarming is provisioning work, so it folds with cold starts.
    assert layer_of("warmpool.prewarm") == "coldstart"


def test_fold_layers_sums_names_into_layers():
    folded = fold_layers({"net.transfer": 1.0, "net.local_copy": 0.5,
                          "compute": 2.0, "mystery": 0.25})
    assert folded == {"compute": 2.0, "network": 1.5, "other": 0.25}


# -- comparator edges ----------------------------------------------------

def test_compare_passes_within_tolerance():
    base = _baseline({"network": 1.0, "compute": 2.0})
    assert compare({"network": 1.1, "compute": 2.2}, base) == []


def test_compare_flags_drift_beyond_tolerance():
    base = _baseline({"network": 1.0})
    violations = compare({"network": 1.2}, base)
    assert len(violations) == 1
    assert "network" in violations[0]
    # Improvements beyond tolerance are flagged too: the baseline is
    # stale either way and must be consciously updated.
    assert compare({"network": 0.7}, base)


def test_compare_per_layer_tolerance_overrides_default():
    base = _baseline({"coldstart": 1.0}, tolerances={"coldstart": 0.5})
    assert compare({"coldstart": 1.4}, base) == []
    assert compare({"coldstart": 1.6}, base)


def test_compare_absolute_floor_ignores_tiny_layers():
    # 40 us of drift on a near-zero layer stays under the floor.
    base = _baseline({"quorum": 0.0})
    assert compare({"quorum": 4e-5}, base) == []
    assert compare({"quorum": 4e-4}, base)


def test_compare_missing_and_new_layers():
    base = _baseline({"network": 1.0, "storage": 0.5})
    # A layer vanishing entirely is a violation...
    assert compare({"network": 1.0}, base)
    # ...as is a substantial brand-new layer.
    violations = compare({"network": 1.0, "storage": 0.5,
                          "other": 0.01}, base)
    assert len(violations) == 1
    assert "other" in violations[0]


# -- pinned run + CLI (one E4 run, reused) -------------------------------

@pytest.fixture(scope="module")
def small_run():
    return run_pinned_e4()


def test_pinned_run_produces_layer_totals(small_run):
    _cloud, by_name, by_layer = small_run
    assert by_layer.get("compute", 0) > 0
    assert by_layer.get("network", 0) > 0
    assert by_layer.get("coldstart", 0) > 0
    assert sum(by_layer.values()) == pytest.approx(sum(by_name.values()))


def test_pinned_run_emits_labeled_metrics(small_run):
    cloud, _by_name, _by_layer = small_run
    counters = cloud.metrics.to_json(cloud.sim.now)["counters"]
    assert counters["network.bytes"] > 0
    labeled = [k for k in counters if "{purpose=" in k]
    assert labeled, "expected per-purpose network counters"


def test_cli_update_then_compare_and_perturb(tmp_path):
    out = tmp_path / "out"
    e4 = ["--only", "e4", "--baseline-dir", str(tmp_path)]
    assert main(e4 + ["--update"]) == 0
    assert main(e4 + ["--out-dir", str(out)]) == 0
    assert json.loads((out / "e4.json").read_text())["by_layer"]
    assert json.loads((out / "e4_metrics.json").read_text())["counters"]

    # Perturb one layer in the baseline: the gate must fail.
    baseline = tmp_path / "e4_critical_path.json"
    doc = json.loads(baseline.read_text())
    doc["by_layer"]["network"] *= 2.0
    baseline.write_text(json.dumps(doc))
    assert main(e4) == 1


def test_cli_missing_baseline_is_usage_error(tmp_path):
    assert main(["--only", "e4",
                 "--baseline-dir", str(tmp_path / "nope")]) == 2


# -- the autoscale sub-gate ------------------------------------------------

@pytest.fixture(scope="module")
def autoscale_doc(gate_doc):
    return gate_doc("autoscale")


def test_autoscale_gate_meets_its_own_bar(autoscale_doc):
    """A fresh gate run satisfies its own baseline: deterministic
    replay, reduction above the floor, both arms back at zero."""
    assert GATE["autoscale"].compare(autoscale_doc, autoscale_doc) == []
    assert autoscale_doc["cold_start_reduction"] \
        >= autoscale_doc["min_reduction"]
    assert autoscale_doc["controlled"]["cold_starts"] \
        < autoscale_doc["fixed"]["cold_starts"]


def test_compare_autoscale_flags_weak_reduction(autoscale_doc):
    cur = json.loads(json.dumps(autoscale_doc))
    cur["cold_start_reduction"] = 0.1
    violations = GATE["autoscale"].compare(cur, autoscale_doc)
    assert any("below the required" in v for v in violations)


def test_compare_autoscale_flags_pools_that_never_drain(autoscale_doc):
    cur = json.loads(json.dumps(autoscale_doc))
    base = json.loads(json.dumps(autoscale_doc))
    cur["fixed"]["final_size"] = base["fixed"]["final_size"] = 2
    violations = GATE["autoscale"].compare(cur, base)
    # Pinned fields agree, so the only violation is the drain check.
    assert violations == ["fixed: pool did not scale to zero "
                          "(final_size=2)"]


def test_cli_autoscale_update_then_compare_and_perturb(tmp_path):
    autoscale = ["--only", "autoscale", "--baseline-dir", str(tmp_path)]
    assert main(autoscale + ["--update"]) == 0
    asb = tmp_path / "autoscale_burst.json"
    doc = json.loads(asb.read_text())
    assert doc["controlled"]["cold_starts"] < doc["fixed"]["cold_starts"]
    assert main(autoscale) == 0

    # Perturb a pinned arm field: the gate must fail.
    doc["controlled"]["cold_starts"] += 5
    asb.write_text(json.dumps(doc))
    assert main(autoscale) == 1


def test_cli_missing_autoscale_baseline_is_usage_error(tmp_path):
    assert main(["--only", "e4", "--update",
                 "--baseline-dir", str(tmp_path)]) == 0
    assert main(["--only", "e4", "--only", "autoscale",
                 "--baseline-dir", str(tmp_path)]) == 2
