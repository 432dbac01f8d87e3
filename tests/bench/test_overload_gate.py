"""Overload gate: sweep determinism and the comparison rules.

The gate's value rests on the E24 sweep being a pure function of its
config — the open-loop arrival schedules, admission decisions, and
deadline outcomes must replay bit-for-bit — and on the gate's claims
actually rejecting every class of drift they document. These tests pin
determinism on a shrunken sweep (the committed baseline pins the full
SHORT sweep) and exercise each comparison rule on fabricated docs.
"""

import pytest

from repro.bench.experiments import e24_overload
from repro.bench.experiments.e24_overload import (
    MAX_UNPROTECTED_FRACTION,
    MIN_GATED_FRACTION,
    MIN_JAIN,
    OverloadRunConfig,
    jain_index,
)
from repro.bench.regress import run_overload_gate

from .conftest import GATE

#: A sweep small enough for the test suite but with the same shape:
#: both arms, an under- and over-capacity multiplier, the hog run, and
#: a shrunken scale smoke.
TINY = OverloadRunConfig(horizon=2.5, multipliers=(0.5, 4.0),
                         hog_horizon=1.5, scale_tenants=100,
                         scale_horizon=0.5)


@pytest.fixture
def tiny_sweep(monkeypatch):
    """Point ``run_overload_gate`` at the shrunken sweep config."""
    monkeypatch.setattr(e24_overload, "SHORT", TINY)


def test_overload_gate_doc_is_deterministic(tiny_sweep):
    first = run_overload_gate()
    second = run_overload_gate()
    assert first == second


def test_overload_gate_doc_passes_against_itself(tiny_sweep):
    doc = run_overload_gate()
    assert GATE["overload"].compare(doc, doc) == []
    # The tiny sweep already exhibits the full-size phenomena the gate
    # is built on: protected goodput holds, unprotected collapses, the
    # hog cannot starve polite tenants, and the pass-through is exact.
    assert doc["gated_fraction_at_top"] >= doc["min_gated_fraction"]
    assert doc["none_fraction_at_top"] < doc["max_unprotected_fraction"]
    assert doc["noadmission_identical"]


def test_overload_gate_flags_pinned_count_drift(tiny_sweep):
    baseline = run_overload_gate()
    current = run_overload_gate()
    current["sweep"]["gateway"]["4"]["shed"] += 1
    violations = GATE["overload"].compare(current, baseline)
    assert len(violations) == 1
    assert "gateway@4x.shed" in violations[0]


def test_overload_gate_flags_fingerprint_drift(tiny_sweep):
    baseline = run_overload_gate()
    current = run_overload_gate()
    current["sweep"]["none"]["0.5"]["per_tenant_fingerprint"] = "beef"
    violations = GATE["overload"].compare(current, baseline)
    assert len(violations) == 1
    assert "none@0.5x.per_tenant_fingerprint" in violations[0]


# ---------------------------------------------------- the gate claims
def _point(offered=100, ok=80, miss=5, throttled=10, shed=5,
           fingerprint="aaaa"):
    return {"offered": offered, "ok": ok, "deadline_miss": miss,
            "throttled": throttled, "shed": shed,
            "per_tenant_fingerprint": fingerprint}


def _passing_doc():
    return {
        "sweep": {
            "none": {"0.5": _point(), "4": _point(ok=20)},
            "gateway": {"0.5": _point(), "4": _point(fingerprint="cc")},
        },
        "gated_fraction_at_top": 0.95,
        "none_fraction_at_top": 0.25,
        "jain_at_top": 0.99,
        "min_gated_fraction": MIN_GATED_FRACTION,
        "max_unprotected_fraction": MAX_UNPROTECTED_FRACTION,
        "min_jain": MIN_JAIN,
        "hog_none": {"offered": 50, "ok": 30, "hog_ok": 28,
                     "polite_offered": 12, "polite_ok": 2,
                     "polite_goodput": 0.17},
        "hog_gateway": {"offered": 50, "ok": 25, "hog_ok": 13,
                        "polite_offered": 12, "polite_ok": 12,
                        "polite_goodput": 1.0},
        "scale": {"tenants": 100, "offered": 60, "ok": 50,
                  "deadline_miss": 2, "throttled": 5, "shed": 3,
                  "tenants_served": 40},
        "direct": {"outcome_digest": "feedface00000000", "events": 900},
        "noadmission": {"outcome_digest": "feedface00000000",
                        "events": 900},
        "noadmission_identical": True,
    }


def test_compare_overload_passes_clean_doc():
    assert GATE["overload"].compare(_passing_doc(), _passing_doc()) == []


def test_compare_overload_flags_gated_collapse():
    current = _passing_doc()
    current["gated_fraction_at_top"] = MIN_GATED_FRACTION - 0.05
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "gateway holds only" in violations[0]


def test_compare_overload_flags_unprotected_not_collapsing():
    # If the "unprotected" arm stops collapsing, the sweep is no longer
    # exercising overload at all — that is drift, not an improvement.
    current = _passing_doc()
    current["none_fraction_at_top"] = MAX_UNPROTECTED_FRACTION + 0.2
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "no longer collapses" in violations[0]


def test_compare_overload_flags_unfair_sharing():
    current = _passing_doc()
    current["jain_at_top"] = MIN_JAIN - 0.1
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "Jain" in violations[0]


def test_compare_overload_pins_hog_counts():
    current = _passing_doc()
    current["hog_gateway"]["polite_ok"] = 11
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "hog_gateway.polite_ok" in violations[0]


def test_compare_overload_requires_hog_protection():
    current = _passing_doc()
    current["hog_gateway"]["polite_goodput"] = 0.1  # below hog_none
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "polite tenants" in violations[0]


def test_compare_overload_pins_scale_smoke():
    current = _passing_doc()
    current["scale"]["tenants_served"] = 39
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "scale.tenants_served" in violations[0]


def test_compare_overload_pins_noadmission_identity():
    current = _passing_doc()
    current["noadmission"]["outcome_digest"] = "0000000000000000"
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "noadmission.outcome_digest" in violations[0]

    current = _passing_doc()
    current["direct"]["events"] = 899
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "direct.events: 899 vs pinned 900" in violations[0]

    current = _passing_doc()
    current["noadmission_identical"] = False
    violations = GATE["overload"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "no longer" in violations[0]


def test_compare_overload_flags_missing_sweep_point():
    current = _passing_doc()
    del current["sweep"]["gateway"]["4"]
    violations = GATE["overload"].compare(current, _passing_doc())
    # Every pinned field of the vanished point is reported missing.
    assert len(violations) == len(_point())
    assert all("gateway@4x" in v for v in violations)


# --------------------------------------------------------- jain_index
def test_jain_index_properties():
    assert jain_index([]) == 1.0
    assert jain_index([0, 0, 0]) == 1.0
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    # Scale-invariant.
    assert jain_index([1, 2, 3]) == pytest.approx(jain_index([10, 20, 30]))
