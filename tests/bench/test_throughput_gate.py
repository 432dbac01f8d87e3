"""Throughput gate: pinned determinism and the comparison rules.

The gate's value rests on two claims that must hold at any workload
size: the hot loop produces the fingerprint the pre-refactor stack
produced for the same plan, and ``invoke_many`` is byte-identical to
the serial ``invoke`` loop. These tests pin both on a shrunken
workload (the committed baseline pins them at full size), plus the
gate's violation rules on fabricated docs.
"""

import pytest

from repro.bench import throughput
from repro.bench.regress import MIN_HOT_LOOP_EVENTS_PER_KERNEL

from .conftest import GATE


def _shrink_hot_loop(monkeypatch):
    """Scale the pinned workload down to test size (same shape)."""
    small = {
        "SESSIONS": 4, "SESSION_ITERS": 12, "SESSION_FNS": 3,
        "SESSION_NODES": 3, "FANOUT_PARENTS": 2, "FANOUT_ROUNDS": 2,
        "FANOUT_WIDTH": 10, "TAIL_SESSIONS": 6, "TAIL_ITERS": 4,
        "TAIL_ERROR_EVERY": 3, "SLEEPER_PROCS": 20, "SLEEPER_NAPS": 2,
        "INTERRUPT_PAIRS": 4,
    }
    for name, value in small.items():
        monkeypatch.setattr(throughput, name, value)


def test_hot_loop_matches_pre_refactor_capture(monkeypatch):
    _shrink_hot_loop(monkeypatch)
    result = throughput.run_hot_loop_bench(throughput._HotLoopPlan())
    # Captured from the frozen pre-refactor stack (and checked equal on
    # the live one) before the frozen stack was deleted: identical
    # virtual-time outcomes, event counts, and span tallies — only
    # speed may differ.
    assert result["fingerprint"] == "281b5083a38daf72"
    assert result["events"] == 328
    assert result["spans"] == 104
    assert result["final_now"] == 10000.0


def test_hot_loop_fingerprint_is_stable_across_runs(monkeypatch):
    _shrink_hot_loop(monkeypatch)
    plan = throughput._HotLoopPlan()
    first = throughput.run_hot_loop_bench(plan)
    second = throughput.run_hot_loop_bench(plan)
    assert first["fingerprint"] == second["fingerprint"]


def test_invoke_many_matches_serial_loop(monkeypatch):
    monkeypatch.setattr(throughput, "INVOKE_WARMUP", 2)
    monkeypatch.setattr(throughput, "INVOKE_COUNT", 12)
    batched = throughput.run_invoke_bench(serial=False)
    serial = throughput.run_invoke_bench(serial=True)
    assert batched["batched"] is True
    assert serial["batched"] is False
    assert batched["invokes"] == serial["invokes"] == 12
    # Byte-identical placement, latency, cold-start, and counter
    # outcomes: batching is a dispatch optimization, not a semantic one.
    assert batched["fingerprint"] == serial["fingerprint"]
    assert batched["events"] == serial["events"]


def test_run_benchmarks_rejects_bad_repeat():
    with pytest.raises(ValueError):
        throughput.run_benchmarks(repeat=0)


# ------------------------------------------------------ the gate claims
def _passing_doc():
    return {
        "hot_loop_fingerprint": "aaaa", "invoke_fingerprint": "bbbb",
        "min_hot_loop_events_per_kernel": 1500.0,
        "hot_loop_events_per_kernel": 2200.0,
        "batched_matches_serial": True,
    }


def test_compare_throughput_passes_clean_doc():
    assert GATE["throughput"].compare(_passing_doc(), _passing_doc()) == []


def test_compare_throughput_flags_slow_current():
    current = _passing_doc()
    current["hot_loop_events_per_kernel"] = 1499.0
    violations = GATE["throughput"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "1,499 events" in violations[0]


def test_compare_throughput_pins_fingerprints_exactly():
    for fld in ("hot_loop_fingerprint", "invoke_fingerprint"):
        current = _passing_doc()
        current[fld] = "ffff"
        violations = GATE["throughput"].compare(current, _passing_doc())
        assert len(violations) == 1
        assert fld in violations[0]


def test_compare_throughput_requires_batched_identity():
    current = _passing_doc()
    current["batched_matches_serial"] = False
    violations = GATE["throughput"].compare(current, _passing_doc())
    assert len(violations) == 1
    assert "invoke_many" in violations[0]


def test_compare_throughput_uses_baseline_bar():
    # The committed baseline's bar wins over the module default.
    current = _passing_doc()
    current["hot_loop_events_per_kernel"] = \
        MIN_HOT_LOOP_EVENTS_PER_KERNEL + 100.0
    baseline = _passing_doc()
    baseline["min_hot_loop_events_per_kernel"] = \
        MIN_HOT_LOOP_EVENTS_PER_KERNEL + 200.0
    violations = GATE["throughput"].compare(current, baseline)
    assert len(violations) == 1
    assert "required >=" in violations[0]
