"""The pairs runner's verdicts, on synthetic runs."""

import json
import os
import textwrap

import pytest

from repro.bench import pairs
from repro.bench.pairs import (BETTER, IDENTICAL, UNRESOLVED, WITHIN, WORSE,
                               compare_workload, deterministic,
                               planes_over_bare, run_once, verdict)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_nine_of_ten_wins_beyond_the_parent_iqr_is_better():
    change = [v - 10.0 for v in PARENT]
    change[3] = PARENT[3] + 1.0  # one lost pair
    out = verdict(PARENT, change, "lower", 0.25)
    assert out["change_better_pairs"] == 9
    assert out["verdict"] == BETTER
    assert out["relative_change"] < 0


def test_eight_of_ten_wins_is_only_within_bound():
    change = [v - 10.0 for v in PARENT]
    change[3] = PARENT[3] + 1.0
    change[7] = PARENT[7] + 1.0
    assert verdict(PARENT, change, "lower", 0.25)["verdict"] == WITHIN


def test_a_gap_inside_the_parent_iqr_is_not_better():
    parent = [90.0, 110.0] * 5  # IQR 20
    change = [v - 5.0 for v in parent]  # wins every pair by 5
    out = verdict(parent, change, "lower", 0.25)
    assert out["change_better_pairs"] == 10
    assert out["verdict"] == WITHIN


def test_parent_iqr_above_the_bound_is_unresolved():
    parent = [50.0, 150.0] * 5  # IQR 100 on a median of 100
    change = [v - 30.0 for v in parent]
    assert verdict(parent, change, "lower", 0.25)["verdict"] == UNRESOLVED


def test_identical_pairs():
    out = verdict(PARENT, list(PARENT), "lower", 0.25)
    assert out["verdict"] == IDENTICAL
    assert out["tied_pairs"] == 10


def test_worse_than_the_bound_in_either_direction():
    slower = [v * 1.3 for v in PARENT]
    assert verdict(PARENT, slower, "lower", 0.25)["verdict"] == WORSE
    fewer = [v * 0.9 for v in PARENT]
    assert verdict(PARENT, fewer, "higher", 0.05)["verdict"] == WORSE
    more = [v * 1.1 for v in PARENT]
    assert verdict(PARENT, more, "higher", 0.05)["verdict"] == BETTER


def test_unequal_sides_are_refused():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:-1], "lower", 0.25)


def _run(host, events=4.0, digest="d", retained=700.0):
    return {"ok": True, "digest": digest,
            "metrics": {"host_us_per_req": host, "events_per_req": events,
                        "retained_bytes_per_req": retained,
                        "sim_p50_ms": 1.0, "sim_p99_ms": 2.0,
                        "goodput_rps": 10.0, "ok_frac": 1.0}}


def test_workload_comparison_and_per_seed_checks():
    runs = [(_run(p), _run(p - 10.0, retained=699.5)) for p in PARENT]
    runs[3] = (_run(100.0), _run(101.0, digest="e", retained=699.5))
    spec = [{"name": "host_us_per_req", "unit": "us", "better": "lower",
             "bound": 0.25},
            {"name": "events_per_req", "unit": "events/req",
             "better": "lower", "bound": 0.08}]
    doc = compare_workload(runs, spec)
    assert doc["host_us_per_req"]["verdict"] == BETTER
    assert doc["host_us_per_req"]["bound"] == 0.25
    assert doc["events_per_req"]["verdict"] == IDENTICAL
    checks = deterministic(runs, range(1, 11))
    assert checks["events_per_req"] and checks["ok_frac"]
    assert not checks["digest"]
    assert checks["retained_bytes_per_seed_diff"] == [-0.5] * 10


def test_planes_over_bare():
    over, minus = planes_over_bare({"parent": 160.0, "change": 140.0},
                                   {"parent": 80.0, "change": 70.0})
    assert over == {"parent": 2.0, "change": 2.0}
    assert minus == {"parent": 80.0, "change": 70.0}


def test_run_once_reads_the_result_line_and_digest(tmp_path):
    (tmp_path / "perfbench").mkdir()
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"host_us_per_req": {"value": 12.5, "unit": "us"}}}
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
        import sys
        print("workload", sys.argv[2])
        print("digest abc123")
        print({json.dumps(json.dumps(result))})
    """))
    run = run_once(str(tmp_path), "invoke-warm", 1, 0.1)
    assert run == {"ok": True, "digest": "abc123",
                   "metrics": {"host_us_per_req": 12.5}}
    os.remove(tmp_path / "perfbench" / "run.py")
    assert run_once(str(tmp_path), "invoke-warm", 1, 0.1)["ok"] is False


def test_a_tree_without_the_budget_test_has_no_call_count(tmp_path):
    assert pairs.calls_per_request(str(tmp_path), "invoke-warm") is None


def test_a_wide_parent_spread_resolves_when_every_run_is_better():
    parent = [50.0, 150.0] * 5
    change = [40.0] * 10  # gap 60 inside the parent IQR of 100
    assert verdict(parent, change, "lower", 0.25)["verdict"] == WITHIN
    change[0] = 60.0  # one change run no longer beats every parent run
    assert verdict(parent, change, "lower", 0.25)["verdict"] == UNRESOLVED
