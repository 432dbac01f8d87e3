"""Behavioral regression gates, run from one registry.

Each gate replays a pinned, seeded workload, folds the run into a JSON
doc, and compares it against a checked-in baseline under
``benchmarks/baselines/``. Pinned fields must match exactly, and each
gate's win conditions must hold on every run. The simulation is
deterministic, so drift beyond tolerance is a real behavior change (a
new network hop on the hot path, an extra quorum round, a changed
control decision), not noise. :data:`GATES` lists the gates in run
order; CI runs one matrix arm per gate.

===============  ======================  ==============================
gate             baseline                pins / enforces
===============  ======================  ==============================
``e4``           e4_critical_path.json   E4 critical-path layer totals
                                         (seed 41, traced) within
                                         per-layer tolerances
``autoscale``    autoscale_burst.json    burst replay, fixed vs
                                         queue-depth policy: exact
                                         counts, >= 30% fewer cold
                                         starts, pools back at zero
``chaos``        chaos_goodput.json      E21 naive vs hardened: exact
                                         counts and outcome digests,
                                         hardened wins, no deadline
                                         overrun, hedging cuts the
                                         gray p99, replay identical
``attribution``  attribution_drift.json  E22 drift: per-arm decision
                                         and latency digests, observed
                                         arm closes the oracle gap,
                                         static arm stays on the
                                         drifted NPU
``throughput``   throughput.json         hot loop >= 5x the frozen
                                         pre-refactor stack (machine-
                                         relative), fingerprints equal
                                         across stacks, batched
                                         ``invoke_many`` == serial
``overload``     overload_goodput.json   E24 sweep: exact per-point
                                         counts and digests, gateway
                                         keeps >= 80% of peak at 4x
                                         while unprotected collapses,
                                         Jain >= 0.9, hog isolation,
                                         pass-through identical
``recovery``     recovery_mttr.json      E25 chaos storm: exact
                                         tallies, >= 95% of orphans
                                         recovered, goodput held with
                                         the health plane and lost
                                         without it, detection <= 1.5 s
``tail``         tail_drift.json         E26: p99 steering flips where
                                         mean steering stays stuck,
                                         adaptive hedging beats the
                                         fixed delay within its launch
                                         bound, sketch error bounded
===============  ======================  ==============================

Usage::

    python -m repro.bench.regress                   # every gate
    python -m repro.bench.regress --only chaos --only tail
    python -m repro.bench.regress --out-dir artifacts   # <name>.json each
    python -m repro.bench.regress --update          # rewrite baselines

Exit status: 0 pass, 1 violation, 2 usage error or missing baseline
(checked for every selected gate before any gate runs). With
``--update`` the run rewrites the selected baselines and still enforces
the win conditions. Updating a baseline is a deliberate act: commit the
JSON and explain the delta in the commit message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..cluster.resources import MB
from ..core.system import PCSICloud
from ..faas.harness import ControllerHarness, HarnessResult, burst_phases
from ..workloads.ml_serving import ModelServingApp, ModelServingConfig
from .critical_path import invocation_critical_paths, merged_by_name

#: Where the checked-in baselines live (``--baseline-dir`` default).
BASELINE_DIR = Path(__file__).resolve().parents[3] / "benchmarks" \
    / "baselines"


def digest(seq: Iterable[Any]) -> str:
    """A short stable digest of any JSON-serializable sequence.

    Pinning the digest (rather than the raw per-request list) keeps the
    baseline JSON small while still failing the gate if any single
    request's outcome, decision, or timing shifts.
    """
    payload = json.dumps(list(seq), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def pinned_drift(label: str, current: Dict[str, Any],
                 baseline: Dict[str, Any], fields: Sequence[str],
                 arms: Optional[Sequence[str]] = None) -> List[str]:
    """One ``"<label>[<arm>.]<field>: <cur> vs pinned <base>"`` message
    per pinned field that differs from the baseline.

    With ``arms``, each field is compared inside each arm's sub-dict;
    without, at the top level of the two docs. A field missing on one
    side counts as drift.
    """
    pairs = [("", current, baseline)] if arms is None else [
        (f"{arm}.", current.get(arm, {}), baseline.get(arm, {}))
        for arm in arms]
    return [f"{label}{prefix}{fld}: {cur.get(fld)} vs pinned "
            f"{base.get(fld)}"
            for prefix, cur, base in pairs for fld in fields
            if cur.get(fld) != base.get(fld)]


# ---------------------------------------------------------------------------
# E4 critical-path gate
# ---------------------------------------------------------------------------

#: The pinned E4 workload (mirrors e04_fig2_pipeline, co-locate arm).
SEED = 41
WARMUP = 2
REQUESTS = 10
CFG = ModelServingConfig(upload_nbytes=4 * MB, weights_nbytes=64 * MB)

#: Span name -> layer. Unknown names fall into "other" so a new span
#: can never silently vanish from the gate.
LAYERS: Dict[str, str] = {
    "coldstart": "coldstart",
    "sandbox.provision": "coldstart",
    "net.transfer": "network",
    "net.local_copy": "network",
    "quorum.read": "quorum",
    "quorum.write": "quorum",
    "eventual.read": "quorum",
    "eventual.write": "quorum",
    "data.read": "storage",
    "data.write": "storage",
    "data.read_range": "storage",
    "data.readv": "storage",
    "nfs.read": "storage",
    "nfs.write": "storage",
    "kv.get": "storage",
    "kv.put": "storage",
    "compute": "compute",
    "execute": "compute",
    "invoke": "control",
    "dispatch": "control",
    "hedge": "control",
    "placement": "control",
    "attempt": "control",
    "warmpool.acquire": "control",
    "warmpool.prewarm": "coldstart",
    "autoscale.tick": "control",
    "autoscale.resize": "control",
    "queue.wait": "control",
    "retry.backoff": "control",
    "graph": "control",
    "pipeline": "control",
    "fifo.put": "control",
    "fifo.get": "control",
    "socket.send": "control",
    "socket.recv": "control",
}

#: Relative tolerance per layer (fraction of the baseline total);
#: layers not listed use DEFAULT_TOLERANCE.
DEFAULT_TOLERANCE = 0.15

#: Absolute slack: deltas under this many seconds never fail, so
#: near-zero layers don't trip on representation noise.
ABS_FLOOR = 5e-5


def layer_of(span_name: str) -> str:
    """The gate layer a span name belongs to."""
    return LAYERS.get(span_name, "other")


def fold_layers(by_name: Dict[str, float]) -> Dict[str, float]:
    """Collapse merged critical-path totals into layer totals."""
    out: Dict[str, float] = {}
    for name, secs in by_name.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + secs
    return dict(sorted(out.items()))


def run_pinned_e4() -> Tuple[PCSICloud, Dict[str, float], Dict[str, float]]:
    """Run the pinned workload; returns (cloud, by_name, by_layer)."""
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=2,
                      seed=SEED, placement="colocate", keep_alive=600.0,
                      trace=True)
    app = ModelServingApp(cloud, CFG)
    client = cloud.client_node()

    def flow() -> Generator:
        for _ in range(WARMUP + REQUESTS):
            yield from app.serve_one(client)

    cloud.run_process(flow())
    reports = invocation_critical_paths(cloud.tracer)
    by_name = merged_by_name(reports)
    return cloud, by_name, fold_layers(by_name)


def baseline_doc(by_layer: Dict[str, float],
                 by_name: Dict[str, float]) -> Dict[str, Any]:
    """The E4 gate doc (and checked-in baseline)."""
    return {
        "experiment": "E4 pinned (PCSI co-locate)",
        "seed": SEED,
        "warmup": WARMUP,
        "requests": REQUESTS,
        "by_layer": by_layer,
        "by_name": by_name,
        "default_tolerance": DEFAULT_TOLERANCE,
        "abs_floor_s": ABS_FLOOR,
        "tolerances": {
            # Cold starts happen once, then warm reuse: small absolute
            # numbers, so give the layer more relative headroom.
            "coldstart": 0.25,
        },
    }


def run_e4_gate(out_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Run the pinned E4 workload; with ``out_dir``, also write the
    run's labeled-metrics JSON there as ``e4_metrics.json``."""
    cloud, by_name, by_layer = run_pinned_e4()
    if out_dir is not None:
        path = out_dir / "e4_metrics.json"
        cloud.metrics.write_json(str(path), now=cloud.sim.now)
        print(f"e4: labeled metrics written to {path}")
    return baseline_doc(by_layer, by_name)


def compare(current: Dict[str, float], baseline: Dict[str, Any]
            ) -> List[str]:
    """Violations of ``current`` layer totals against a baseline doc."""
    base_layers: Dict[str, float] = baseline["by_layer"]
    tolerances: Dict[str, float] = baseline.get("tolerances", {})
    default_tol = baseline.get("default_tolerance", DEFAULT_TOLERANCE)
    abs_floor = baseline.get("abs_floor_s", ABS_FLOOR)
    violations: List[str] = []
    for layer in sorted(set(base_layers) | set(current)):
        base = base_layers.get(layer, 0.0)
        cur = current.get(layer, 0.0)
        tol = tolerances.get(layer, default_tol)
        allowed = max(tol * base, abs_floor)
        delta = cur - base
        if abs(delta) > allowed:
            violations.append(
                f"layer {layer!r}: {cur * 1e3:.3f} ms vs baseline "
                f"{base * 1e3:.3f} ms ({delta:+.6f} s, allowed "
                f"+/-{allowed:.6f} s)")
    return violations


def _e4_summary(doc: Dict[str, Any]) -> str:
    return "\n".join(
        f"  {layer:<10} {secs * 1e3:9.3f} ms"
        for layer, secs in sorted(doc["by_layer"].items(),
                                  key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# Autoscale gate
# ---------------------------------------------------------------------------

#: The pinned burst schedule the controller must win on.
AUTOSCALE_SEED = 47
AUTOSCALE_BURSTS = 3
AUTOSCALE_BURST_DURATION = 10.0
AUTOSCALE_BURST_RATE = 10.0
AUTOSCALE_GAP = 60.0
#: The controller must cut cold starts by at least this fraction.
MIN_REDUCTION = 0.30


def _arm_doc(result: HarnessResult) -> Dict[str, Any]:
    """The pinned, exactly-reproducible facts of one harness arm."""
    return {
        "policy": result.policy,
        "offered": result.offered,
        "completed": result.completed,
        "failed": result.failed,
        "cold_starts": result.cold_starts,
        "warm_hits": result.warm_hits,
        "prewarmed": result.prewarmed,
        "queue_waits": result.queue_waits,
        "final_size": result.final_size,
        "p99_s": result.p99,
        "held_seconds": result.held_seconds,
    }


def run_autoscale_gate() -> Dict[str, Any]:
    """Replay both arms of the pinned burst schedule."""
    phases = burst_phases(bursts=AUTOSCALE_BURSTS,
                          burst_duration=AUTOSCALE_BURST_DURATION,
                          burst_rate=AUTOSCALE_BURST_RATE,
                          gap=AUTOSCALE_GAP)
    fixed = ControllerHarness(policy="fixed",
                              seed=AUTOSCALE_SEED).run(phases)
    controlled = ControllerHarness(policy="queue-depth",
                                   seed=AUTOSCALE_SEED).run(phases)
    reduction = (1.0 - controlled.cold_starts / fixed.cold_starts
                 if fixed.cold_starts else 0.0)
    return {
        "experiment": "autoscale pinned burst (fixed vs queue-depth)",
        "seed": AUTOSCALE_SEED,
        "schedule": {
            "bursts": AUTOSCALE_BURSTS,
            "burst_duration_s": AUTOSCALE_BURST_DURATION,
            "burst_rate_rps": AUTOSCALE_BURST_RATE,
            "gap_s": AUTOSCALE_GAP,
        },
        "fixed": _arm_doc(fixed),
        "controlled": _arm_doc(controlled),
        "cold_start_reduction": reduction,
        "min_reduction": MIN_REDUCTION,
    }


#: Arm fields compared exactly — the replay is deterministic, so any
#: drift is a behavior change, not noise. (Float fields like p99 and
#: held_seconds are informational: they ride along in the baseline but
#: only the integer outcome counts are pinned.)
PINNED_ARM_FIELDS = ("offered", "completed", "failed", "cold_starts",
                     "warm_hits", "prewarmed", "queue_waits",
                     "final_size")

AUTOSCALE_ARMS = ("fixed", "controlled")


def compare_autoscale(current: Dict[str, Any],
                      baseline: Dict[str, Any]) -> List[str]:
    """Violations of the autoscale gate against its baseline doc."""
    violations = pinned_drift("", current, baseline, PINNED_ARM_FIELDS,
                              AUTOSCALE_ARMS)
    min_reduction = baseline.get("min_reduction", MIN_REDUCTION)
    reduction = current.get("cold_start_reduction", 0.0)
    if reduction < min_reduction:
        violations.append(
            f"cold-start reduction {reduction:.1%} is below the "
            f"required {min_reduction:.0%}")
    for arm in AUTOSCALE_ARMS:
        if current.get(arm, {}).get("final_size") != 0:
            violations.append(
                f"{arm}: pool did not scale to zero "
                f"(final_size={current.get(arm, {}).get('final_size')})")
    return violations


def _autoscale_summary(doc: Dict[str, Any]) -> str:
    return (f"  autoscale  cold {doc['fixed']['cold_starts']} "
            f"(fixed) -> {doc['controlled']['cold_starts']} "
            f"(queue-depth), -{doc['cold_start_reduction']:.1%}")


# ---------------------------------------------------------------------------
# Chaos gate
# ---------------------------------------------------------------------------

#: Chaos-arm fields compared exactly — the fault schedule, retries,
#: hedges, and every request outcome replay deterministically, so any
#: drift in these counts is a semantic change to failure handling.
PINNED_CHAOS_FIELDS = ("offered", "ok", "deadline_exceeded", "errors",
                       "retries", "hedges", "hedge_wins", "failovers",
                       "faults_injected", "outcome_fingerprint")

CHAOS_ARMS = ("naive", "hardened")


def _chaos_arm_doc(arm: Dict[str, Any]) -> Dict[str, Any]:
    """One chaos arm with the bulky outcome list folded to a digest."""
    doc = {k: v for k, v in arm.items() if k != "outcomes"}
    doc["outcome_fingerprint"] = digest(arm["outcomes"])
    return doc


def run_chaos_gate() -> Dict[str, Any]:
    """Replay the pinned short chaos comparison (naive vs hardened)."""
    from .experiments.e21_chaos import DEADLINE_EPS, SHORT, run_chaos_arms
    res = run_chaos_arms(SHORT)
    return {
        "experiment": "E21 pinned short chaos (naive vs hardened)",
        "config": res["config"],
        "deadline_eps_s": DEADLINE_EPS,
        "naive": _chaos_arm_doc(res["naive"]),
        "hardened": _chaos_arm_doc(res["hardened"]),
        "unhedged": {k: res["unhedged"][k]
                     for k in ("requests", "p50_s", "p99_s")},
        "hedged": {k: res["hedged"][k]
                   for k in ("requests", "p50_s", "p99_s", "hedges",
                             "hedge_wins", "duplicate_fraction")},
        "replay_identical": res["replay_identical"],
    }


def compare_chaos(current: Dict[str, Any],
                  baseline: Dict[str, Any]) -> List[str]:
    """Violations of the chaos gate against its baseline doc."""
    violations = pinned_drift("chaos ", current, baseline,
                              PINNED_CHAOS_FIELDS, CHAOS_ARMS)
    naive, hardened = current.get("naive", {}), current.get("hardened", {})
    if hardened.get("goodput", 0.0) <= naive.get("goodput", 1.0):
        violations.append(
            f"chaos: hardened goodput {hardened.get('goodput', 0.0):.1%} "
            f"does not beat naive {naive.get('goodput', 1.0):.1%}")
    deadline = current.get("config", {}).get("deadline_s", 0.0)
    eps = current.get("deadline_eps_s", 0.0)
    worst = hardened.get("max_time_to_outcome_s", 0.0)
    if worst > deadline + eps:
        violations.append(
            f"chaos: a hardened client was blocked {worst:.6f} s, past "
            f"its {deadline} s deadline")
    if current.get("hedged", {}).get("p99_s", 0.0) \
            >= current.get("unhedged", {}).get("p99_s", 0.0):
        violations.append(
            f"chaos: hedging no longer cuts the gray p99 "
            f"({current.get('hedged', {}).get('p99_s', 0.0):.6f} s vs "
            f"{current.get('unhedged', {}).get('p99_s', 0.0):.6f} s "
            "unhedged)")
    if not current.get("replay_identical", False):
        violations.append("chaos: run is no longer outcome-identical "
                          "when replayed from its seed")
    return violations


def _chaos_summary(doc: Dict[str, Any]) -> str:
    return (f"  chaos      goodput {doc['naive']['goodput']:.1%} (naive) "
            f"-> {doc['hardened']['goodput']:.1%} (hardened), "
            f"{doc['naive']['faults_injected']} faults, gray p99 "
            f"{doc['unhedged']['p99_s'] * 1e3:.1f} ms -> "
            f"{doc['hedged']['p99_s'] * 1e3:.1f} ms hedged")


# ---------------------------------------------------------------------------
# Attribution gate
# ---------------------------------------------------------------------------

def _attribution_arm_doc(arm: Dict[str, Any],
                         phase1_requests: int) -> Dict[str, Any]:
    """One drift arm with its bulky sequences folded to digests.

    The decision digest pins *which impl served every request* and the
    latency digest pins every request's exact duration — so a changed
    placement, estimate, or span cost fails the gate even when the
    means barely move.
    """
    decisions = arm["decisions"]
    return {
        "mode": arm["mode"],
        "phase1_mean_s": arm["phase1_mean_s"],
        "phase2_mean_s": arm["phase2_mean_s"],
        "decision_fingerprint": digest(decisions),
        "latency_fingerprint": digest(
            arm["phase1_latencies"] + arm["phase2_latencies"]),
        "phase2_all_npu": all(d == "npu"
                              for d in decisions[phase1_requests:]),
        "phase1_all_npu": all(d == "npu"
                              for d in decisions[:phase1_requests]),
    }


#: Attribution-arm fields compared exactly against the baseline.
PINNED_ATTRIBUTION_FIELDS = ("mode", "decision_fingerprint",
                             "latency_fingerprint")

ATTRIBUTION_ARMS = ("static", "ema", "forced_gpu", "forced_npu")


def run_attribution_gate() -> Dict[str, Any]:
    """Replay the pinned E22 drift comparison (all four arms)."""
    from .experiments.e22_attribution import (
        MIN_GAP_CLOSED,
        PHASE1_REQUESTS,
        run_attribution_arms,
    )
    res = run_attribution_arms()
    doc: Dict[str, Any] = {
        "experiment": "E22 pinned drift (static vs observation-fed)",
        "config": res["config"],
        "oracle_phase2_mean_s": res["oracle_phase2_mean_s"],
        "gap_closed": res["gap_closed"],
        "min_gap_closed": MIN_GAP_CLOSED,
        "ema_flip_index": res["ema_flip_index"],
    }
    for arm in ATTRIBUTION_ARMS:
        doc[arm] = _attribution_arm_doc(res[arm], PHASE1_REQUESTS)
    return doc


def compare_attribution(current: Dict[str, Any],
                        baseline: Dict[str, Any]) -> List[str]:
    """Violations of the attribution gate against its baseline doc."""
    violations = pinned_drift("attribution ", current, baseline,
                              PINNED_ATTRIBUTION_FIELDS, ATTRIBUTION_ARMS)
    min_gap = baseline.get("min_gap_closed", 0.0)
    gap_closed = current.get("gap_closed", 0.0)
    if gap_closed < min_gap:
        violations.append(
            f"attribution: observed arm closes {gap_closed:.1%} of the "
            f"static-to-oracle gap, below the required {min_gap:.0%}")
    if current.get("ema_flip_index") != baseline.get("ema_flip_index"):
        violations.append(
            f"attribution: ema arm migrated after "
            f"{current.get('ema_flip_index')} post-drift requests vs "
            f"pinned {baseline.get('ema_flip_index')}")
    if not current.get("static", {}).get("phase2_all_npu", False):
        violations.append(
            "attribution: the static arm no longer reproduces the "
            "open-loop failure (it left the drifted NPU)")
    for arm in ("static", "ema"):
        if not current.get(arm, {}).get("phase1_all_npu", False):
            violations.append(
                f"attribution: {arm} arm did not serve the healthy "
                f"phase entirely from the NPU")
    return violations


def _attribution_summary(doc: Dict[str, Any]) -> str:
    return (f"  attribution  post-drift "
            f"{doc['static']['phase2_mean_s'] * 1e3:.1f} ms (static) -> "
            f"{doc['ema']['phase2_mean_s'] * 1e3:.1f} ms (observed), "
            f"oracle {doc['oracle_phase2_mean_s'] * 1e3:.1f} ms, "
            f"gap closed {doc['gap_closed']:.1%}")


# ---------------------------------------------------------------------------
# Throughput gate
# ---------------------------------------------------------------------------

#: Floor on ``hot_loop_events_per_kernel``: hot-loop events processed
#: in the time one run of the calibration kernel takes (machine-
#: relative, so the bar holds on any runner). It is 5x, rounded up,
#: what the deleted pre-refactor stack read on the same protocol: a
#: median of 320.6 over 7 trials (Python 3.11, 2-core VM).
MIN_HOT_LOOP_EVENTS_PER_KERNEL = 1603.0

#: Timing repeats; the fastest wins. Shared CI runners are noisy, so
#: take best-of-3.
THROUGHPUT_REPEAT = 3


def run_throughput_gate(repeat: int = THROUGHPUT_REPEAT) -> Dict[str, Any]:
    """Run the pinned hot-loop and invoke benchmarks.

    Times the hot loop against the calibration kernel
    (``perfbench/reference.py``) in this process, and additionally runs
    the invoke bench once in forced-serial mode so the batched
    ``invoke_many`` path is pinned byte-identical to a serial
    ``invoke`` loop.
    """
    from .throughput import run_benchmarks, run_invoke_bench
    report = run_benchmarks(repeat=repeat)
    serial = run_invoke_bench(serial=True)
    return {
        "experiment": "hot-loop throughput (events per calibration "
                      "kernel run)",
        "min_hot_loop_events_per_kernel": MIN_HOT_LOOP_EVENTS_PER_KERNEL,
        "hot_loop_events_per_kernel": report["hot_loop_events_per_kernel"],
        "hot_loop_fingerprint": report["engine"]["fingerprint"],
        "invoke_fingerprint": report["invoke"]["fingerprint"],
        "batched_matches_serial": (report["invoke"]["fingerprint"]
                                   == serial["fingerprint"]),
        # Informational (machine-dependent, never compared):
        "current_events_per_sec": report["engine"]["events_per_sec"],
        "kernel_s": report["kernel_s"],
        "invokes_per_sec": report["invoke"]["invokes_per_sec"],
        "events": report["engine"]["events"],
        "repeat": report["repeat"],
    }


def compare_throughput(current: Dict[str, Any],
                       baseline: Dict[str, Any]) -> List[str]:
    """Violations of the throughput gate against its baseline doc.

    The two fingerprints are pinned exactly (determinism: the refactor
    may only change speed, never event order or span/metric tallies);
    ``hot_loop_events_per_kernel`` has a machine-relative floor, so
    absolute events/sec never enters the comparison.
    """
    violations = pinned_drift("throughput ", current, baseline,
                              ("hot_loop_fingerprint",
                               "invoke_fingerprint"))
    floor = baseline.get("min_hot_loop_events_per_kernel",
                         MIN_HOT_LOOP_EVENTS_PER_KERNEL)
    per_kernel = current.get("hot_loop_events_per_kernel", 0.0)
    if per_kernel < floor:
        violations.append(
            f"throughput: hot loop ran only {per_kernel:,.0f} events "
            f"per calibration kernel run (required >= {floor:,.0f})")
    if not current.get("batched_matches_serial", False):
        violations.append(
            "throughput: invoke_many outcomes diverged from the "
            "serial invoke loop")
    return violations


def _throughput_summary(doc: Dict[str, Any]) -> str:
    return (f"  throughput {doc['current_events_per_sec']:,.0f} ev/s, "
            f"{doc['hot_loop_events_per_kernel']:,.0f} events per "
            f"{doc['kernel_s'] * 1e3:.1f} ms kernel run (floor "
            f"{doc['min_hot_loop_events_per_kernel']:,.0f}), "
            f"{doc['invokes_per_sec']:,.0f} invokes/s")


# ---------------------------------------------------------------------------
# Overload gate
# ---------------------------------------------------------------------------

#: Sweep-point fields compared exactly — arrivals, admission
#: decisions, and deadline outcomes all replay deterministically, so
#: any drift in these counts is a semantic change to the front door.
PINNED_OVERLOAD_FIELDS = ("offered", "ok", "deadline_miss", "throttled",
                          "shed", "per_tenant_fingerprint")

#: Hog-run fields compared exactly per arm.
PINNED_HOG_FIELDS = ("offered", "ok", "hog_ok", "polite_offered",
                     "polite_ok")

#: Scale-smoke fields compared exactly (1000 tenants through the
#: gateway).
PINNED_SCALE_FIELDS = ("tenants", "offered", "ok", "deadline_miss",
                       "throttled", "shed", "tenants_served")

#: Differential-run fields compared exactly per path (direct invoke
#: and the NoAdmission pass-through): the outcome digest and, kept
#: apart so an event-count change cannot hide an outcome change, the
#: exact simulator event count.
PINNED_DIFFERENTIAL_FIELDS = ("outcome_digest", "events")

OVERLOAD_ARMS = ("none", "gateway")
HOG_ARMS = ("hog_none", "hog_gateway")
DIFFERENTIAL_ARMS = ("direct", "noadmission")


def _overload_point_doc(point: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep point with the per-tenant ok list folded to a digest."""
    doc = {k: v for k, v in point.items() if k != "per_tenant_ok"}
    doc["per_tenant_fingerprint"] = digest(point["per_tenant_ok"])
    return doc


def run_overload_gate() -> Dict[str, Any]:
    """Replay the pinned short overload sweep (none vs gateway)."""
    from .experiments.e24_overload import (
        MAX_UNPROTECTED_FRACTION,
        MIN_GATED_FRACTION,
        MIN_JAIN,
        SHORT,
        run_overload_arms,
    )
    res = run_overload_arms(SHORT)
    return {
        "experiment": "E24 pinned short overload sweep "
                      "(none vs gateway)",
        "config": res["config"],
        "sweep": {
            arm: {mult: _overload_point_doc(point)
                  for mult, point in res["sweep"][arm].items()}
            for arm in OVERLOAD_ARMS
        },
        "gated_peak_rps": res["gated_peak_rps"],
        "none_peak_rps": res["none_peak_rps"],
        "gated_fraction_at_top": res["gated_fraction_at_top"],
        "none_fraction_at_top": res["none_fraction_at_top"],
        "jain_at_top": res["jain_at_top"],
        "min_gated_fraction": MIN_GATED_FRACTION,
        "max_unprotected_fraction": MAX_UNPROTECTED_FRACTION,
        "min_jain": MIN_JAIN,
        "hog_none": res["hog_none"],
        "hog_gateway": res["hog_gateway"],
        "scale": res["scale"],
        "direct": res["direct"],
        "noadmission": res["noadmission"],
        "noadmission_identical": res["noadmission_identical"],
    }


def compare_overload(current: Dict[str, Any],
                     baseline: Dict[str, Any]) -> List[str]:
    """Violations of the overload gate against its baseline doc."""
    violations: List[str] = []
    base_sweep = baseline.get("sweep", {})
    cur_sweep = current.get("sweep", {})
    for arm in OVERLOAD_ARMS:
        mults = sorted(set(base_sweep.get(arm, {}))
                       | set(cur_sweep.get(arm, {})), key=float)
        for mult in mults:
            violations += pinned_drift(
                f"overload {arm}@{mult}x.",
                cur_sweep.get(arm, {}).get(mult, {}),
                base_sweep.get(arm, {}).get(mult, {}),
                PINNED_OVERLOAD_FIELDS)
    min_gated = baseline.get("min_gated_fraction", 0.0)
    gated_frac = current.get("gated_fraction_at_top", 0.0)
    if gated_frac < min_gated:
        violations.append(
            f"overload: gateway holds only {gated_frac:.1%} of its "
            f"peak goodput at the top multiplier (required >= "
            f"{min_gated:.0%})")
    max_none = baseline.get("max_unprotected_fraction", 1.0)
    none_frac = current.get("none_fraction_at_top", 1.0)
    if none_frac >= max_none:
        violations.append(
            f"overload: the unprotected arm retains {none_frac:.1%} "
            f"of its peak at the top multiplier — it no longer "
            f"collapses (expected < {max_none:.0%}), so the "
            "comparison is not exercising overload")
    min_jain = baseline.get("min_jain", 0.0)
    jain = current.get("jain_at_top", 0.0)
    if jain < min_jain:
        violations.append(
            f"overload: Jain fairness {jain:.3f} among equal-weight "
            f"tenants at the top multiplier (required >= {min_jain})")
    violations += pinned_drift("overload ", current, baseline,
                               PINNED_HOG_FIELDS, HOG_ARMS)
    gated_polite = current.get("hog_gateway", {}).get("polite_goodput",
                                                      0.0)
    none_polite = current.get("hog_none", {}).get("polite_goodput", 1.0)
    if gated_polite <= none_polite:
        violations.append(
            f"overload: per-tenant buckets no longer protect polite "
            f"tenants from the hog ({gated_polite:.1%} gated vs "
            f"{none_polite:.1%} unprotected)")
    violations += pinned_drift("overload ", current, baseline,
                               PINNED_SCALE_FIELDS, ("scale",))
    violations += pinned_drift("overload ", current, baseline,
                               PINNED_DIFFERENTIAL_FIELDS,
                               DIFFERENTIAL_ARMS)
    if not current.get("noadmission_identical", False):
        violations.append(
            "overload: the NoAdmission pass-through no longer matches "
            "the seed scheduler path (outcome digest and event count)")
    return violations


def _overload_summary(doc: Dict[str, Any]) -> str:
    passthrough = ("identical" if doc["noadmission_identical"]
                   else "DIVERGED")
    return (f"  overload   goodput at 4x: "
            f"{doc['none_fraction_at_top']:.1%} of peak (unprotected) vs "
            f"{doc['gated_fraction_at_top']:.1%} (gateway), "
            f"Jain {doc['jain_at_top']:.3f}, "
            f"{doc['scale']['tenants']} tenants OK, "
            f"pass-through {passthrough}")


# ---------------------------------------------------------------------------
# Recovery gate
# ---------------------------------------------------------------------------

#: Per-arm fields compared exactly — arrivals, faults, detection, and
#: recovery all replay deterministically, so any drift in these is a
#: semantic change to the health plane or the invoke path.
PINNED_RECOVERY_FIELDS = ("offered", "front", "batch", "errors",
                          "fault_events", "orphaned", "recovered",
                          "deduped", "ejections", "crashes_detected",
                          "crashes_total", "detection_latencies",
                          "outcome_digest", "events")

RECOVERY_ARMS = ("detection", "none")


def run_recovery_gate() -> Dict[str, Any]:
    """Replay the pinned short chaos-storm MTTR run (both arms)."""
    from .experiments.e25_recovery import (
        MAX_DETECTION_LATENCY,
        MAX_OFF_RETENTION,
        MIN_ON_RETENTION,
        MIN_ORPHANS,
        MIN_RECOVERED_RATIO,
        SHORT,
        run_recovery_arms,
    )
    res = run_recovery_arms(SHORT)
    return {
        "experiment": "E25 pinned short chaos-storm MTTR "
                      "(detection vs none)",
        "config": res["config"],
        "detection": res["detection"],
        "none": res["none"],
        "recovery_ratio": res["recovery_ratio"],
        "min_recovered_ratio": MIN_RECOVERED_RATIO,
        "min_orphans": MIN_ORPHANS,
        "min_on_retention": MIN_ON_RETENTION,
        "max_off_retention": MAX_OFF_RETENTION,
        "max_detection_latency": MAX_DETECTION_LATENCY,
    }


def compare_recovery(current: Dict[str, Any],
                     baseline: Dict[str, Any]) -> List[str]:
    """Violations of the recovery gate against its baseline doc."""
    violations = pinned_drift("recovery ", current, baseline,
                              PINNED_RECOVERY_FIELDS, RECOVERY_ARMS)
    on = current.get("detection", {})
    off = current.get("none", {})
    min_ratio = baseline.get("min_recovered_ratio", 0.0)
    ratio = current.get("recovery_ratio", 0.0)
    if ratio < min_ratio:
        violations.append(
            f"recovery: only {ratio:.1%} of orphaned in-flight invokes "
            f"were recovered (required >= {min_ratio:.0%})")
    min_orphans = baseline.get("min_orphans", 0)
    if on.get("orphaned", 0) < min_orphans:
        violations.append(
            f"recovery: the storm orphaned only "
            f"{on.get('orphaned', 0)} invokes (required >= "
            f"{min_orphans}), so it is not exercising crash recovery")
    min_on = baseline.get("min_on_retention", 0.0)
    on_ret = on.get("goodput_retention", 0.0)
    if on_ret < min_on:
        violations.append(
            f"recovery: the detection arm holds only {on_ret:.1%} of "
            f"its pre-fault goodput through the storm (required >= "
            f"{min_on:.0%})")
    max_off = baseline.get("max_off_retention", 1.0)
    off_ret = off.get("goodput_retention", 1.0)
    if off_ret >= max_off:
        violations.append(
            f"recovery: the detection-off arm retains {off_ret:.1%} of "
            f"its pre-fault goodput — the storm no longer hurts it "
            f"(expected < {max_off:.0%}), so the comparison is not "
            "exercising the health plane")
    max_latency = baseline.get("max_detection_latency", float("inf"))
    det_max = on.get("detection_latency_max", 0.0)
    if det_max > max_latency:
        violations.append(
            f"recovery: worst crash-detection latency {det_max:.2f} s "
            f"(required <= {max_latency:.1f} s)")
    return violations


def _recovery_summary(doc: Dict[str, Any]) -> str:
    on = doc["detection"]
    return (f"  recovery   storm goodput "
            f"{doc['none']['goodput_retention']:.1%} (detection off) -> "
            f"{on['goodput_retention']:.1%} (health plane), "
            f"{on['recovered']}/{on['orphaned']} orphans recovered, "
            f"{on['ejections']} ejections, worst detect "
            f"{on['detection_latency_max'] * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# Tail gate
# ---------------------------------------------------------------------------

#: Objective-arm fields compared exactly — the decision digest pins
#: *which impl served every request* (the p99 flip and the mean
#: non-flip), the latency digest every request's exact duration, and
#: the SLO fields the burn-rate alerting behavior.
PINNED_TAIL_OBJECTIVE_FIELDS = ("objective", "decision_fingerprint",
                                "latency_fingerprint", "flip_index",
                                "stuck_on_bimodal", "slo_alerts")

#: Hedge-arm fields compared exactly per arm.
PINNED_TAIL_HEDGE_FIELDS = ("mode", "latency_fingerprint", "hedges",
                            "hedge_wins")

TAIL_OBJECTIVE_ARMS = ("mean", "p99")
TAIL_HEDGE_ARMS = ("hedge_fixed", "hedge_adaptive")


def _tail_objective_doc(arm: Dict[str, Any]) -> Dict[str, Any]:
    """One objective arm with its bulky sequences folded to digests."""
    return {
        "objective": arm["objective"],
        "mean_s": arm["mean_s"],
        "p99_s": arm["p99_s"],
        "decision_fingerprint": digest(arm["decisions"]),
        "latency_fingerprint": digest(arm["latencies"]),
        "flip_index": arm["flip_index"],
        "stuck_on_bimodal": arm["stuck_on_bimodal"],
        "slo_alerts": arm["slo_alerts"],
        "slo_final_burn": arm["slo_final_burn"],
        "slo_attainment": arm["slo_attainment"],
        "sketch_rel_err": arm["sketch_rel_err"],
    }


def _tail_hedge_doc(arm: Dict[str, Any]) -> Dict[str, Any]:
    """One hedge arm with its latency sequence folded to a digest."""
    return {
        "mode": arm["mode"],
        "mean_s": arm["mean_s"],
        "p50_s": arm["p50_s"],
        "p99_s": arm["p99_s"],
        "latency_fingerprint": digest(arm["latencies"]),
        "hedges": arm["hedges"],
        "hedge_wins": arm["hedge_wins"],
        "launch_fraction": arm["launch_fraction"],
        "sketch_rel_err": arm["sketch_rel_err"],
    }


def run_tail_gate() -> Dict[str, Any]:
    """Replay the pinned E26 tail comparison (all four arms)."""
    from .experiments.e26_tail import (
        MAX_HEDGE_OVERHEAD,
        MAX_SKETCH_REL_ERR,
        run_tail_arms,
    )
    res = run_tail_arms()
    return {
        "experiment": "E26 pinned tail pipeline (p99 objective, "
                      "adaptive hedging, SLO burn)",
        "config": res["config"],
        "mean": _tail_objective_doc(res["mean"]),
        "p99": _tail_objective_doc(res["p99"]),
        "hedge_fixed": _tail_hedge_doc(res["hedge_fixed"]),
        "hedge_adaptive": _tail_hedge_doc(res["hedge_adaptive"]),
        "p99_tail_cut": res["p99_tail_cut"],
        "hedge_p99_cut": res["hedge_p99_cut"],
        "sketch_rel_err": res["sketch_rel_err"],
        "max_sketch_rel_err": MAX_SKETCH_REL_ERR,
        "max_hedge_overhead": MAX_HEDGE_OVERHEAD,
    }


def compare_tail(current: Dict[str, Any],
                 baseline: Dict[str, Any]) -> List[str]:
    """Violations of the tail gate against its baseline doc."""
    violations = pinned_drift("tail ", current, baseline,
                              PINNED_TAIL_OBJECTIVE_FIELDS,
                              TAIL_OBJECTIVE_ARMS)
    violations += pinned_drift("tail ", current, baseline,
                               PINNED_TAIL_HEDGE_FIELDS, TAIL_HEDGE_ARMS)
    if current.get("p99", {}).get("flip_index") is None:
        violations.append(
            "tail: the p99-steered optimizer never flipped to the "
            "tight-tail impl — the tail objective is not steering")
    if not current.get("mean", {}).get("stuck_on_bimodal", False):
        violations.append(
            "tail: the mean-steered arm left the bimodal impl — the "
            "trap no longer distinguishes mean from tail steering")
    fixed_p99 = current.get("hedge_fixed", {}).get("p99_s", 0.0)
    adaptive_p99 = current.get("hedge_adaptive", {}).get("p99_s",
                                                         float("inf"))
    if adaptive_p99 >= fixed_p99:
        violations.append(
            f"tail: adaptive hedging no longer beats the fixed delay "
            f"({adaptive_p99:.6f} s p99 vs {fixed_p99:.6f} s fixed)")
    max_overhead = baseline.get("max_hedge_overhead", 1.0)
    launch_fraction = current.get("hedge_adaptive",
                                  {}).get("launch_fraction", 0.0)
    if launch_fraction > max_overhead:
        violations.append(
            f"tail: adaptive hedging launches duplicates for "
            f"{launch_fraction:.1%} of requests (bound "
            f"{max_overhead:.0%})")
    max_err = baseline.get("max_sketch_rel_err", 1.0)
    rel_err = current.get("sketch_rel_err", 0.0)
    if rel_err > max_err:
        violations.append(
            f"tail: worst sketch-vs-exact quantile error "
            f"{rel_err:.2%} across the latency streams (bound "
            f"{max_err:.0%})")
    return violations


def _tail_summary(doc: Dict[str, Any]) -> str:
    ha = doc["hedge_adaptive"]
    return (f"  tail       p99 {doc['mean']['p99_s'] * 1e3:.0f} ms "
            f"(objective=mean) -> {doc['p99']['p99_s'] * 1e3:.0f} ms "
            f"(objective=p99), hedge p99 "
            f"{doc['hedge_fixed']['p99_s'] * 1e3:.0f} ms (fixed) -> "
            f"{ha['p99_s'] * 1e3:.0f} ms (adaptive, "
            f"{ha['launch_fraction']:.0%} launches), sketch err "
            f"{doc['sketch_rel_err']:.2%}")


# ---------------------------------------------------------------------------
# The registry and the CLI
# ---------------------------------------------------------------------------

Doc = Dict[str, Any]


@dataclass(frozen=True)
class Gate:
    """One regression gate: how to run it, judge it, and report it."""

    #: ``--only`` choice, CI matrix arm, and ``<name>.json`` artifact.
    name: str
    #: Baseline file name under the baseline directory.
    baseline: str
    #: Replays the pinned workload and returns the gate doc. A gate
    #: with side artifacts writes them into the ``--out-dir`` it is
    #: given (``None``: write nothing).
    run: Callable[[Optional[Path]], Doc]
    #: ``compare(doc, baseline)``: violation messages, empty on pass.
    compare: Callable[[Doc, Doc], List[str]]
    #: A human-readable report of one run.
    summary: Callable[[Doc], str]


#: Every gate, in run order.
GATES: Tuple[Gate, ...] = (
    Gate("e4", "e4_critical_path.json", run_e4_gate,
         lambda doc, base: compare(doc["by_layer"], base), _e4_summary),
    Gate("autoscale", "autoscale_burst.json",
         lambda _out: run_autoscale_gate(), compare_autoscale,
         _autoscale_summary),
    Gate("chaos", "chaos_goodput.json", lambda _out: run_chaos_gate(),
         compare_chaos, _chaos_summary),
    Gate("attribution", "attribution_drift.json",
         lambda _out: run_attribution_gate(), compare_attribution,
         _attribution_summary),
    Gate("throughput", "throughput.json",
         lambda _out: run_throughput_gate(), compare_throughput,
         _throughput_summary),
    Gate("overload", "overload_goodput.json",
         lambda _out: run_overload_gate(), compare_overload,
         _overload_summary),
    Gate("recovery", "recovery_mttr.json",
         lambda _out: run_recovery_gate(), compare_recovery,
         _recovery_summary),
    Gate("tail", "tail_drift.json", lambda _out: run_tail_gate(),
         compare_tail, _tail_summary),
)


def _write_json(path: Path, doc: Doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 (pass), 1 (violation), 2 (usage)."""
    # Exact option names only: a prefix such as --out must not resolve
    # to --out-dir.
    parser = argparse.ArgumentParser(
        prog="repro.bench.regress", allow_abbrev=False,
        description="Run the behavioral regression gates against their "
                    "checked-in baselines.")
    parser.add_argument("--only", action="append",
                        choices=[gate.name for gate in GATES],
                        help="run only this gate; repeatable (default: "
                             "every gate, in registry order)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the selected baselines from this "
                             "run")
    parser.add_argument("--baseline-dir", type=Path, default=BASELINE_DIR,
                        help="directory holding the baseline JSON files "
                             "(default: benchmarks/baselines)")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="write each selected gate's JSON here as "
                             "<name>.json")
    args = parser.parse_args(argv)
    gates = [gate for gate in GATES
             if args.only is None or gate.name in args.only]

    missing = [args.baseline_dir / gate.baseline for gate in gates
               if not (args.baseline_dir / gate.baseline).exists()]
    if missing and not args.update:
        for path in missing:
            print(f"no baseline at {path}; run with --update first",
                  file=sys.stderr)
        return 2
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    violations: List[str] = []
    for gate in gates:
        doc = gate.run(args.out_dir)
        if args.out_dir is not None:
            out = args.out_dir / f"{gate.name}.json"
            _write_json(out, doc)
            print(f"{gate.name}: results written to {out}")
        path = args.baseline_dir / gate.baseline
        if args.update:
            _write_json(path, doc)
            print(f"baseline updated: {path}")
        baseline = json.loads(path.read_text(encoding="utf-8"))
        violations += gate.compare(doc, baseline)
        print(gate.summary(doc))

    if violations:
        print("PERF REGRESSION:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
