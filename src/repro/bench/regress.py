"""Behavioral regression gates, run from one registry.

Each gate replays a pinned, seeded workload, folds the run into a JSON
doc, and compares it against a checked-in baseline under
``benchmarks/baselines/``. Pinned fields must match exactly, and each
gate's win conditions must hold on every run. The simulation is
deterministic, so drift beyond tolerance is a real behavior change (a
new network hop on the hot path, an extra quorum round, a changed
control decision), not noise. :data:`GATES` lists the gates in run
order, each with the claims its doc must satisfy; CI runs one matrix
arm per gate.

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
    Iterator,
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
from .experiments import e21_chaos as e21
from .experiments import e22_attribution as e22
from .experiments import e24_overload as e24
from .experiments import e25_recovery as e25
from .experiments import e26_tail as e26
from .throughput import run_benchmarks, run_invoke_bench

#: Where the checked-in baselines live (``--baseline-dir`` default).
BASELINE_DIR = Path(__file__).resolve().parents[3] / "benchmarks" \
    / "baselines"

Doc = Dict[str, Any]


def digest(seq: Iterable[Any]) -> str:
    """A short stable digest of any JSON-serializable sequence.

    Pinning the digest (rather than the raw per-request list) keeps the
    baseline JSON small while still failing the gate if any single
    request's outcome, decision, or timing shifts.
    """
    payload = json.dumps(list(seq), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Claims: what a gate doc must satisfy
# ---------------------------------------------------------------------------

#: An absent value. A claim that measures it fails; it never passes by
#: default.
_MISSING = object()


def _get(doc: Any, keys: Sequence[str], default: Any = _MISSING) -> Any:
    """The value under ``keys`` in nested dicts, or ``default``."""
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            return default
        doc = doc[key]
    return doc


#: One ``(where, values)`` pair per check of a claim (see :class:`Claim`).
Cases = Iterator[Tuple[Dict[str, str], Dict[str, Any]]]


class Claim:
    """One claim a gate doc must satisfy; calling it evaluates it.

    Each kind's ``cases(doc, baseline)`` yields one ``(where, values)``
    pair per check: ``values`` holds what the check compares and its
    message names, and ``where`` maps each value measured in the doc to
    its location. A check fails when a measured value is absent, or
    when ``holds(**values)`` is false; ``message`` is then formatted
    with the values, the gate name as ``gate``, and the doc as ``doc``.
    """

    def __call__(self, gate: str, doc: Doc, baseline: Doc) -> List[str]:
        """Violation messages of ``doc`` against ``baseline``."""
        violations: List[str] = []
        for where, values in self.cases(doc, baseline):
            missing = [loc for name, loc in where.items()
                       if values[name] is _MISSING]
            if missing:
                violations += [f"{gate} {loc}: missing" for loc in missing]
            elif not self.holds(**values):
                violations.append(self.message.format(gate=gate, doc=doc,
                                                      **values))
        return violations


#: ``Pinned(arms=EVERY)``: every arm key found in either doc, in
#: numeric order (the overload sweep's load multipliers).
EVERY = ("*",)


@dataclass(frozen=True)
class Pinned(Claim):
    """Each field equals the baseline's, per arm (``arms=None``: at the
    top level) under the ``within`` key path.

    ``label`` renders an arm in the default message, ``"<gate>
    <arm>.<field>: <value> vs pinned <baseline>"``.
    """

    fields: Tuple[str, ...]
    arms: Optional[Tuple[str, ...]] = None
    within: Tuple[str, ...] = ()
    label: str = "{arm}"
    message: str = "{gate} {where}: {value} vs pinned {pinned}"

    def pairs(self, doc: Doc, baseline: Doc) -> List[Tuple[str, ...]]:
        """The key path of every pinned value."""
        if self.arms is None:
            return [self.within + (fld,) for fld in self.fields]
        arms: Iterable[str] = self.arms
        if self.arms is EVERY:
            arms = sorted({arm for side in (doc, baseline)
                           for arm in _get(side, self.within, {})},
                          key=float)
        return [self.within + (arm, fld)
                for arm in arms for fld in self.fields]

    def cases(self, doc: Doc, baseline: Doc) -> Cases:
        for keys in self.pairs(doc, baseline):
            where = keys[-1] if self.arms is None else \
                f"{self.label.format(arm=keys[-2])}.{keys[-1]}"
            yield {"value": where}, {"value": _get(doc, keys),
                                     "pinned": _get(baseline, keys, None),
                                     "where": where}

    def holds(self, value: Any, pinned: Any, where: str) -> bool:
        return value == pinned


@dataclass(frozen=True)
class FromBaseline:
    """A bound the run writes into its doc as ``key``: the baseline's
    value wins, and a baseline without it falls back to ``default``,
    the module constant the run writes."""

    key: str
    default: float

    def __call__(self, doc: Doc, baseline: Doc) -> float:
        return baseline.get(self.key, self.default)


@dataclass(frozen=True)
class _Bounded(Claim):
    """The value at dotted ``path`` against ``bound(doc, baseline)``."""

    path: str
    bound: Callable[[Doc, Doc], float]
    message: str

    def cases(self, doc: Doc, baseline: Doc) -> Cases:
        yield {"value": self.path}, {
            "value": _get(doc, self.path.split(".")),
            "bound": self.bound(doc, baseline)}


class Floor(_Bounded):
    """``value >= bound``."""

    def holds(self, value: Any, bound: float) -> bool:
        return value >= bound


@dataclass(frozen=True)
class Ceiling(_Bounded):
    """``value <= bound`` (``<`` when ``strict``)."""

    strict: bool = False

    def holds(self, value: Any, bound: float) -> bool:
        return value < bound if self.strict else value <= bound


@dataclass(frozen=True)
class Beats(Claim):
    """The value at ``winner`` is strictly above (``lower``: below) the
    value at ``loser``."""

    winner: str
    loser: str
    message: str
    lower: bool = False

    def cases(self, doc: Doc, baseline: Doc) -> Cases:
        yield {"winner": self.winner, "loser": self.loser}, {
            "winner": _get(doc, self.winner.split(".")),
            "loser": _get(doc, self.loser.split("."))}

    def holds(self, winner: Any, loser: Any) -> bool:
        return winner < loser if self.lower else winner > loser


@dataclass(frozen=True)
class Holds(Claim):
    """``test`` accepts the value at dotted ``path`` (default: it is
    truthy)."""

    path: str
    message: str
    test: Callable[[Any], bool] = bool

    def cases(self, doc: Doc, baseline: Doc) -> Cases:
        yield {"value": self.path}, {"value": _get(doc, self.path.split("."))}

    def holds(self, value: Any) -> bool:
        return self.test(value)


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
    "hedge": "control",
    "attempt": "control",
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

AUTOSCALE_ARMS = ("fixed", "controlled")


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


def _autoscale_summary(doc: Dict[str, Any]) -> str:
    return (f"  autoscale  cold {doc['fixed']['cold_starts']} "
            f"(fixed) -> {doc['controlled']['cold_starts']} "
            f"(queue-depth), -{doc['cold_start_reduction']:.1%}")


# ---------------------------------------------------------------------------
# Chaos gate
# ---------------------------------------------------------------------------

def _chaos_arm_doc(arm: Dict[str, Any]) -> Dict[str, Any]:
    """One chaos arm with the bulky outcome list folded to a digest."""
    doc = {k: v for k, v in arm.items() if k != "outcomes"}
    doc["outcome_fingerprint"] = digest(arm["outcomes"])
    return doc


def run_chaos_gate() -> Dict[str, Any]:
    """Replay the pinned short chaos comparison (naive vs hardened)."""
    res = e21.run_chaos_arms(e21.SHORT)
    return {
        "experiment": "E21 pinned short chaos (naive vs hardened)",
        "config": res["config"],
        "deadline_eps_s": e21.DEADLINE_EPS,
        "naive": _chaos_arm_doc(res["naive"]),
        "hardened": _chaos_arm_doc(res["hardened"]),
        "unhedged": {k: res["unhedged"][k]
                     for k in ("requests", "p50_s", "p99_s")},
        "hedged": {k: res["hedged"][k]
                   for k in ("requests", "p50_s", "p99_s", "hedges",
                             "hedge_wins", "duplicate_fraction")},
        "replay_identical": res["replay_identical"],
    }


def _chaos_deadline(doc: Doc, baseline: Doc) -> float:
    """The run's own client deadline plus its float slack."""
    return doc["config"]["deadline_s"] + doc["deadline_eps_s"]


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


ATTRIBUTION_ARMS = ("static", "ema", "forced_gpu", "forced_npu")


def run_attribution_gate() -> Dict[str, Any]:
    """Replay the pinned E22 drift comparison (all four arms)."""
    res = e22.run_attribution_arms()
    doc: Dict[str, Any] = {
        "experiment": "E22 pinned drift (static vs observation-fed)",
        "config": res["config"],
        "oracle_phase2_mean_s": res["oracle_phase2_mean_s"],
        "gap_closed": res["gap_closed"],
        "min_gap_closed": e22.MIN_GAP_CLOSED,
        "ema_flip_index": res["ema_flip_index"],
    }
    for arm in ATTRIBUTION_ARMS:
        doc[arm] = _attribution_arm_doc(res[arm], e22.PHASE1_REQUESTS)
    return doc


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

#: Hot-loop repeats, each paired with the calibration kernel runs
#: around it; the gate reads the median product (an odd count makes it
#: one repeat's). Five take about 12 s on a 2-core VM.
THROUGHPUT_REPEAT = 5


def run_throughput_gate(repeat: int = THROUGHPUT_REPEAT) -> Dict[str, Any]:
    """Run the pinned hot-loop and invoke benchmarks.

    Times the hot loop against the calibration kernel
    (``perfbench/reference.py``) in this process, and additionally runs
    the invoke bench once in forced-serial mode so the batched
    ``invoke_many`` path is pinned byte-identical to a serial
    ``invoke`` loop.
    """
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


def _throughput_summary(doc: Dict[str, Any]) -> str:
    return (f"  throughput {doc['current_events_per_sec']:,.0f} ev/s, "
            f"{doc['hot_loop_events_per_kernel']:,.0f} events per "
            f"{doc['kernel_s'] * 1e3:.1f} ms kernel run (floor "
            f"{doc['min_hot_loop_events_per_kernel']:,.0f}), "
            f"{doc['invokes_per_sec']:,.0f} invokes/s")


# ---------------------------------------------------------------------------
# Overload gate
# ---------------------------------------------------------------------------

OVERLOAD_ARMS = ("none", "gateway")


def _overload_point_doc(point: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep point with the per-tenant ok list folded to a digest."""
    doc = {k: v for k, v in point.items() if k != "per_tenant_ok"}
    doc["per_tenant_fingerprint"] = digest(point["per_tenant_ok"])
    return doc


def run_overload_gate() -> Dict[str, Any]:
    """Replay the pinned short overload sweep (none vs gateway)."""
    res = e24.run_overload_arms(e24.SHORT)
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
        "min_gated_fraction": e24.MIN_GATED_FRACTION,
        "max_unprotected_fraction": e24.MAX_UNPROTECTED_FRACTION,
        "min_jain": e24.MIN_JAIN,
        "hog_none": res["hog_none"],
        "hog_gateway": res["hog_gateway"],
        "scale": res["scale"],
        "direct": res["direct"],
        "noadmission": res["noadmission"],
        "noadmission_identical": res["noadmission_identical"],
    }


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

def run_recovery_gate() -> Dict[str, Any]:
    """Replay the pinned short chaos-storm MTTR run (both arms)."""
    res = e25.run_recovery_arms(e25.SHORT)
    return {
        "experiment": "E25 pinned short chaos-storm MTTR "
                      "(detection vs none)",
        "config": res["config"],
        "detection": res["detection"],
        "none": res["none"],
        "recovery_ratio": res["recovery_ratio"],
        "min_recovered_ratio": e25.MIN_RECOVERED_RATIO,
        "min_orphans": e25.MIN_ORPHANS,
        "min_on_retention": e25.MIN_ON_RETENTION,
        "max_off_retention": e25.MAX_OFF_RETENTION,
        "max_detection_latency": e25.MAX_DETECTION_LATENCY,
    }


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
    res = e26.run_tail_arms()
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
        "max_sketch_rel_err": e26.MAX_SKETCH_REL_ERR,
        "max_hedge_overhead": e26.MAX_HEDGE_OVERHEAD,
    }


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
    #: What every run must satisfy: ``claim(name, doc, baseline)``
    #: returns the claim's violation messages.
    claims: Tuple[Callable[[str, Doc, Doc], List[str]], ...]
    #: A human-readable report of one run.
    summary: Callable[[Doc], str]

    def compare(self, doc: Doc, baseline: Doc) -> List[str]:
        """Every claim's violation messages, empty on pass."""
        return [violation for claim in self.claims
                for violation in claim(self.name, doc, baseline)]


#: Every gate, in run order. The replays are deterministic, so the
#: pinned fields are compared exactly and any drift is a behavior
#: change, not noise.
GATES: Tuple[Gate, ...] = (
    Gate("e4", "e4_critical_path.json", run_e4_gate,
         (lambda _gate, doc, base: compare(doc["by_layer"], base),),
         _e4_summary),
    Gate("autoscale", "autoscale_burst.json",
         lambda _out: run_autoscale_gate(), (
             # Only the integer outcome counts are pinned; float fields
             # like p99 and held_seconds ride along in the baseline.
             Pinned(("offered", "completed", "failed", "cold_starts",
                     "warm_hits", "prewarmed", "queue_waits",
                     "final_size"), AUTOSCALE_ARMS),
             Floor("cold_start_reduction",
                   FromBaseline("min_reduction", MIN_REDUCTION),
                   "cold-start reduction {value:.1%} is below the "
                   "required {bound:.0%}"),
             *(Holds(f"{arm}.final_size",
                     f"{arm}: pool did not scale to zero "
                     "(final_size={value})", lambda size: size == 0)
               for arm in AUTOSCALE_ARMS),
         ), _autoscale_summary),
    Gate("chaos", "chaos_goodput.json", lambda _out: run_chaos_gate(), (
        # The fault schedule, retries, hedges, and every request
        # outcome replay deterministically.
        Pinned(("offered", "ok", "deadline_exceeded", "errors", "retries",
                "hedges", "hedge_wins", "failovers", "faults_injected",
                "outcome_fingerprint"), ("naive", "hardened")),
        Beats("hardened.goodput", "naive.goodput",
              "chaos: hardened goodput {winner:.1%} does not beat naive "
              "{loser:.1%}"),
        Ceiling("hardened.max_time_to_outcome_s", _chaos_deadline,
                "chaos: a hardened client was blocked {value:.6f} s, past "
                "its {doc[config][deadline_s]} s deadline"),
        Beats("hedged.p99_s", "unhedged.p99_s",
              "chaos: hedging no longer cuts the gray p99 ({winner:.6f} s "
              "vs {loser:.6f} s unhedged)", lower=True),
        Holds("replay_identical", "chaos: run is no longer "
              "outcome-identical when replayed from its seed"),
    ), _chaos_summary),
    Gate("attribution", "attribution_drift.json",
         lambda _out: run_attribution_gate(), (
             Pinned(("mode", "decision_fingerprint", "latency_fingerprint"),
                    ATTRIBUTION_ARMS),
             Floor("gap_closed",
                   FromBaseline("min_gap_closed", e22.MIN_GAP_CLOSED),
                   "attribution: observed arm closes {value:.1%} of the "
                   "static-to-oracle gap, below the required {bound:.0%}"),
             Pinned(("ema_flip_index",),
                    message="attribution: ema arm migrated after {value} "
                            "post-drift requests vs pinned {pinned}"),
             Holds("static.phase2_all_npu", "attribution: the static arm "
                   "no longer reproduces the open-loop failure (it left "
                   "the drifted NPU)"),
             *(Holds(f"{arm}.phase1_all_npu",
                     f"attribution: {arm} arm did not serve the healthy "
                     "phase entirely from the NPU")
               for arm in ("static", "ema")),
         ), _attribution_summary),
    Gate("throughput", "throughput.json",
         lambda _out: run_throughput_gate(), (
             # Determinism: the fingerprints may only change with event
             # order or span/metric tallies, never with speed. The floor
             # is machine-relative, so absolute events/sec never enters.
             Pinned(("hot_loop_fingerprint", "invoke_fingerprint")),
             Floor("hot_loop_events_per_kernel",
                   FromBaseline("min_hot_loop_events_per_kernel",
                                MIN_HOT_LOOP_EVENTS_PER_KERNEL),
                   "throughput: hot loop ran only {value:,.0f} events per "
                   "calibration kernel run (required >= {bound:,.0f})"),
             Holds("batched_matches_serial", "throughput: invoke_many "
                   "outcomes diverged from the serial invoke loop"),
         ), _throughput_summary),
    Gate("overload", "overload_goodput.json",
         lambda _out: run_overload_gate(), (
             # Arrivals, admission decisions, and deadline outcomes all
             # replay deterministically, at every sweep point.
             *(Pinned(("offered", "ok", "deadline_miss", "throttled", "shed",
                       "per_tenant_fingerprint"), EVERY, ("sweep", arm),
                      f"{arm}@{{arm}}x")
               for arm in OVERLOAD_ARMS),
             Floor("gated_fraction_at_top",
                   FromBaseline("min_gated_fraction", e24.MIN_GATED_FRACTION),
                   "overload: gateway holds only {value:.1%} of its peak "
                   "goodput at the top multiplier (required >= "
                   "{bound:.0%})"),
             Ceiling("none_fraction_at_top",
                     FromBaseline("max_unprotected_fraction",
                                  e24.MAX_UNPROTECTED_FRACTION),
                     "overload: the unprotected arm retains {value:.1%} of "
                     "its peak at the top multiplier — it no longer "
                     "collapses (expected < {bound:.0%}), so the "
                     "comparison is not exercising overload", strict=True),
             Floor("jain_at_top", FromBaseline("min_jain", e24.MIN_JAIN),
                   "overload: Jain fairness {value:.3f} among equal-weight "
                   "tenants at the top multiplier (required >= {bound})"),
             Pinned(("offered", "ok", "hog_ok", "polite_offered",
                     "polite_ok"), ("hog_none", "hog_gateway")),
             Beats("hog_gateway.polite_goodput", "hog_none.polite_goodput",
                   "overload: per-tenant buckets no longer protect polite "
                   "tenants from the hog ({winner:.1%} gated vs "
                   "{loser:.1%} unprotected)"),
             # The 1000-tenant smoke through the gateway.
             Pinned(("tenants", "offered", "ok", "deadline_miss",
                     "throttled", "shed", "tenants_served"), ("scale",)),
             # Direct invoke vs the NoAdmission pass-through: the event
             # count is pinned apart from the outcome digest, so an
             # event-count change cannot hide an outcome change.
             Pinned(("outcome_digest", "events"), ("direct", "noadmission")),
             Holds("noadmission_identical", "overload: the NoAdmission "
                   "pass-through no longer matches the seed scheduler path "
                   "(outcome digest and event count)"),
         ), _overload_summary),
    Gate("recovery", "recovery_mttr.json",
         lambda _out: run_recovery_gate(), (
             # Arrivals, faults, detection, and recovery all replay
             # deterministically.
             Pinned(("offered", "front", "batch", "errors", "fault_events",
                     "orphaned", "recovered", "deduped", "ejections",
                     "crashes_detected", "crashes_total",
                     "detection_latencies", "outcome_digest", "events"),
                    ("detection", "none")),
             Floor("recovery_ratio", FromBaseline("min_recovered_ratio",
                                                  e25.MIN_RECOVERED_RATIO),
                   "recovery: only {value:.1%} of orphaned in-flight "
                   "invokes were recovered (required >= {bound:.0%})"),
             Floor("detection.orphaned",
                   FromBaseline("min_orphans", e25.MIN_ORPHANS),
                   "recovery: the storm orphaned only {value} invokes "
                   "(required >= {bound}), so it is not exercising crash "
                   "recovery"),
             Floor("detection.goodput_retention",
                   FromBaseline("min_on_retention", e25.MIN_ON_RETENTION),
                   "recovery: the detection arm holds only {value:.1%} of "
                   "its pre-fault goodput through the storm (required >= "
                   "{bound:.0%})"),
             Ceiling("none.goodput_retention",
                     FromBaseline("max_off_retention", e25.MAX_OFF_RETENTION),
                     "recovery: the detection-off arm retains {value:.1%} of "
                     "its pre-fault goodput — the storm no longer hurts it "
                     "(expected < {bound:.0%}), so the comparison is not "
                     "exercising the health plane", strict=True),
             Ceiling("detection.detection_latency_max",
                     FromBaseline("max_detection_latency",
                                  e25.MAX_DETECTION_LATENCY),
                     "recovery: worst crash-detection latency {value:.2f} s "
                     "(required <= {bound:.1f} s)"),
         ), _recovery_summary),
    Gate("tail", "tail_drift.json", lambda _out: run_tail_gate(), (
        # The decision digest pins which impl served every request (the
        # p99 flip and the mean non-flip), the latency digest every
        # request's duration, the SLO fields the burn-rate alerting.
        Pinned(("objective", "decision_fingerprint", "latency_fingerprint",
                "flip_index", "stuck_on_bimodal", "slo_alerts"),
               ("mean", "p99")),
        Pinned(("mode", "latency_fingerprint", "hedges", "hedge_wins"),
               ("hedge_fixed", "hedge_adaptive")),
        Holds("p99.flip_index", "tail: the p99-steered optimizer never "
              "flipped to the tight-tail impl — the tail objective is not "
              "steering", lambda index: index is not None),
        Holds("mean.stuck_on_bimodal", "tail: the mean-steered arm left "
              "the bimodal impl — the trap no longer distinguishes mean "
              "from tail steering"),
        Beats("hedge_adaptive.p99_s", "hedge_fixed.p99_s",
              "tail: adaptive hedging no longer beats the fixed delay "
              "({winner:.6f} s p99 vs {loser:.6f} s fixed)", lower=True),
        Ceiling("hedge_adaptive.launch_fraction",
                FromBaseline("max_hedge_overhead", e26.MAX_HEDGE_OVERHEAD),
                "tail: adaptive hedging launches duplicates for "
                "{value:.1%} of requests (bound {bound:.0%})"),
        Ceiling("sketch_rel_err",
                FromBaseline("max_sketch_rel_err", e26.MAX_SKETCH_REL_ERR),
                "tail: worst sketch-vs-exact quantile error {value:.2%} "
                "across the latency streams (bound {bound:.0%})"),
    ), _tail_summary),
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
