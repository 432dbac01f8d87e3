"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload invoke-warm --seed 1 \\
        --seconds 15 --trace 0

A run repeats *sessions* until ``--seconds`` of host time have passed:
each session builds a fresh cloud (timed as set-up), then issues the
workload's fixed list of requests (timed as the window). Sessions cycle
through the workload's independent input draws of the seed (its
*parts*); the simulated metrics pool one session of each part. Sessions
of the same part must have identical simulated outcomes, which the run
checks.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced sessions, plus retained bytes from one extra session under
tracemalloc that is never timed. ``--trace 1`` alternates untraced and
traced sessions: the traced ones wrap every layer's entry points
(``layers.py``) and report the per-layer metrics; the untraced ones
give the tracing overhead and must reproduce the traced outcomes
exactly.

Host times are scaled to a reference speed: a fixed kernel is timed
between sessions (``reference.py``), and each session's host times are
divided by the mean kernel time just before and after it.

Human-readable lines go first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fewest traced sessions a traced run makes.
MIN_TRACED_PAIRS = 2


def _import_program():
    """Import the program under test from this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program to measure: {SRC}/repro "
                         "is missing (run from a checkout of the repo)")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


class Run:
    """Outcome of one run: metrics, checks and human-readable notes."""

    def __init__(self):
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def result(self) -> Dict[str, Any]:
        return {"correct": not self.errors and self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}


class Measured:
    """What one session leaves behind once its cloud is dropped."""

    def __init__(self, session, setup_s: float, window_s: float,
                 gateway: Tuple[int, int, int]):
        self.part = session.part
        self.setup_s = setup_s
        self.window_s = window_s
        self.attempted = session.attempted
        self.ok = session.ok
        self.unexpected = session.unexpected
        self.events = session.events
        self.sim_span = session.sim_span
        self.errors = list(session.errors)
        self.digest = session.digest()
        self.host_samples = session.host_samples
        self.sim_latencies = session.sim_latencies
        self.gateway = gateway
        self.max_lag = session.max_lag
        self.tally = session.tally()
        #: Host seconds -> seconds at the reference speed (see _scaled).
        self.scale = 1.0

    @property
    def host_us_per_req(self) -> float:
        return self.window_s / self.attempted * 1e6


def _scaled():
    """Returns ``one(run_one, *args)``, which runs a session through
    ``run_one(*args)`` and sets its ``scale`` from the reference kernel
    timed just before and just after it. One ``one`` serves every
    session of a run, of whatever kind, so each session is scaled by
    the machine's speed around it."""
    from reference import REFERENCE_S, measure
    kernel = [measure()]

    def one(run_one, *args) -> Measured:
        measured = run_one(*args)
        after = measure()
        measured.scale = REFERENCE_S / ((kernel[0] + after) / 2)
        kernel[0] = after
        return measured
    return one


def _low(values: List[float]) -> float:
    """The 25th percentile: sessions the machine slowed less than most.

    A session's host time is its own cost plus what the machine's noise
    added; scaling removes slow phases that the kernel saw too, this
    removes the bursts it did not."""
    from workloads import percentile
    return percentile(values, 25)


def run_session(factory, seed: int, part: int, trace=None) -> Measured:
    """Set up one session and drive it; ``trace`` folds the window."""
    from layers import OTHER
    gc.collect()
    session = factory(seed, part)
    perf = time.perf_counter
    t0 = perf()
    session.setup()
    t1 = perf()
    before = session.gateway_counts()
    if trace is not None:
        trace.sim = session.cloud.sim
        trace.reset()
        trace.enter(OTHER)
    t2 = perf()
    session.drive()
    t3 = perf()
    if trace is not None:
        trace.window_s = trace.exit()
        trace.sim = None
    after = session.gateway_counts()
    gateway = tuple(b - a for a, b in zip(before, after))
    return Measured(session, t1 - t0, t3 - t2, gateway)


def retained_bytes(factory, seed: int) -> Tuple[Dict[str, int], int]:
    """Bytes retained per layer over the memory window of one session
    run under tracemalloc (never timed); returns (by layer, requests)."""
    from layers import retained_by_layer
    gc.collect()
    session = factory(seed)
    session.setup()
    own = tracemalloc.Filter(False, tracemalloc.__file__)
    snapshots = []

    def snapshot() -> None:
        gc.collect()
        snapshots.append(tracemalloc.take_snapshot().filter_traces([own]))

    tracemalloc.start()
    try:
        requests = session.drive_memory(snapshot)
    finally:
        tracemalloc.stop()
    return retained_by_layer(*snapshots), requests


def _check_sessions(run: Run, sessions: List[Measured]) -> List[Measured]:
    """Tally and check sessions; returns the first session of each part.

    Sessions of one part ran the same inputs, so they must agree exactly.
    """
    firsts: Dict[int, Measured] = {}
    for s in sessions:
        run.attempted += s.attempted
        run.failed += s.unexpected
        for error in s.errors:
            run.check(False, f"part {s.part}: {error}")
        first = firsts.setdefault(s.part, s)
        run.check(s.digest == first.digest,
                  f"part {s.part}: sessions disagree: digest {s.digest} "
                  f"!= {first.digest}")
        run.check(s.events == first.events,
                  f"part {s.part}: sessions disagree: {s.events} != "
                  f"{first.events} events")
        run.check(s.max_lag == 0.0,
                  f"part {s.part}: open-loop generator ran "
                  f"{s.max_lag!r}s late")
    return [firsts[part] for part in sorted(firsts)]


def _digest(parts: List[Measured]) -> str:
    """One fingerprint of the simulated outcomes of every part."""
    blob = ",".join(p.digest for p in parts)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def end_to_end(run: Run, factory, seed: int, seconds: float) -> None:
    """The untraced run: every end-to-end metric."""
    from workloads import percentile
    sessions: List[Measured] = []
    start = time.perf_counter()
    one = _scaled()
    while len(sessions) < factory.parts \
            or time.perf_counter() - start < seconds:
        sessions.append(one(run_session, factory, seed,
                            len(sessions) % factory.parts))
    parts = _check_sessions(run, sessions)
    run.metric("host_us_per_req",
               _low([s.host_us_per_req * s.scale for s in sessions]), "us")
    run.metric("host_us_p50",
               _low([statistics.median(s.host_samples) * 1e6 * s.scale
                     for s in sessions]), "us")
    attempted = sum(p.attempted for p in parts)
    ok = sum(p.ok for p in parts)
    latencies = [x for p in parts for x in p.sim_latencies]
    run.metric("events_per_req", sum(p.events for p in parts) / attempted,
               "events/req")
    retained, window = retained_bytes(factory, seed)
    run.metric("retained_bytes_per_req", sum(retained.values()) / window,
               "B/req")
    run.metric("setup_s",
               statistics.median(s.setup_s * s.scale for s in sessions), "s")
    run.metric("sim_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    run.metric("sim_p99_ms", percentile(latencies, 99) * 1e3, "ms")
    run.metric("goodput_rps", ok / sum(p.sim_span for p in parts), "1/s")
    run.metric("ok_frac", ok / attempted, "ratio")
    print(f"host time scale: median {statistics.median(s.scale for s in sessions):.4f}"
          f"; unscaled host_us_per_req "
          f"{_low([s.host_us_per_req for s in sessions]):.2f}")
    print(f"sessions {len(sessions)} over {factory.parts} input parts, "
          f"{parts[0].attempted} requests each; host samples per "
          f"session {len(parts[0].host_samples)}; simulated latencies "
          f"{len(latencies)} (completed ok)")
    for p in parts:
        if p.tally is not None:
            print(f"part {p.part} outcomes {p.tally}; generator lag "
                  f"max {p.max_lag!r} s")
    print(f"digest {_digest(parts)}")


def per_layer(run: Run, factory, seed: int, seconds: float) -> None:
    """The traced run: every per-layer metric."""
    from layers import LAYERS, OTHER, PROBE, SIM_TIMED, LayerTrace, installed
    untraced: List[Measured] = []
    traced: List[Measured] = []
    totals: Optional[LayerTrace] = None
    self_s = dict.fromkeys(LAYERS + (OTHER, PROBE), 0.0)
    start = time.perf_counter()
    one = _scaled()

    def run_traced(part: int, trace: LayerTrace) -> Measured:
        with installed(trace):
            return run_session(factory, seed, part, trace)

    while len(traced) < MIN_TRACED_PAIRS \
            or time.perf_counter() - start < seconds:
        part = len(traced) % factory.parts
        untraced.append(one(run_session, factory, seed, part))
        trace = LayerTrace()
        measured = one(run_traced, part, trace)
        traced.append(measured)
        for layer, value in trace.self_s.items():
            self_s[layer] += value * measured.scale
        spent = sum(trace.self_s.values())
        run.check(trace.depth == 0, "activation stack not empty")
        run.check(abs(spent - trace.window_s) <= 1e-6 * trace.window_s,
                  f"layer self times sum to {spent!r}s, window "
                  f"{trace.window_s!r}s")
        run.check(abs(trace.window_s - measured.window_s)
                  <= 0.01 * measured.window_s,
                  f"fold window {trace.window_s!r}s vs measured "
                  f"{measured.window_s!r}s")
        if totals is None:
            totals = trace
        else:
            for attr in ("calls", "counts", "sim_s"):
                mine, theirs = getattr(totals, attr), getattr(trace, attr)
                for key, value in theirs.items():
                    mine[key] += value
            totals.window_s += trace.window_s
    # Traced and untraced sessions of one part must agree exactly.
    parts = _check_sessions(run, untraced + traced)

    requests = sum(s.attempted for s in traced)
    per_req = 1.0 / requests
    for layer in LAYERS + (OTHER, PROBE):
        run.metric(f"{layer}.host_self_us", self_s[layer] * per_req * 1e6,
                   "us/req")
    counts, calls, sim_s = totals.counts, totals.calls, totals.sim_s
    run.metric("engine.events", sum(s.events for s in traced) * per_req,
               "events/req")
    run.metric("scheduler.invokes", counts["scheduler.invokes"] * per_req,
               "count/req")
    run.metric("scheduler.attempts_per_invoke",
               counts["scheduler.attempts"]
               / max(counts["scheduler.invokes"], 1), "ratio")
    for layer in ("placement", "metrics", "health"):
        run.metric(f"{layer}.calls", calls[layer] * per_req, "count/req")
    acquires = counts["faas.acquires"]
    run.metric("faas.acquires", acquires * per_req, "count/req")
    run.metric("faas.warm_hit_ratio",
               (acquires - counts["faas.cold_starts"]) / acquires
               if acquires else 0.0, "ratio")
    for name in ("network.transfers", "storage.reads", "storage.writes",
                 "kernel.capability_checks", "trace.spans",
                 "attribution.roots"):
        run.metric(name, counts[name] * per_req, "count/req")
    run.metric("network.bytes", counts["network.bytes"] * per_req, "B/req")
    for name in SIM_TIMED:
        run.metric(f"{name}_ms", sim_s[name] * per_req * 1e3, "ms/req")
    for i, name in enumerate(("admitted", "throttled", "shed")):
        run.metric(f"gateway.{name}",
                   sum(s.gateway[i] for s in traced) * per_req, "count/req")
    untraced_us = _low([s.host_us_per_req * s.scale for s in untraced])
    traced_us = _low([s.host_us_per_req * s.scale for s in traced])
    run.metric("tracing.untraced_us_per_req", untraced_us, "us/req")
    run.metric("tracing.traced_us_per_req", traced_us, "us/req")
    run.metric("tracing.overhead_ratio", traced_us / untraced_us, "ratio")
    retained, window = retained_bytes(factory, seed)
    for layer in LAYERS + (OTHER,):
        run.metric(f"{layer}.retained_bytes", retained[layer] / window,
                   "B/req")
    print(f"pairs {len(traced)} (untraced + traced), "
          f"{traced[0].attempted} requests each; {len(trace.spans)} spans "
          f"kept of the last traced session")
    print(f"digest {_digest(parts)} of parts "
          f"{[p.part for p in parts]} (traced = untraced)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned seed 77)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of measured sessions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    factory = WORKLOADS[args.workload]
    run = Run()
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    if args.trace:
        per_layer(run, factory, seed, args.seconds)
    else:
        end_to_end(run, factory, seed, args.seconds)
    for name, metric in run.metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for error in run.errors[:20]:
        print(f"CHECK FAILED: {error}")
    result = run.result()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
