"""Pinned-seed throughput microbench: simulated events/sec, invokes/sec.

The ROADMAP north star is million-invoke runs; the bottleneck is the
simulator hot loop — engine heap scheduling and event churn
(``sim/engine.py``), span allocation (``sim/trace.py``), and label-set
lookups (``sim/metrics_registry.py``). This module measures that loop
with a pinned workload that drives all three layers the way a traced,
metered invoke storm does, and reports both a *speed* number
(events/sec, invokes/sec) and a *behavior* fingerprint (a digest of
every virtual-time outcome, span tally, and counter value).

**Machine-relative gating.** Absolute events/sec numbers are useless as
a CI bar — runners disagree by integer factors. So :func:`run_benchmarks`
also times the repo's calibration kernel (``perfbench/reference.py``, a
fixed pure-Python event loop that shares no code with the program)
around every hot-loop repeat, and reports ``hot_loop_events_per_kernel``:
each repeat's events/sec times the mean of the kernel runs just before
and after it, i.e. the hot-loop events processed in the time one kernel
run takes, as the median over the repeats. Host speed largely cancels
out of each product. The regress gate
(``python -m repro.bench.regress --only throughput``) requires

* ``hot_loop_events_per_kernel >= min_hot_loop_events_per_kernel``
  (the committed floor is 5x what the pre-refactor kernel read), and
* byte-identical fingerprints against the committed baseline
  (``benchmarks/baselines/throughput.json``), so the hot path can
  only get faster, never different.

**Hot-loop workload** (all delays precomputed from a seeded
:class:`~repro.sim.rng.RandomStream` outside the timed region):

* *sessions* — traced invokes: a root span + child span + sub-second
  timeout per iteration, plus a labeled counter add and histogram
  observe. This is the shape of every request in a metered run.
* *fanout* — PyWren-style burst-parallel joins: parents spawn a wide
  wave of children and ``all_of`` them; child delays increase within a
  wave, so completions arrive in list order (staged pipelines do this).
* *error tail* — sessions under ``ErrorTailSampler``: most trees are
  provisionally recorded and then dropped, a few erroring ones are
  kept. Exercises deferred-tree resolution and span recycling.
* *background* — long sleepers that keep the schedule heap deep, and a
  sprinkle of interrupts for priority-0 coverage.

**Invoke bench** — warm invokes through the full PCSI stack
(`PCSICloud`), batched through ``invoke_many`` unless ``serial=True``
picks the serial ``invoke`` loop. The fingerprint covers per-invoke
latency/placement outcomes and the metrics counters, so the batched
entry point is pinned byte-identical to the serial loop.

**Histogram-backend probe** — ``--histogram-backend sketch`` runs the
hot loop twice, once per histogram backend, and reports retained
histogram bytes for both: the exact backend keeps
every observed sample (unbounded, O(n) per series), the sketch backend
a bounded bucket table (~1% quantile error). This mode is a standalone
memory/speed probe — it never feeds the regress gate, whose
fingerprints pin the exact backend's byte-identical summaries.

Usage::

    python -m repro.bench.throughput            # print JSON report
    python -m repro.bench.throughput --repeat 5 # median of 5 repeats
    python -m repro.bench.throughput --serial   # serial invoke loop
    python -m repro.bench.throughput --histogram-backend sketch
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..cluster.resources import cpu_task
from ..core.functions import FunctionImpl
from ..core.system import PCSICloud
from ..faas.platforms import WASM
from ..sim.engine import Interrupt, Simulator
from ..sim.metrics_registry import LabeledMetricsRegistry
from ..sim.rng import RandomStream
from ..sim.trace import Tracer

#: Seed for the hot-loop delay/label streams.
ENGINE_SEED = 4242
#: Seed for the invoke-bench cloud.
INVOKE_SEED = 77

#: Hot-loop workload shape (pinned; changing any of these invalidates
#: the committed baseline fingerprints).
SESSIONS = 120
SESSION_ITERS = 250
SESSION_FNS = 8
SESSION_NODES = 8
FANOUT_PARENTS = 12
FANOUT_ROUNDS = 3
FANOUT_WIDTH = 800
TAIL_SESSIONS = 200
TAIL_ITERS = 10
TAIL_ERROR_EVERY = 9          # every 9th tail session raises
SLEEPER_PROCS = 4_000
SLEEPER_NAPS = 2
INTERRUPT_PAIRS = 100

#: Invoke bench shape.
INVOKE_WARMUP = 25
INVOKE_COUNT = 1500
INVOKE_WORK_OPS = 5e5

#: The calibration kernel, loaded by path from the checkout root (as
#: ``regress.BASELINE_DIR`` finds ``benchmarks/``). It is the repo's one
#: speed yardstick and shares no code with the program.
CALIBRATION_KERNEL = Path(__file__).resolve().parents[3] / "perfbench" \
    / "reference.py"


def _digest(payload: Any) -> str:
    """Deterministic 16-hex digest of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _TailPolicy:
    """Head-sampling policy of the bench: record everything except
    ``tail`` roots, which are deferred (kept only on error)."""

    @staticmethod
    def decide(name: str, attributes: Dict[str, Any]) -> str:
        return "defer" if name == "tail" else "sample"


# ------------------------------------------------------------- workload
class _HotLoopPlan:
    """Every random draw of the workload, made ahead of the clock.

    The timed region must measure the kernel, not the RNG, and the
    fingerprint must depend only on virtual-time behavior — so delays
    and label choices are tabulated up front from the pinned seed.
    """

    def __init__(self, seed: int = ENGINE_SEED):
        rng = RandomStream(seed, "throughput-hot-loop")
        self.session_delays = [
            [rng.uniform(1e-4, 3e-2) for _ in range(SESSION_ITERS)]
            for _ in range(SESSIONS)]
        self.session_fn = [
            [f"fn-{int(rng.uniform(0, SESSION_FNS))}"
             for _ in range(SESSION_ITERS)]
            for _ in range(SESSIONS)]
        self.session_node = [
            [f"node-{int(rng.uniform(0, SESSION_NODES))}"
             for _ in range(SESSION_ITERS)]
            for _ in range(SESSIONS)]
        # Child delays increase within a wave: completions land in
        # list order, as they do for a staged pipeline's workers.
        self.fanout_delays = [
            [[rng.uniform(1e-5, 1e-4) + i * 2e-6
              for i in range(FANOUT_WIDTH)]
             for _ in range(FANOUT_ROUNDS)]
            for _ in range(FANOUT_PARENTS)]
        # Tail traffic runs for the whole experiment (per-iteration
        # delays comparable to a session's total), the way error-tail
        # sampling behaves in a real run: trees are dropped while the
        # span store is large, not just during warmup.
        self.tail_delays = [
            [rng.uniform(1e-3, 0.7) for _ in range(TAIL_ITERS)]
            for _ in range(TAIL_SESSIONS)]
        self.sleeper_delays = [
            [rng.uniform(5.0, 120.0) for _ in range(SLEEPER_NAPS)]
            for _ in range(SLEEPER_PROCS)]
        self.interrupt_delays = [rng.uniform(0.1, 30.0)
                                 for _ in range(INTERRUPT_PAIRS)]


def _session(sim, tracer, metrics, delays, fns, nodes, tag: int,
             done: List[str]) -> Generator:
    """A traced, metered request loop: the per-invoke hot path."""
    span = tracer.span
    counter = metrics.counter
    histogram = metrics.histogram
    timeout = sim.timeout
    for i in range(len(delays)):
        d = delays[i]
        fn = fns[i]
        node = nodes[i]
        with span("invoke", fn=fn, node=node):
            with span("exec", category="exec", fn=fn):
                yield timeout(d)
        counter("requests_total", fn=fn, node=node).add(1)
        histogram("request_latency", fn=fn).observe(d)
    done.append(f"session:{tag}:{sim.now!r}")


def _fanout_child(sim, metrics, delay: float, wave: str) -> Generator:
    yield sim.timeout(delay)
    metrics.counter("fanout_tasks", wave=wave).add(1)
    return 1


def _fanout_parent(sim, tracer, metrics, waves, tag: int,
                   done: List[str]) -> Generator:
    """Burst-parallel fan-out: spawn a wave, join it with ``all_of``."""
    total = 0
    wave_label = f"p{tag}"
    for round_delays in waves:
        with tracer.span("fanout", wave=wave_label):
            children = [sim.spawn(_fanout_child(sim, metrics, d, wave_label))
                        for d in round_delays]
            values = yield sim.all_of(children)
            total += sum(values)
    done.append(f"fanout:{tag}:{total}:{sim.now!r}")


def _tail_session(sim, tracer, delays, tag: int,
                  done: List[str]) -> Generator:
    """Sessions under error-tail sampling: trees are provisionally
    recorded; clean ones (the vast majority) are dropped at root end."""
    fail = tag % TAIL_ERROR_EVERY == 0
    errors = 0
    for i, d in enumerate(delays):
        try:
            with tracer.span("tail", session=str(tag)):
                with tracer.span("tail.step"):
                    yield sim.timeout(d)
                if fail and i == len(delays) - 1:
                    raise RuntimeError("tail failure")
        except RuntimeError:
            errors += 1
    done.append(f"tail:{tag}:{errors}:{sim.now!r}")


def _sleeper(sim, naps) -> Generator:
    """Long naps: a deep schedule heap under the short-delay churn."""
    for d in naps:
        yield sim.timeout(d)


def _victim(sim, interrupt_cls, tag: int, done: List[str]) -> Generator:
    try:
        yield sim.timeout(10_000.0)
    except interrupt_cls as intr:
        done.append(f"intr:{tag}:{intr.cause}:{sim.now!r}")


def _interrupter(sim, delay: float, victim) -> Generator:
    yield sim.timeout(delay)
    victim.interrupt(cause="bench")


def histogram_state_bytes(metrics) -> int:
    """Retained bytes of histogram sample state across the registry.

    Exact instruments are charged for their sample list and every
    float in it; sketch instruments for their bucket table. Exemplar
    reservoirs (identical in both modes) are not counted.
    """
    total = 0
    for family in metrics._families.values():
        if family.kind != "histogram":
            continue
        for _, hist in family.instruments():
            sketch = getattr(hist, "sketch", None)
            if sketch is not None:
                buckets = sketch._buckets
                total += sys.getsizeof(buckets)
                total += sum(map(sys.getsizeof, buckets.keys()))
                total += sum(map(sys.getsizeof, buckets.values()))
            else:
                samples = hist._samples
                total += sys.getsizeof(samples)
                total += sum(map(sys.getsizeof, samples))
    return total


def run_hot_loop_bench(plan: Optional[_HotLoopPlan] = None,
                       histogram_backend: str = "exact"
                       ) -> Dict[str, Any]:
    """Time the pinned hot-loop workload.

    ``histogram_backend="sketch"`` is the standalone memory probe's
    opt-in and changes the fingerprint, so it never feeds the gate
    path.
    """
    if plan is None:
        plan = _HotLoopPlan()
    sim = Simulator()
    tracer = Tracer(enabled=True).bind(sim)
    tracer.set_sampler(_TailPolicy())
    metrics = LabeledMetricsRegistry(histogram_backend=histogram_backend)
    done: List[str] = []

    for i in range(SESSIONS):
        sim.spawn(_session(sim, tracer, metrics, plan.session_delays[i],
                           plan.session_fn[i], plan.session_node[i],
                           i, done))
    for i in range(FANOUT_PARENTS):
        sim.spawn(_fanout_parent(sim, tracer, metrics,
                                 plan.fanout_delays[i], i, done))
    for i in range(TAIL_SESSIONS):
        sim.spawn(_tail_session(sim, tracer, plan.tail_delays[i],
                                i, done))
    for i in range(SLEEPER_PROCS):
        sim.spawn(_sleeper(sim, plan.sleeper_delays[i]))
    for i in range(INTERRUPT_PAIRS):
        victim = sim.spawn(_victim(sim, Interrupt, i, done))
        sim.spawn(_interrupter(sim, plan.interrupt_delays[i], victim))

    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start

    events = sim._seq
    fingerprint = _digest({
        "done": done,
        "events": events,
        "now": repr(sim.now),
        "spans": tracer.span_count,
        "records": sum(1 for span in tracer.spans() if span.finished),
        "sampled": tracer.sampled_roots,
        "tail_kept": tracer.deferred_kept,
        "tail_dropped": tracer.deferred_dropped,
        "counters": metrics.counters(),
        "histograms": metrics.histograms(),
    })
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "final_now": sim.now,
        "spans": tracer.span_count,
        "fingerprint": fingerprint,
        "histogram_backend": histogram_backend,
        "histogram_bytes": histogram_state_bytes(metrics),
    }


# ---------------------------------------------------------------- invoke
def _bench_body(ctx) -> Generator:
    yield from ctx.compute(INVOKE_WORK_OPS)
    return {"ok": True}


def _invoke_driver(cloud: PCSICloud, fn_ref, count: int,
                   use_batch: bool) -> Generator:
    client = cloud.client_node()
    requests = [{"i": i} for i in range(count)]
    if use_batch:
        results = yield from cloud.invoke_many(client, fn_ref, {}, requests)
    else:
        results = []
        for request in requests:
            result = yield from cloud.invoke(client, fn_ref, {}, request)
            results.append(result)
    return len(results)


def run_invoke_bench(serial: bool = False) -> Dict[str, Any]:
    """Time warm invokes through the full stack; pin their outcomes."""
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=INVOKE_SEED)
    fn_ref = cloud.define_function(
        "bench",
        [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=0.5),
                      work_ops=INVOKE_WORK_OPS)],
        body=_bench_body)
    # Warm the pool so the timed batch measures the steady state.
    cloud.run_process(_invoke_driver(cloud, fn_ref, INVOKE_WARMUP,
                                     use_batch=False))
    history_mark = len(cloud.scheduler.history)
    seq_mark = cloud.sim._seq

    start = time.perf_counter()
    completed = cloud.run_process(_invoke_driver(cloud, fn_ref,
                                                 INVOKE_COUNT,
                                                 use_batch=not serial))
    wall = time.perf_counter() - start

    events = cloud.sim._seq - seq_mark
    outcomes = [[inv.fn_name, inv.impl_name, inv.executor_node,
                 bool(inv.cold_start), repr(inv.submitted_at),
                 repr(inv.latency)]
                for inv in cloud.scheduler.history[history_mark:]]
    fingerprint = _digest({"outcomes": outcomes,
                           "counters": cloud.metrics.counters(),
                           "now": repr(cloud.sim.now)})
    return {
        "invokes": completed,
        "events": events,
        "wall_s": wall,
        "invokes_per_sec": completed / wall if wall > 0 else 0.0,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "batched": not serial,
        "fingerprint": fingerprint,
    }


def _calibration_timer() -> Callable[[], float]:
    """The calibration kernel's ``measure``: host seconds per run."""
    spec = importlib.util.spec_from_file_location(
        "calibration_kernel", CALIBRATION_KERNEL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.measure


def run_benchmarks(repeat: int = 2, serial: bool = False) -> Dict[str, Any]:
    """Run the hot loop and the invoke bench, calibrated to this host.

    The calibration kernel runs twice just before and twice just after
    every hot-loop repeat; the mean of those four runs is the host
    speed at that repeat, and the repeat's events/sec times it is the
    repeat's ``hot_loop_events_per_kernel``. The median repeat (the
    upper middle one for an even ``repeat``) is reported, with its
    kernel mean as ``kernel_s``: pairing each repeat with the kernel
    runs around it keeps host drift between the two out of the
    product. The invoke bench keeps its fastest of ``repeat`` runs.
    Fingerprints must agree across repeats; disagreement means the
    workload is nondeterministic and is reported as an error.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    measure_kernel = _calibration_timer()
    plan = _HotLoopPlan()
    paired: List[Tuple[float, float, Dict[str, Any]]] = []
    for _ in range(repeat):
        kernel = measure_kernel() + measure_kernel()
        hot = run_hot_loop_bench(plan)
        kernel_s = (kernel + measure_kernel() + measure_kernel()) / 4
        paired.append((hot["events_per_sec"] * kernel_s, kernel_s, hot))
    invoke_runs = [run_invoke_bench(serial=serial) for _ in range(repeat)]

    hot_runs = [hot for _product, _kernel_s, hot in paired]
    for label, runs in (("hot-loop", hot_runs), ("invoke", invoke_runs)):
        prints = {r["fingerprint"] for r in runs}
        if len(prints) != 1:
            raise RuntimeError(
                f"{label} fingerprints diverged across repeats: "
                f"{sorted(prints)} — the workload is nondeterministic")

    paired.sort(key=lambda p: p[0])
    product, kernel_s, engine = paired[len(paired) // 2]
    invoke = max(invoke_runs, key=lambda r: r["invokes_per_sec"])
    return {
        "engine": engine,
        "invoke": invoke,
        "kernel_s": kernel_s,
        "hot_loop_events_per_kernel": product,
        "repeat": repeat,
    }


def run_backend_probe(repeat: int = 1) -> Dict[str, Any]:
    """The memory probe: the hot loop under both histogram backends.

    Runs the identical pinned workload with exact and sketch
    histograms and reports retained histogram bytes plus
    events/sec for each (fastest of ``repeat`` runs per backend).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    plan = _HotLoopPlan()
    runs: Dict[str, Dict[str, Any]] = {}
    for backend in ("exact", "sketch"):
        candidates = [run_hot_loop_bench(plan, histogram_backend=backend)
                      for _ in range(repeat)]
        runs[backend] = max(candidates,
                            key=lambda r: r["events_per_sec"])
    exact_bytes = runs["exact"]["histogram_bytes"]
    sketch_bytes = runs["sketch"]["histogram_bytes"]
    return {
        "exact": runs["exact"],
        "sketch": runs["sketch"],
        "histogram_bytes_exact": exact_bytes,
        "histogram_bytes_sketch": sketch_bytes,
        "memory_ratio": (exact_bytes / sketch_bytes
                         if sketch_bytes else 0.0),
        "repeat": repeat,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: print the benchmark report as JSON."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=2,
                        help="timing repeats; the hot loop reports "
                             "its median, the invoke bench its fastest "
                             "(default 2)")
    parser.add_argument("--serial", action="store_true",
                        help="time the serial invoke() loop instead "
                             "of invoke_many")
    parser.add_argument("--histogram-backend", default="exact",
                        choices=("exact", "sketch"),
                        help="'sketch' runs the standalone memory "
                             "probe (both backends) instead of the "
                             "gated report")
    args = parser.parse_args(argv)
    if args.histogram_backend == "sketch":
        report = run_backend_probe(repeat=args.repeat)
    else:
        report = run_benchmarks(repeat=args.repeat, serial=args.serial)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
