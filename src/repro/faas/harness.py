"""Deterministic controller test harness.

Controller claims ("converges", "does not oscillate", "scales to
zero", "cuts cold starts") are only testable when the workload is
reproducible to the event. This harness scripts arrival schedules as
:class:`Phase` sequences — ramps, bursts, die-offs — through the
pinned-seed simulator against a single-function PCSI deployment under
a chosen autoscale policy, and returns a :class:`HarnessResult` whose
every field is a pure function of ``(seed, phases, policy)``: the same
inputs replay bit-identically, so tests assert exact counts and the
regression gate pins them in a baseline artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Generator, List, Sequence

from ..sim.rng import RandomStream
from .platforms import MICROVM, PlatformSpec

#: Compute per request at the default harness scale: 2.5e10 device ops
#: is ~0.5 s on one core — long enough that bursts overlap into real
#: concurrency, short enough that schedules stay fast to simulate.
DEFAULT_WORK_OPS = 2.5e10


@dataclass(frozen=True)
class Phase:
    """One segment of an arrival schedule.

    ``rate`` is requests/second (0 = idle valley). Arrivals are evenly
    spaced (``1/rate`` apart, first at the phase boundary) unless
    ``jitter`` asks for seeded Poisson gaps — still deterministic for a
    fixed harness seed, just not evenly spaced.
    """

    duration: float
    rate: float = 0.0
    jitter: bool = False

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")
        if self.rate < 0:
            raise ValueError("negative rate")


def burst_phases(bursts: int, burst_duration: float, burst_rate: float,
                 gap: float, jitter: bool = False) -> List[Phase]:
    """``bursts`` square bursts separated by idle valleys of ``gap``
    seconds (the E13-shaped duty cycle, at test scale)."""
    if bursts < 1:
        raise ValueError("need at least one burst")
    phases: List[Phase] = []
    for i in range(bursts):
        phases.append(Phase(burst_duration, burst_rate, jitter=jitter))
        if i < bursts - 1:
            phases.append(Phase(gap, 0.0))
    return phases


def ramp_phases(start_rate: float, end_rate: float, steps: int,
                step_duration: float) -> List[Phase]:
    """A staircase ramp from ``start_rate`` to ``end_rate``."""
    if steps < 2:
        raise ValueError("a ramp needs at least two steps")
    span = end_rate - start_rate
    return [Phase(step_duration, start_rate + span * i / (steps - 1))
            for i in range(steps)]


@dataclass
class HarnessResult:
    """Everything a controller test asserts on, from one replay."""

    policy: str
    seed: int
    duration: float
    offered: int
    completed: int
    failed: int
    cold_starts: int
    warm_hits: int
    prewarmed: int
    queue_waits: int
    final_size: int
    peak_size: int
    held_seconds: float
    latencies: List[float]
    ticks: int
    #: Full registry export (dict) and its canonical JSON text — the
    #: determinism tests byte-compare the text between replays.
    metrics: dict = field(repr=False)
    metrics_text: str = field(repr=False)
    #: Live handles for deeper assertions (not part of equality).
    cloud: object = field(repr=False, compare=False)
    pool: object = field(repr=False, compare=False)
    controller: object = field(repr=False, compare=False)

    @property
    def mean_latency(self) -> float:
        return (sum(self.latencies) / len(self.latencies)
                if self.latencies else 0.0)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of completed-request latency."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def behavior_signature(self) -> dict:
        """The externally observable outcome of the run — two runs with
        identical signatures served the workload identically (used to
        pin FixedPolicy against the no-controller baseline)."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "cold_starts": self.cold_starts,
            "warm_hits": self.warm_hits,
            "queue_waits": self.queue_waits,
            "latencies": list(self.latencies),
            "held_seconds": self.held_seconds,
        }


class ControllerHarness:
    """Replay a scripted arrival schedule under one autoscale policy.

    ``policy`` is anything :func:`~repro.faas.controller
    .make_policy_factory` accepts, or ``None`` for an unstarted
    controller (the pre-controller system, byte for byte).
    """

    def __init__(self, policy=None, *, seed: int = 43,
                 interval: float = 1.0, keep_alive: float = 30.0,
                 work_ops: float = DEFAULT_WORK_OPS,
                 platform: PlatformSpec = MICROVM,
                 racks: int = 2, nodes_per_rack: int = 4,
                 memory_gb: float = 1.0):
        self.policy = policy
        self.seed = seed
        self.interval = interval
        self.keep_alive = keep_alive
        self.work_ops = work_ops
        self.platform = platform
        self.racks = racks
        self.nodes_per_rack = nodes_per_rack
        self.memory_gb = memory_gb

    # -- schedule ----------------------------------------------------------
    def arrival_times(self, phases: Sequence[Phase]) -> List[float]:
        """Absolute arrival times for a schedule (pure; pinned seed)."""
        rng = RandomStream(self.seed, "harness-arrivals")
        times: List[float] = []
        start = 0.0
        for phase in phases:
            if phase.rate > 0:
                if phase.jitter:
                    offset = rng.exponential(1.0 / phase.rate)
                    while offset < phase.duration:
                        times.append(start + offset)
                        offset += rng.exponential(1.0 / phase.rate)
                else:
                    gap = 1.0 / phase.rate
                    count = int(round(phase.duration * phase.rate))
                    times.extend(start + k * gap for k in range(count))
            start += phase.duration
        return times

    # -- execution ---------------------------------------------------------
    def run(self, phases: Sequence[Phase]) -> HarnessResult:
        """Replay the schedule; returns the deterministic result."""
        # Imported here, not at module top: the kernel facade imports
        # the controller from this package, so a module-level import
        # would be circular.
        from ..cluster.resources import cpu_task
        from ..core.functions import FunctionImpl
        from ..core.system import PCSICloud

        phases = list(phases)
        if not phases:
            raise ValueError("empty schedule")
        cloud = PCSICloud(racks=self.racks,
                          nodes_per_rack=self.nodes_per_rack,
                          gpu_nodes_per_rack=0, seed=self.seed,
                          keep_alive=self.keep_alive,
                          autoscale=self.policy,
                          autoscale_interval=self.interval)
        fn = cloud.define_function(
            "fn", [FunctionImpl(
                "impl", self.platform,
                cpu_task(cpus=1, memory_gb=self.memory_gb),
                work_ops=self.work_ops)])
        client = cloud.client_node()
        latencies: List[float] = []
        failures: List[int] = []

        def request(i: int) -> Generator:
            t0 = cloud.sim.now
            try:
                yield from cloud.invoke(client, fn)
            except Exception:  # noqa: BLE001 - open loop absorbs failures
                failures.append(i)
                return
            latencies.append(cloud.sim.now - t0)

        times = self.arrival_times(phases)

        def arrivals() -> Generator:
            for i, at in enumerate(times):
                if at > cloud.sim.now:
                    yield cloud.sim.timeout(at - cloud.sim.now)
                cloud.sim.spawn(request(i), name=f"req-{i}")

        cloud.sim.spawn(arrivals(), name="harness-arrivals")
        # Runs until the queue drains: all requests served, idle
        # executors reaped / shrunk away, controller parked.
        cloud.run()

        pool = next(iter(cloud.scheduler._pools.values()))
        now = cloud.sim.now
        cloud.metrics.sample(now)
        metrics = cloud.metrics.to_json(now)
        controller = cloud.autoscaler
        policy_name = "none" if self.policy is None else \
            getattr(controller._pools[0][1], "name", "custom")
        return HarnessResult(
            policy=policy_name, seed=self.seed, duration=now,
            offered=len(times), completed=len(latencies),
            failed=len(failures),
            cold_starts=pool.cold_starts, warm_hits=pool.warm_hits,
            prewarmed=pool.prewarmed, queue_waits=pool.queue_waits,
            final_size=pool.size + pool.provisioning,
            peak_size=pool.peak_size,
            held_seconds=pool.live_executor_seconds(now),
            latencies=latencies,
            ticks=controller.ticks,
            metrics=metrics,
            metrics_text=json.dumps(metrics, sort_keys=True),
            cloud=cloud, pool=pool, controller=controller)
