"""E21 (extension) — end-to-end failure semantics under seeded chaos.

Two clients drive the same workload through the same deterministically
faulty cluster (crash/recovery churn, gray-slow nodes, short
partitions, lossy links — all expanded from one
:class:`~repro.cluster.failures.ChaosPlan` seed):

* the **naive** arm invokes with no deadline and no retries — the
  pre-PR failure semantics;
* the **hardened** arm sets a per-request deadline and a
  :class:`~repro.core.retry.RetryPolicy` with jittered backoff, a
  shared retry budget, and hedged invokes.

Measured: goodput (successful outcomes / offered), the time to *any*
outcome per request (the hardened arm must never block a client past
its deadline), and p99 latency. A gray-failure-only mini-run isolates
the hedging win: p99 with and without a speculative duplicate, plus
the duplicate-work overhead paid for it. Every run is bit-identical
replayable from the plan seed — the replay check re-runs the hardened
arm and compares outcome-by-outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Tuple

from ...cluster.failures import ChaosInjector, ChaosPlan
from ...cluster.resources import cpu_task, server_node
from ...cluster.topology import build_cluster
from ...core.functions import FunctionImpl
from ...core.retry import RetryBudget, RetryPolicy
from ...core.system import PCSICloud
from ...faas.platforms import WASM
from ...sim.deadline import DeadlineExceededError
from ...sim.engine import Simulator
from ...sim.rng import RandomStream
from ..result import ExperimentResult
from ..tables import fmt_ms


@dataclass(frozen=True)
class ChaosRunConfig:
    """One pinned chaos comparison (shared by E21 and the CI gate)."""

    seed: int = 211
    horizon: float = 30.0
    rate: float = 6.0
    work_ops: float = 1e10
    deadline: float = 2.0
    max_attempts: int = 4
    jitter: float = 0.5
    hedge_delay: float = 0.4
    crash_rate: float = 0.4
    downtime_mean: float = 4.0
    gray_rate: float = 0.15
    gray_slowdown: Tuple[float, float] = (4.0, 10.0)
    gray_duration_mean: float = 6.0
    partition_rate: float = 0.08
    partition_duration_mean: float = 2.0
    loss_prob: float = 0.01


#: The full experiment configuration.
FULL = ChaosRunConfig()
#: A shorter pinned run for the CI chaos gate. Crash churn is turned
#: up so the hardened arm's win shows even inside the short horizon.
SHORT = ChaosRunConfig(horizon=12.0, rate=5.0, crash_rate=0.8,
                       downtime_mean=5.0)

#: Slack allowed past the deadline for outcome delivery (the expiry
#: event fires exactly at the deadline; this only absorbs float noise).
DEADLINE_EPS = 1e-6


def _plan_for(cloud: PCSICloud, cfg: ChaosRunConfig,
              client: str) -> ChaosPlan:
    """The pinned fault schedule, sparing the control/data plane."""
    protected = tuple(sorted(set(cloud.data.store.replica_nodes)
                             | {client}))
    return ChaosPlan(seed=cfg.seed, horizon=cfg.horizon,
                     crash_rate=cfg.crash_rate,
                     downtime_mean=cfg.downtime_mean,
                     gray_rate=cfg.gray_rate,
                     gray_slowdown=cfg.gray_slowdown,
                     gray_duration_mean=cfg.gray_duration_mean,
                     partition_rate=cfg.partition_rate,
                     partition_duration_mean=cfg.partition_duration_mean,
                     loss_prob=cfg.loss_prob,
                     protected=protected)


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    idx = min(int(q * len(sorted_vals)), len(sorted_vals) - 1)
    return sorted_vals[idx]


def run_chaos_arm(cfg: ChaosRunConfig, hardened: bool) -> Dict:
    """Run one arm under the pinned chaos plan; returns its outcomes."""
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=0,
                      seed=cfg.seed, keep_alive=600.0)
    client = cloud.client_node()
    cloud.scheduler.control_node = client  # control plane stays up
    plan = _plan_for(cloud, cfg, client)
    injector = ChaosInjector(cloud.sim, cloud.topology, cloud.network,
                             metrics=cloud.metrics)
    events = injector.execute(plan)

    fn = cloud.define_function(
        "worker", [FunctionImpl("wasm", WASM,
                                cpu_task(cpus=1, memory_gb=1),
                                work_ops=cfg.work_ops)])
    policy = None
    if hardened:
        policy = RetryPolicy(max_attempts=cfg.max_attempts,
                             jitter=cfg.jitter,
                             rng=RandomStream(cfg.seed, "retry"),
                             budget=RetryBudget(),
                             hedge_delay=cfg.hedge_delay)

    outcomes: List[Tuple[str, float]] = []  # (kind, time-to-outcome)

    def request(_i: int) -> Generator:
        start = cloud.sim.now
        try:
            if hardened:
                yield from cloud.invoke(client, fn, retry=policy,
                                        deadline=cfg.deadline)
            else:
                yield from cloud.invoke(client, fn)
        except DeadlineExceededError:
            outcomes.append(("deadline", cloud.sim.now - start))
            return
        except Exception as exc:  # noqa: BLE001 - open loop absorbs
            outcomes.append((type(exc).__name__, cloud.sim.now - start))
            return
        outcomes.append(("ok", cloud.sim.now - start))

    arrivals = RandomStream(cfg.seed, "arrivals")

    def arrival_loop() -> Generator:
        i = 0
        while cloud.sim.now < cfg.horizon:
            yield cloud.sim.timeout(arrivals.exponential(1.0 / cfg.rate))
            if cloud.sim.now >= cfg.horizon:
                return
            cloud.sim.spawn(request(i), name=f"req-{i}")
            i += 1

    cloud.sim.spawn(arrival_loop(), name="chaos-load")
    cloud.run()

    ok_lat = sorted(t for kind, t in outcomes if kind == "ok")
    all_lat = sorted(t for _kind, t in outcomes)
    counters = cloud.metrics.counters()
    ok = len(ok_lat)
    offered = len(outcomes)
    return {
        "arm": "hardened" if hardened else "naive",
        "offered": offered,
        "ok": ok,
        "deadline_exceeded": sum(1 for k, _ in outcomes
                                 if k == "deadline"),
        "errors": offered - ok,
        "goodput": ok / max(offered, 1),
        "p50_s": _percentile(ok_lat, 0.50),
        "p99_s": _percentile(ok_lat, 0.99),
        "max_time_to_outcome_s": all_lat[-1] if all_lat else 0.0,
        "retries": counters.get("invoke.retries", 0.0),
        "hedges": counters.get("invoke.hedge.launched", 0.0),
        "hedge_wins": counters.get("invoke.hedge.won", 0.0),
        "failovers": counters.get("store.failover", 0.0),
        "faults_injected": len(events),
        "outcomes": outcomes,
    }


def run_hedge_arm(cfg: ChaosRunConfig, hedge: bool) -> Dict:
    """Gray-failure mini-run: one slow node, hedge on or off.

    Capacity-one nodes force the speculative duplicate onto a *different*
    machine, isolating the tail-cutting effect from placement luck.
    """
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=3,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))
    cloud = PCSICloud(sim, seed=cfg.seed, keep_alive=600.0, topology=topo,
                      data_replicas=1)
    client = cloud.client_node()
    cloud.scheduler.control_node = client
    fn = cloud.define_function(
        "gray", [FunctionImpl("wasm", WASM,
                              cpu_task(cpus=1, memory_gb=1),
                              work_ops=cfg.work_ops)])
    policy = RetryPolicy(max_attempts=1,
                         hedge_delay=cfg.hedge_delay if hedge else None)
    latencies: List[float] = []
    requests = 20

    def flow() -> Generator:
        # Warm one executor, then gray out its node: every later warm
        # hit lands on the slow machine unless hedging routes around it.
        yield from cloud.invoke(client, fn)
        warm_node = cloud.scheduler.last_invocation("gray").executor_node
        injector = ChaosInjector(cloud.sim, cloud.topology, cloud.network,
                                 metrics=cloud.metrics)
        injector.gray_node(warm_node, at=cloud.sim.now,
                           slowdown=cfg.gray_slowdown[1])
        for _ in range(requests):
            start = cloud.sim.now
            yield from cloud.invoke(client, fn, retry=policy)
            latencies.append(cloud.sim.now - start)

    cloud.run_process(flow())
    counters = cloud.metrics.counters()
    latencies.sort()
    return {
        "arm": "hedged" if hedge else "unhedged",
        "requests": requests,
        "p50_s": _percentile(latencies, 0.50),
        "p99_s": _percentile(latencies, 0.99),
        "hedges": counters.get("invoke.hedge.launched", 0.0),
        "hedge_wins": counters.get("invoke.hedge.won", 0.0),
        "duplicate_fraction": counters.get("invoke.hedge.launched", 0.0)
        / requests,
    }


def run_chaos_arms(cfg: ChaosRunConfig) -> Dict:
    """Both chaos arms plus the hedge mini-run and a replay check.

    This is the unit the CI chaos gate pins: integer outcome counts per
    arm, the hardened-beats-naive win conditions, and outcome-identical
    replay from the same seed.
    """
    naive = run_chaos_arm(cfg, hardened=False)
    hardened = run_chaos_arm(cfg, hardened=True)
    replay = run_chaos_arm(cfg, hardened=True)
    unhedged = run_hedge_arm(cfg, hedge=False)
    hedged = run_hedge_arm(cfg, hedge=True)
    return {
        "config": {
            "seed": cfg.seed, "horizon_s": cfg.horizon,
            "rate_rps": cfg.rate, "deadline_s": cfg.deadline,
            "max_attempts": cfg.max_attempts,
            "hedge_delay_s": cfg.hedge_delay,
        },
        "naive": naive,
        "hardened": hardened,
        "unhedged": unhedged,
        "hedged": hedged,
        "replay_identical": hardened["outcomes"] == replay["outcomes"],
    }


def run_chaos() -> ExperimentResult:
    """Regenerate the chaos goodput/availability comparison."""
    res = run_chaos_arms(FULL)
    naive, hardened = res["naive"], res["hardened"]
    unhedged, hedged = res["unhedged"], res["hedged"]

    rows = []
    for r in (naive, hardened):
        rows.append((r["arm"], r["offered"], r["ok"], r["errors"],
                     f"{r['goodput']:.1%}", fmt_ms(r["p50_s"]),
                     fmt_ms(r["p99_s"]),
                     fmt_ms(r["max_time_to_outcome_s"])))
    for r in (unhedged, hedged):
        rows.append((f"gray/{r['arm']}", r["requests"], r["requests"], 0,
                     "100.0%", fmt_ms(r["p50_s"]), fmt_ms(r["p99_s"]),
                     "-"))
    return ExperimentResult(
        experiment_id="E21",
        title="Seeded chaos: naive vs hardened failure semantics "
              "(deadlines + retries + hedging + failover)",
        headers=("Arm", "Offered", "OK", "Errors", "Goodput", "p50",
                 "p99", "Max outcome"),
        rows=rows,
        claims={
            "naive_goodput": naive["goodput"],
            "hardened_goodput": hardened["goodput"],
            "hardened_max_outcome_s": hardened["max_time_to_outcome_s"],
            "deadline_s": FULL.deadline,
            "deadline_eps_s": DEADLINE_EPS,
            "hedges": hardened["hedges"],
            "replay_identical": res["replay_identical"],
            "unhedged_p99_s": unhedged["p99_s"],
            "hedged_p99_s": hedged["p99_s"],
            "hedge_duplicate_fraction": hedged["duplicate_fraction"],
            "faults_injected": hardened["faults_injected"],
        },
        notes=[
            "Deadlines bound every client's time to an outcome; retries "
            "with jittered backoff and a shared budget convert transient "
            "faults into latency without stampeding; hedged invokes cut "
            "the gray-failure tail at a bounded duplicate-work cost; "
            "replica failover keeps eventual reads available through "
            "crashes. The whole schedule replays bit-identically from "
            "one seed.",
        ])
