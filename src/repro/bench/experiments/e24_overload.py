"""E24 (extension) — the front door under overload: admission vs none.

Open-loop multi-tenant traffic (equal-weight tenants, Poisson
arrivals) sweeps offered load from 0.5x to 4x the cluster's measured
service capacity against two front doors over the identical offered
schedule (per-tenant arrival RNGs fork off one seed, independent of
the system under test):

* **none** — :class:`~repro.net.gateway.NoAdmission`: every request
  goes straight into the scheduler with its deadline. Past saturation
  the warm-pool FIFO fills with requests that are already doomed;
  executors keep grabbing nearly-expired work and getting interrupted
  mid-compute, so goodput *collapses* rather than plateaus — the
  classic congestion-collapse curve.
* **gateway** — :class:`~repro.net.gateway.AdmissionGateway`: per-
  tenant token buckets cap admission near capacity, WFQ shares the
  dispatch slots, and deadline-aware shedding rejects requests whose
  budget cannot cover the estimated service time (fed by the
  :class:`~repro.bench.attribution.LatencyAttributor`). Excess load is
  refused in microseconds at the door; the executors keep doing useful
  work, so goodput *holds* at capacity through 4x.

Measured per sweep point: goodput (deadline-met completions / horizon),
shed/throttle/miss counts, and Jain's fairness index over per-tenant
completions. Two mini-runs complete the story: a **hog** run (one
tenant offering 2x total capacity next to three polite tenants) shows
per-tenant buckets protecting the polite tenants' goodput where the
unprotected FIFO starves them, and a **scale** run drives a seeded
1000-tenant Poisson/bursty/diurnal mix through the gateway. A
differential run pins ``NoAdmission`` identical to the seed
``cloud.invoke`` path (an outcome digest and the exact event count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ...cluster.resources import cpu_task, server_node
from ...cluster.topology import build_cluster
from ...core.functions import FunctionImpl
from ...core.system import PCSICloud
from ...faas.platforms import WASM
from ...net.gateway import GatewayConfig, ShedError, ThrottledError
from ...sim.deadline import DeadlineExceededError
from ...sim.engine import Simulator
from ...sim.rng import RandomStream
from ...workloads.arrivals import OpenLoopDriver, TenantMix, TenantSpec
from ..result import ExperimentResult, outcome_record


@dataclass(frozen=True)
class OverloadRunConfig:
    """One pinned overload sweep (shared by E24 and the CI gate)."""

    seed: int = 241
    tenants: int = 8
    #: Measured drain capacity of the pinned cluster (8 single-CPU
    #: nodes, 2.5e9-op wasm function ~107 ms warm with interference).
    capacity_rps: float = 74.0
    multipliers: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    horizon: float = 8.0
    deadline: float = 0.5
    work_ops: float = 2.5e9
    #: Gateway policy: fair share of capacity per tenant, small burst,
    #: dispatch bounded just above the executor count so the pool
    #: queue stays shallow and the gateway queue absorbs the wait.
    burst: float = 5.0
    max_concurrency: int = 10
    max_queue: int = 32
    default_estimate_s: float = 0.11
    estimate_margin: float = 1.0
    #: Hog mini-run: 1 aggressive + 3 polite tenants.
    hog_horizon: float = 5.0
    #: Scale smoke run: a seeded heterogeneous thousand-tenant mix.
    scale_tenants: int = 1000
    scale_multiplier: float = 2.0
    scale_horizon: float = 2.0


#: The full experiment configuration.
FULL = OverloadRunConfig()
#: A shorter pinned sweep for the CI overload gate.
SHORT = OverloadRunConfig(horizon=3.0, hog_horizon=3.0,
                          scale_horizon=1.0)

#: Win-condition bars (also pinned into the baseline doc).
MIN_GATED_FRACTION = 0.80   # gateway goodput at 4x vs its own peak
MAX_UNPROTECTED_FRACTION = 0.50  # unprotected at 4x vs its own peak
MIN_JAIN = 0.90             # fairness among equal-weight tenants at 4x


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal shares.

    ``(sum x)^2 / (n * sum x^2)``; an empty or all-zero allocation is
    vacuously fair (1.0).
    """
    vals = [float(v) for v in values]
    square_sum = sum(v * v for v in vals)
    if not vals or square_sum == 0.0:
        return 1.0
    return sum(vals) ** 2 / (len(vals) * square_sum)


def _build_cloud(cfg: OverloadRunConfig, gated: bool) -> PCSICloud:
    """The pinned small cluster: 8 single-CPU nodes, one per executor.

    The gated arm traces with attribution on so the gateway's
    deadline shedding runs off *observed* warm latency once the
    attributor has samples; the unprotected arm needs neither.
    """
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=4,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))
    admission: Optional[GatewayConfig] = None
    if gated:
        admission = GatewayConfig(
            rate_per_tenant=cfg.capacity_rps / cfg.tenants,
            burst=cfg.burst,
            max_concurrency=cfg.max_concurrency,
            max_queue=cfg.max_queue,
            default_estimate_s=cfg.default_estimate_s,
            estimate_margin=cfg.estimate_margin,
        )
    cloud = PCSICloud(sim, seed=cfg.seed, keep_alive=600.0,
                      topology=topo, data_replicas=1,
                      trace=gated, attribution=gated,
                      admission=admission)
    cloud.scheduler.control_node = cloud.client_node()
    return cloud


def _define_front(cloud: PCSICloud, cfg: OverloadRunConfig):
    return cloud.define_function(
        "front", [FunctionImpl("wasm", WASM,
                               cpu_task(cpus=1, memory_gb=1),
                               work_ops=cfg.work_ops)])


def _drive(cloud: PCSICloud, cfg: OverloadRunConfig, mix: TenantMix,
           horizon: float) -> Tuple[OpenLoopDriver, Dict[str, int]]:
    """Offer ``mix`` through the cloud's front door; returns the
    driver and the outcome tally. The arrival schedule depends only on
    (seed, mix), never on the system under test."""
    fn = _define_front(cloud, cfg)
    client = cloud.client_node()
    driver = OpenLoopDriver(cloud.sim, RandomStream(cfg.seed, "arrivals"),
                            mix, horizon)
    tally = {"ok": 0, "deadline_miss": 0, "throttled": 0, "shed": 0,
             "error": 0}

    def make_request(tenant: str, _i: int) -> Generator:
        try:
            yield from cloud.gateway.submit(client, fn, tenant=tenant,
                                            deadline=cfg.deadline)
        except ThrottledError:
            tally["throttled"] += 1
            raise
        except ShedError:
            tally["shed"] += 1
            raise
        except DeadlineExceededError:
            tally["deadline_miss"] += 1
            raise
        except Exception:  # noqa: BLE001 - tallied, then re-raised
            tally["error"] += 1
            raise
        else:
            tally["ok"] += 1

    driver.start(make_request)
    cloud.run()
    return driver, tally


def run_overload_arm(cfg: OverloadRunConfig, multiplier: float,
                     gated: bool) -> Dict[str, Any]:
    """One sweep point: equal-weight tenants at ``multiplier``x
    capacity through one front door."""
    cloud = _build_cloud(cfg, gated)
    mix = TenantMix.uniform(cfg.tenants,
                            multiplier * cfg.capacity_rps / cfg.tenants)
    driver, tally = _drive(cloud, cfg, mix, cfg.horizon)
    per_tenant_ok = [driver.per_tenant[t].completed
                     for t in sorted(driver.per_tenant)]
    entered = tally["ok"] + tally["deadline_miss"]
    return {
        "arm": "gateway" if gated else "none",
        "multiplier": multiplier,
        "offered": driver.offered,
        "ok": tally["ok"],
        "deadline_miss": tally["deadline_miss"],
        "throttled": tally["throttled"],
        "shed": tally["shed"],
        "errors": tally["error"],
        "goodput_rps": tally["ok"] / cfg.horizon,
        "deadline_compliance": tally["ok"] / max(entered, 1),
        "per_tenant_ok": per_tenant_ok,
        "jain": jain_index(per_tenant_ok),
    }


def run_hog_arm(cfg: OverloadRunConfig, gated: bool) -> Dict[str, Any]:
    """One aggressive tenant next to three polite ones.

    The hog offers 2x the whole cluster's capacity by itself; each
    polite tenant offers half its fair share. With per-tenant buckets
    the hog is throttled at the door and the polite tenants' goodput
    is untouched; through the unprotected FIFO the hog's backlog
    starves everyone.
    """
    cloud = _build_cloud(cfg, gated)
    cap = cfg.capacity_rps
    mix = TenantMix(
        [TenantSpec("hog", lambda _t: 2.0 * cap)]
        + [TenantSpec(f"polite{i}", lambda _t: cap / 8.0)
           for i in range(3)])
    if gated:
        # Explicit registration: every tenant gets the same fair share
        # (cap/4) regardless of what it offers.
        for tenant in mix.tenants:
            cloud.gateway.register_tenant(tenant, rate=cap / 4.0,
                                          burst=cfg.burst)
    driver, tally = _drive(cloud, cfg, mix, cfg.hog_horizon)
    polite_offered = sum(driver.per_tenant[t].offered
                         for t in mix.tenants if t != "hog")
    polite_ok = sum(driver.per_tenant[t].completed
                    for t in mix.tenants if t != "hog")
    return {
        "arm": "gateway" if gated else "none",
        "offered": driver.offered,
        "ok": tally["ok"],
        "hog_ok": driver.per_tenant["hog"].completed,
        "polite_offered": polite_offered,
        "polite_ok": polite_ok,
        "polite_goodput": polite_ok / max(polite_offered, 1),
    }


def run_scale_smoke(cfg: OverloadRunConfig) -> Dict[str, Any]:
    """A seeded 1000-tenant heterogeneous mix through the gateway.

    Not a comparison — an existence proof that the front door handles
    thousands of concurrent open-loop arrival processes, pinned by
    exact counts in the overload gate.
    """
    cloud = _build_cloud(cfg, gated=True)
    per_tenant = (cfg.scale_multiplier * cfg.capacity_rps
                  / cfg.scale_tenants)
    mix = TenantMix.seeded(cfg.scale_tenants, per_tenant,
                           RandomStream(cfg.seed, "mix"), period=10.0)
    driver, tally = _drive(cloud, cfg, mix, cfg.scale_horizon)
    return {
        "tenants": cfg.scale_tenants,
        "offered": driver.offered,
        "ok": tally["ok"],
        "deadline_miss": tally["deadline_miss"],
        "throttled": tally["throttled"],
        "shed": tally["shed"],
        "tenants_served": sum(1 for s in driver.per_tenant.values()
                              if s.completed),
    }


def _differential_run(cfg: OverloadRunConfig,
                      through_gateway: bool) -> Dict[str, Any]:
    """One pinned mini-workload; returns its outcome digest and event
    count.

    The same 40-request Poisson schedule (alternating with and without
    a deadline) runs either straight through ``cloud.invoke`` or
    through the :class:`NoAdmission` pass-through. The digest covers
    every outcome kind and exact latency plus the final clock, and the
    exact event count sits beside it, so a single extra event anywhere
    breaks equality without hiding whether an outcome moved.
    """
    cloud = _build_cloud(cfg, gated=False)
    fn = _define_front(cloud, cfg)
    client = cloud.client_node()
    rng = RandomStream(cfg.seed, "fingerprint")
    outcomes: List[Tuple[str, str]] = []

    def request(i: int) -> Generator:
        start = cloud.sim.now
        deadline = cfg.deadline if i % 2 else None
        try:
            if through_gateway:
                yield from cloud.gateway.submit(client, fn, tenant="t0",
                                                deadline=deadline)
            else:
                yield from cloud.invoke(client, fn, deadline=deadline)
        except Exception as exc:  # noqa: BLE001 - outcome recorded
            outcomes.append((type(exc).__name__,
                             repr(cloud.sim.now - start)))
            return
        outcomes.append(("ok", repr(cloud.sim.now - start)))

    def arrival_loop() -> Generator:
        for i in range(40):
            yield cloud.sim.timeout(rng.exponential(1.0 / 20.0))
            cloud.sim.spawn(request(i), name=f"fp-{i}")

    cloud.sim.spawn(arrival_loop(), name="fp-load")
    cloud.run()
    return outcome_record(outcomes, cloud.sim)


def run_overload_arms(cfg: OverloadRunConfig) -> Dict[str, Any]:
    """The whole comparison: sweep, hog run, scale smoke, differential.

    This is the unit the CI overload gate pins: exact counts per sweep
    point, the goodput-retention win conditions, Jain fairness among
    equal tenants, and NoAdmission's byte-identity to the seed path.
    """
    sweep: Dict[str, Dict[str, Any]] = {"gateway": {}, "none": {}}
    for gated in (False, True):
        arm = "gateway" if gated else "none"
        for mult in cfg.multipliers:
            sweep[arm][f"{mult:g}"] = run_overload_arm(cfg, mult, gated)

    def peak(arm: str) -> float:
        return max(pt["goodput_rps"] for pt in sweep[arm].values())

    top = f"{max(cfg.multipliers):g}"
    gated_frac = (sweep["gateway"][top]["goodput_rps"]
                  / max(peak("gateway"), 1e-12))
    none_frac = (sweep["none"][top]["goodput_rps"]
                 / max(peak("none"), 1e-12))
    direct = _differential_run(cfg, through_gateway=False)
    noadmission = _differential_run(cfg, through_gateway=True)
    return {
        "config": {
            "seed": cfg.seed, "tenants": cfg.tenants,
            "capacity_rps": cfg.capacity_rps,
            "multipliers": list(cfg.multipliers),
            "horizon_s": cfg.horizon, "deadline_s": cfg.deadline,
        },
        "sweep": sweep,
        "gated_peak_rps": peak("gateway"),
        "none_peak_rps": peak("none"),
        "gated_fraction_at_top": gated_frac,
        "none_fraction_at_top": none_frac,
        "jain_at_top": sweep["gateway"][top]["jain"],
        "hog_none": run_hog_arm(cfg, gated=False),
        "hog_gateway": run_hog_arm(cfg, gated=True),
        "scale": run_scale_smoke(cfg),
        "direct": direct,
        "noadmission": noadmission,
        "noadmission_identical": direct == noadmission,
    }


def run_overload() -> ExperimentResult:
    """Regenerate the overload-sweep goodput/fairness comparison."""
    res = run_overload_arms(FULL)
    rows = []
    for arm in ("none", "gateway"):
        for key, pt in res["sweep"][arm].items():
            rows.append((arm, f"{key}x", pt["offered"], pt["ok"],
                         pt["shed"], pt["throttled"],
                         pt["deadline_miss"],
                         f"{pt['goodput_rps']:.1f}",
                         f"{pt['jain']:.3f}"))
    hog_n, hog_g = res["hog_none"], res["hog_gateway"]
    return ExperimentResult(
        experiment_id="E24",
        title="Overload sweep at the front door: admission control vs "
              "an unprotected scheduler (0.5x-4x capacity)",
        headers=("Arm", "Load", "Offered", "OK", "Shed", "Throttled",
                 "Missed", "Goodput rps", "Jain"),
        rows=rows,
        claims={
            "gated_fraction_at_top": res["gated_fraction_at_top"],
            "none_fraction_at_top": res["none_fraction_at_top"],
            "min_gated_fraction": MIN_GATED_FRACTION,
            "max_unprotected_fraction": MAX_UNPROTECTED_FRACTION,
            "jain_at_top": res["jain_at_top"],
            "min_jain": MIN_JAIN,
            "noadmission_identical": res["noadmission_identical"],
            "hog_polite_goodput_none": hog_n["polite_goodput"],
            "hog_polite_goodput_gateway": hog_g["polite_goodput"],
            "scale_tenants": res["scale"]["tenants"],
            "scale_offered": res["scale"]["offered"],
            "scale_ok": res["scale"]["ok"],
        },
        notes=[
            "Open-loop arrivals do not slow down when the system "
            "saturates, so past 1x the unprotected scheduler's queue "
            "fills with doomed work and goodput collapses; the "
            "admission gateway refuses excess load at the door "
            "(token buckets, WFQ, deadline-aware shedding) and holds "
            "goodput at capacity through 4x with near-perfect Jain "
            "fairness among equal tenants. Per-tenant buckets also "
            "insulate polite tenants from a hog, and the pass-through "
            "NoAdmission front door is byte-identical to the seed "
            "scheduler path.",
        ])
