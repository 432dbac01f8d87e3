"""Invoke-path counters as the metrics registry collects them.

Warm pools, the scheduler and the admission gateway keep their own
tallies of ``warmpool.*``, ``scheduler.placement`` and
``gateway.{admitted,throttled,shed}``; the registry reads them through
collectors when it is read. These tests pin what the registry exports
for one seeded cloud that reaches every one of those counts (warm,
cold and queued acquires, queue waits, prewarms skipped and failed,
reaps and shrinks under a started autoscale controller, placements over
two functions and two impls, admits, throttles and sheds), with a
sampler running throughout. They also check that a read changes
nothing, that each bare aggregate is its owners' total, and that one
family can be filled by several pools but not twice by the same one.
"""

import hashlib
import json

import pytest

from repro.cluster import cpu_task
from repro.cluster.topology import build_cluster
from repro.core import FunctionImpl, PCSICloud
from repro.faas import CONTAINER, WASM
from repro.faas.autoscale import WarmPool
from repro.faas.controller import QueueDepthPolicy
from repro.net.gateway import GatewayConfig, ShedError, ThrottledError
from repro.sim import LabeledMetricsRegistry, Simulator

#: sha256 of ``to_json(now)`` (sorted keys) plus ``to_line_protocol(now)``
#: after :func:`_run`, computed with every count written to the registry
#: at its event; the collected tallies must export the same bytes.
EXPORT_DIGEST = (
    "eb914057c152360cc59e24d5317bea44461b724d30fccebf20879eebbd03e900")

SEED = 23
FNS = ("alpha", "beta")
IMPLS = ("wasm", "box")


def _body(ctx):
    yield from ctx.compute(2e7)
    return {"ok": True}


def _cloud():
    cloud = PCSICloud(
        racks=2, nodes_per_rack=2, gpu_nodes_per_rack=0, seed=SEED,
        keep_alive=5.0, autoscale=QueueDepthPolicy(stretch=1.0),
        autoscale_interval=1.0,
        admission=GatewayConfig(rate_per_tenant=40.0, burst=8,
                                max_concurrency=2, max_queue=2))
    cloud.gateway.register_tenant("steady", rate=1000.0, burst=100)
    fns = {}
    for name in FNS:
        fns[name] = cloud.define_function(
            name, [FunctionImpl("wasm", WASM,
                                cpu_task(cpus=1, memory_gb=0.5),
                                work_ops=2e7),
                   FunctionImpl("box", CONTAINER,
                                cpu_task(cpus=1, memory_gb=0.5),
                                work_ops=2e7)],
            body=_body)
    return cloud, fns


def _run():
    """One seeded run over every collected count; returns the cloud and
    the outcome of each request."""
    cloud, fns = _cloud()
    sim = cloud.sim
    client = cloud.client_node()
    sim.spawn(cloud.metrics.sampler_process(sim, 0.25),
              inherit_context=False)
    gateway = cloud.gateway
    outcomes = []

    def submit(fn, impl, tenant, deadline=None):
        try:
            yield from gateway.submit(client, fns[fn], tenant=tenant,
                                      impl_name=impl, deadline=deadline)
            outcomes.append("ok")
        except (ThrottledError, ShedError) as err:
            outcomes.append(err.cause)

    def wave(specs):
        procs = [sim.spawn(submit(*spec)) for spec in specs]
        yield sim.all_of(procs)

    def flow():
        # Placements over both functions and both impls: cold, then warm.
        for _ in range(2):
            for fn in FNS:
                for impl in IMPLS:
                    yield from submit(fn, impl, "steady")
        # One executor at most for alpha/wasm: concurrent callers queue.
        capped = cloud.scheduler._pools[("alpha", "wasm")]
        capped.max_executors = 1
        yield from wave([("alpha", "wasm", "steady")] * 2)
        # Prewarming a pool at its cap is skipped.
        yield from capped.prewarm()
        # A burst past the token bucket and the gateway queue: throttles
        # and queue_full sheds.
        yield from wave([("beta", "wasm", "bursty")] * 9)
        # A deadline budget the static estimate cannot cover.
        config = gateway.config
        gateway.config = GatewayConfig(default_estimate_s=0.5)
        yield from submit("alpha", "box", "steady", deadline=0.01)
        gateway.config = config
        # Two executors for alpha/box, then one caller at a time: the
        # second sandbox idles past its keep-alive while the controller's
        # target has fallen to one, so the reaper collects it.
        yield from wave([("alpha", "box", "steady")] * 2)
        for _ in range(16):
            yield from submit("alpha", "box", "steady")
            yield sim.timeout(0.5)
        # A prewarm no node can host fails; then one lands.
        huge = cloud.scheduler._pools[("beta", "box")]
        resources = huge.resources
        huge.resources = cpu_task(cpus=1000, memory_gb=0.5)
        yield from huge.prewarm()
        huge.resources = resources
        yield from huge.prewarm()
        # Idle long enough for the keep-alive reaper and the
        # controller's scale-to-zero.
        yield sim.timeout(20.0)
        yield from submit("beta", "wasm", "steady")
        yield sim.timeout(20.0)

    cloud.run_process(flow())
    return cloud, outcomes


def _exports(cloud):
    now = cloud.sim.now
    return (json.dumps(cloud.metrics.to_json(now), sort_keys=True)
            + cloud.metrics.to_line_protocol(now))


def test_the_run_reaches_every_collected_count():
    cloud, outcomes = _run()
    assert sorted(set(outcomes)) == ["deadline", "ok", "queue_full", "rate"]
    counters = cloud.metrics.counters()
    for outcome in ("warm", "cold", "queued"):
        assert counters[
            f"warmpool.acquire{{outcome={outcome},pool=alpha/wasm}}"] > 0
    for family in ("queue_waits", "prewarm", "prewarm_skipped",
                   "prewarm_failed", "reaped", "shrunk"):
        assert counters[f"warmpool.{family}"] > 0
    for fn in FNS:
        for impl in IMPLS:
            assert counters[f"scheduler.placement{{fn={fn},impl={impl}}}"] \
                > 0
    assert counters["gateway.throttled{cause=rate,tenant=bursty}"] > 0
    assert counters["gateway.shed{cause=queue_full,tenant=bursty}"] > 0
    assert counters["gateway.shed{cause=deadline,tenant=steady}"] > 0
    assert counters["gateway.admitted{tenant=bursty}"] > 0
    assert cloud.autoscaler.ticks > 0


def test_exports_are_pinned():
    cloud, _ = _run()
    digest = hashlib.sha256(_exports(cloud).encode()).hexdigest()
    assert digest == EXPORT_DIGEST


def test_a_read_changes_nothing():
    cloud, _ = _run()
    metrics = cloud.metrics
    first = _exports(cloud)
    assert _exports(cloud) == first
    before = metrics.counters()
    metrics.counter("warmpool.acquire")
    metrics.gauges(cloud.sim.now)
    assert metrics.counters() == before


def test_each_bare_aggregate_is_its_owners_total():
    cloud, _ = _run()
    counters = cloud.metrics.counters()
    pools = list(cloud.scheduler._pools.values())
    assert counters["warmpool.acquire"] == sum(
        pool.warm_hits + pool.cold_starts for pool in pools)
    for pool in pools:
        def count(family, **labels):
            key = ",".join(f"{k}={v}" for k, v in sorted(
                {**labels, "pool": pool.name}.items()))
            return counters.get(f"warmpool.{family}{{{key}}}", 0.0)

        assert count("acquire", outcome="warm") \
            + count("acquire", outcome="queued") == pool.warm_hits
        assert count("acquire", outcome="queued") == pool.queued_hits
        assert count("acquire", outcome="cold") == pool.cold_starts
        assert count("queue_waits") == pool.queue_waits
        assert count("prewarm", platform=pool.platform.name) \
            == pool.prewarmed
        for family in ("reaped", "shrunk", "prewarm_skipped",
                       "prewarm_failed"):
            assert count(family) == getattr(pool, family)
    for family in ("queue_waits", "reaped", "shrunk", "prewarm_skipped",
                   "prewarm_failed"):
        assert counters[f"warmpool.{family}"] == sum(
            getattr(pool, family) for pool in pools)
    assert counters["warmpool.prewarm"] == sum(
        pool.prewarmed for pool in pools)
    assert counters["scheduler.placement"] == sum(
        cloud.scheduler.placements.values()) == len(
            cloud.scheduler.history)
    gateway = cloud.gateway
    for event in ("admitted", "throttled", "shed"):
        assert counters[f"gateway.{event}"] == getattr(gateway, event)


# -- several pools on one registry ---------------------------------------

def _pool(sim, topo, metrics, name):
    return WarmPool(sim, name, WASM, cpu_task(cpus=1, memory_gb=0.5),
                    placer=lambda *a: topo.nodes[0], metrics=metrics)


def test_differently_named_pools_sum_in_the_aggregate():
    sim = Simulator()
    topo = build_cluster(sim, racks=1, nodes_per_rack=2,
                         gpu_nodes_per_rack=0)
    metrics = LabeledMetricsRegistry()
    pools = [_pool(sim, topo, metrics, name) for name in ("a", "b")]

    def flow(pool, count):
        for _ in range(count):
            executor = yield from pool.acquire()
            pool.release(executor)

    sim.run_until_event(sim.spawn(flow(pools[0], 3)))
    sim.run_until_event(sim.spawn(flow(pools[1], 2)))
    counters = metrics.counters()
    assert counters["warmpool.acquire{outcome=cold,pool=a}"] == 1.0
    assert counters["warmpool.acquire{outcome=warm,pool=a}"] == 2.0
    assert counters["warmpool.acquire{outcome=cold,pool=b}"] == 1.0
    assert counters["warmpool.acquire{outcome=warm,pool=b}"] == 1.0
    assert counters["warmpool.acquire"] == 5.0


def test_a_second_pool_with_the_same_name_is_refused():
    sim = Simulator()
    topo = build_cluster(sim, racks=1, nodes_per_rack=2,
                         gpu_nodes_per_rack=0)
    metrics = LabeledMetricsRegistry()
    _pool(sim, topo, metrics, "a")
    with pytest.raises(ValueError):
        _pool(sim, topo, metrics, "a")
