"""The flat record view equals records snapshotted at span end.

The tracer stores each finished span once and builds its
:class:`TraceRecord` on read. :class:`SnapshotTracer` additionally
builds every record the moment its entry joins the flat log — a span's
end (or a deferred tree's keep), or a ``record()`` call — which is the
record a copy-at-end log would hold. Over real traffic (the pinned E4
run, a traced chaos run, an error-tail sampled run) the view and the
snapshots must agree on iteration, every ``select``, ``sum_field`` and
``len``. Equality after the run also pins the contract the view rests
on: kernel code never mutates a span's attributes after it ends.
"""

import pytest

from repro.bench import regress
from repro.bench.experiments import e21_chaos
from repro.cluster.failures import ChaosInjector
from repro.cluster.resources import cpu_task
from repro.core import system
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM
from repro.sim.resources import Store
from repro.sim.rng import RandomStream
from repro.sim.trace import (
    ErrorTailSampler,
    ProbabilisticSampler,
    STATUS_ERROR,
    Span,
    TraceRecord,
    Tracer,
)


class _SnapshotLog(list):
    """The flat log, plus a record snapshotted per appended entry."""

    def __init__(self):
        super().__init__()
        self.snapshots = []

    def append(self, entry):
        super().append(entry)
        if isinstance(entry, Span):
            entry = TraceRecord(entry.end, entry.category,
                                dict(entry.attributes))
        self.snapshots.append(entry)


class SnapshotTracer(Tracer):
    """A tracer that also keeps records built when entries are logged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._records = _SnapshotLog()

    @property
    def snapshots(self):
        return self._records.snapshots


@pytest.fixture
def snapshot_clouds(monkeypatch):
    """Every PCSICloud built in the test gets a SnapshotTracer; the
    list collects them."""
    monkeypatch.setattr(system, "Tracer", SnapshotTracer)
    clouds = []
    init = PCSICloud.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        clouds.append(self)

    monkeypatch.setattr(PCSICloud, "__init__", capturing_init)
    return clouds


def assert_view_matches_snapshots(tracer):
    snaps = tracer.snapshots
    assert snaps, "the run recorded nothing"
    assert len(tracer) == len(snaps)
    assert list(tracer) == snaps
    for category in {r.category for r in snaps}:
        assert tracer.select(category) == [
            r for r in snaps if r.category == category]
    assert tracer.sum_field("net.transfer", "nbytes") == sum(
        r.payload.get("nbytes", 0.0)
        for r in snaps if r.category == "net.transfer")


def test_pinned_e4_view_matches_snapshots(snapshot_clouds):
    cloud, _, _ = regress.run_pinned_e4()
    tracer = cloud.tracer
    assert isinstance(tracer, SnapshotTracer)
    assert tracer.sum_field("net.transfer", "nbytes") > 0
    assert_view_matches_snapshots(tracer)


def test_chaos_run_view_matches_snapshots(snapshot_clouds):
    cfg = e21_chaos.SHORT
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=cfg.seed, keep_alive=600.0, trace=True)
    client = cloud.client_node()
    cloud.scheduler.control_node = client
    sim = cloud.sim
    ChaosInjector(sim, cloud.topology, cloud.network,
                  metrics=cloud.metrics).execute(
        e21_chaos._plan_for(cloud, cfg, client))
    fn = cloud.define_function("worker", [
        FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                     work_ops=cfg.work_ops)])
    policy = RetryPolicy(max_attempts=cfg.max_attempts, jitter=cfg.jitter,
                         rng=RandomStream(cfg.seed, "retry"),
                         hedge_delay=cfg.hedge_delay)
    rng = RandomStream(cfg.seed, "view-load")
    nodes = [n.node_id for n in cloud.topology.nodes]
    inbox = Store(sim)

    def request():
        try:
            yield from cloud.invoke(client, fn, retry=policy,
                                    deadline=cfg.deadline)
        except Exception:  # noqa: BLE001 - open loop absorbs failures
            pass

    def load():
        while sim.now < cfg.horizon:
            yield sim.timeout(rng.exponential(1.0 / cfg.rate))
            sim.spawn(request())
            # A record()-only entry per arrival, between span records.
            cloud.tracer.record(sim.now, "load.arrival", client=client)
            # Fire-and-forget chatter: some sends land in crashed or
            # lossy links and are dropped.
            for _ in range(4):
                cloud.network.send(client, rng.choice(nodes), inbox,
                                   "ping", nbytes=64)

    sim.spawn(load())
    cloud.run()
    assert cloud.metrics.counters().get("network.dropped", 0.0) > 0
    tracer = cloud.tracer
    categories = [r.category for r in tracer.snapshots]
    # record()-only categories interleave with span records...
    arrivals = [i for i, c in enumerate(categories) if c == "load.arrival"]
    middle = arrivals[len(arrivals) // 2]
    assert "invoke" in categories[:middle]
    assert "invoke" in categories[middle:]
    # ...and failed requests left error spans carrying their cause.
    errored = [s for s in tracer.spans() if s.status == STATUS_ERROR]
    assert errored and all("cause" in s.attributes for s in errored)
    assert_view_matches_snapshots(tracer)


def test_error_tail_run_view_matches_snapshots(snapshot_clouds):
    cloud = PCSICloud(racks=1, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=5, keep_alive=600.0, trace=True,
                      sampler=ErrorTailSampler(ProbabilisticSampler(
                          0.2, seed=5)))
    rng = RandomStream(5, "error-tail-body")

    def body(ctx):
        yield from ctx.compute(1e7)
        if rng.uniform() < 0.15:
            raise RuntimeError("body failed")
        return {"ok": True}

    fn = cloud.define_function("flaky", [
        FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                     work_ops=1e7)], body=body)
    client = cloud.client_node()

    def flow():
        for _ in range(200):
            try:
                yield from cloud.invoke(client, fn)
            except RuntimeError:
                pass

    cloud.run_process(flow())
    tracer = cloud.tracer
    assert tracer.deferred_kept > 0
    assert tracer.deferred_dropped > 0
    assert tracer.sampled_roots > 0
    assert_view_matches_snapshots(tracer)
