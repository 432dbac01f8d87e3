"""The never-fed attributor and the unstarted autoscale controller.

A cloud built without ``attribution=True`` holds ``NO_ATTRIBUTION``, a
plain :class:`LatencyAttributor` bound to a private disabled tracer, and
a cloud built without ``autoscale=`` holds an unstarted
:class:`AutoscaleController`. The scheduler, placement, and gateway
read them exactly as they read live ones; with no observations, every
choice falls out of the same min-samples guards. These tests pin that
the off path picks the fixed hedge delay, the colocate node, and the
configured service-time estimate, that nothing observes or ticks, and
that the guards really are consulted (so no "is it there?" fork can
creep back in unnoticed).
"""

from repro.bench.attribution import NO_ATTRIBUTION, LatencyAttributor
from repro.cluster.resources import cpu_task
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM
from repro.net.gateway import GatewayConfig, ShedError
from repro.sim.trace import Tracer

HEDGE_DELAY = 10.0
ESTIMATE_S = 0.5


def build_cloud(placement="observed"):
    """A traced cloud with attribution and autoscale off, and a
    gateway whose only service-time source is ``default_estimate_s``.
    Its racks mix CPU and GPU nodes, so node classes could differ."""
    return PCSICloud(racks=1, nodes_per_rack=3, gpu_nodes_per_rack=1,
                     data_replicas=1, trace=True, placement=placement,
                     admission=GatewayConfig(rate_per_tenant=1e6,
                                             burst=1e6,
                                             default_estimate_s=ESTIMATE_S))


def drive(cloud):
    """One adaptive-hedged invoke, one admitted and one too-tight
    gateway request; returns (outcomes, shed causes, event count)."""
    fn = cloud.define_function(
        "f", [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                           work_ops=1e8)])
    client = cloud.client_node()
    shed = []

    def flow():
        yield from cloud.invoke(
            client, fn, retry=RetryPolicy(hedge_delay=HEDGE_DELAY,
                                          hedge_mode="adaptive"))
        yield from cloud.gateway.submit(client, fn, tenant="t",
                                        deadline=5.0)
        try:
            yield from cloud.gateway.submit(client, fn, tenant="t",
                                            deadline=ESTIMATE_S / 2)
        except ShedError as exc:
            shed.append(exc.cause)

    cloud.run_process(flow())
    outcomes = [(inv.impl_name, inv.executor_node, bool(inv.cold_start),
                 repr(inv.latency)) for inv in cloud.scheduler.history]
    return outcomes, shed, cloud.sim._seq


class RecordingAttributor(LatencyAttributor):
    """A never-fed attributor that logs every ``samples`` query."""

    def __init__(self, node_class_fn):
        super().__init__(Tracer(enabled=False), node_class_fn=node_class_fn)
        self.asked = []

    def samples(self, fn=None, impl=None, node_class=None):
        self.asked.append((fn, impl, node_class))
        return super().samples(fn, impl, node_class)


def test_no_attribution_never_observes():
    assert not NO_ATTRIBUTION.tracer.enabled
    assert NO_ATTRIBUTION.samples() == 0
    assert NO_ATTRIBUTION.warm_latency("f", "wasm") is None
    assert NO_ATTRIBUTION.tail_latency("f") is None
    assert NO_ATTRIBUTION.cold_overhead("f", "wasm") is None
    assert NO_ATTRIBUTION.node_class_fn("n0") == "all"


def test_off_planes_are_present_and_idle():
    cloud = build_cloud()
    outcomes, shed, _ = drive(cloud)
    assert len(outcomes) == 2
    assert cloud.attributor is NO_ATTRIBUTION
    assert cloud.policy.attributor is NO_ATTRIBUTION
    assert cloud.optimizer.attributor is NO_ATTRIBUTION
    # Spans finished on the cloud's tracer, but nobody folded them.
    assert cloud.tracer.span_count > 0
    assert cloud.tracer._root_listeners == []
    assert NO_ATTRIBUTION.observed_invokes == 0
    # The controller holds every pool but never ran.
    controller = cloud.autoscaler
    assert [pool.name for pool, _ in controller._pools] == ["f/wasm"]
    assert controller.ticks == 0
    assert controller.history == []
    assert controller._process is None
    assert controller._wake is None


def test_off_path_uses_the_static_fallbacks():
    cloud = build_cloud()
    _, shed, _ = drive(cloud)
    hedge, = cloud.tracer.spans(name="hedge")
    assert hedge.attributes["delay"] == HEDGE_DELAY
    assert cloud.gateway.estimated_service_time("f") == ESTIMATE_S
    assert shed == ["deadline"]


def test_observed_placement_without_observations_is_colocate():
    assert drive(build_cloud("observed")) == drive(build_cloud("colocate"))


def test_off_path_consults_the_min_samples_guards():
    """Swap in a recording attributor: hedging, placement, and the
    gateway each ask it for samples, and the run is unchanged."""
    baseline = drive(build_cloud())
    cloud = build_cloud()
    recorder = RecordingAttributor(node_class_fn=cloud._node_class)
    cloud.attributor = recorder
    cloud.policy.attributor = recorder
    assert drive(cloud) == baseline
    # The adaptive hedge asks once and each gateway submit once; the
    # observed placement asks per node class for the cold start.
    assert recorder.asked.count(("f", None, None)) == 3
    assert {(None, None, "cpu"), (None, None, "gpu")} <= set(recorder.asked)
    assert recorder.observed_invokes == 0
