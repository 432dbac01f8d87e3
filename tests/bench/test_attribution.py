"""LatencyAttributor folding, the feedback loop, and its invariance."""

import pytest

from repro.bench.attribution import (
    COMPONENTS,
    LatencyAttributor,
    component_of,
)
from repro.cluster.resources import MB, ResourceVector
from repro.core.optimizer import ImplOptimizer
from repro.core.placement import ObservedPlacement, make_policy
from repro.core.system import PCSICloud
from repro.core.functions import FunctionImpl
from repro.faas.platforms import CONTAINER
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.workloads.ml_serving import ModelServingApp, ModelServingConfig


def _feed(sim, tracer, fn="f", impl="i", node="n0",
          comps=(("execute", 0.5),), cold=False):
    """Emit one finished invoke span tree through the tracer."""
    def proc():
        with tracer.span("invoke", fn=fn, client="c") as root:
            root.set(impl=impl, node=node, cold=cold)
            for name, dur in comps:
                with tracer.span(name):
                    yield sim.timeout(dur)
    sim.spawn(proc())
    sim.run()


@pytest.fixture()
def rig():
    sim = Simulator()
    tracer = Tracer(enabled=True).bind(sim)
    att = LatencyAttributor(tracer,
                            node_class_fn=lambda nid: nid.split("-")[0])
    return sim, tracer, att


# -- folding -------------------------------------------------------------

def test_component_mapping_covers_unknowns():
    assert component_of("sandbox.provision") == "coldstart"
    assert component_of("quorum.write") == "quorum"
    assert component_of("net.transfer") == "transfer"
    assert component_of("brand.new.span") == "other"


def test_vector_partitions_invoke_duration(rig):
    sim, tracer, att = rig
    _feed(sim, tracer, node="gpu-n0", cold=True,
          comps=(("sandbox.provision", 1.0), ("net.transfer", 0.25),
                 ("execute", 0.5)))
    vec = att.vector("f", "i")
    assert set(vec) == set(COMPONENTS)
    assert vec["coldstart"] == pytest.approx(1.0)
    assert vec["transfer"] == pytest.approx(0.25)
    assert vec["execute"] == pytest.approx(0.5)
    assert sum(vec.values()) == pytest.approx(1.75)
    # Cold/warm split: the warm path excludes the cold start entirely.
    assert att.warm_latency("f", "i") == pytest.approx(0.75)
    assert att.cold_overhead("f", "i") == pytest.approx(1.0)
    assert att.keys() == [("f", "i", "gpu")]


def test_ema_update_and_counts(rig):
    sim, tracer, att = rig
    _feed(sim, tracer, comps=(("execute", 1.0),))
    _feed(sim, tracer, comps=(("execute", 2.0),))
    # EMA with alpha=0.3 seeded at 1.0: 0.7*1.0 + 0.3*2.0 = 1.3
    assert att.warm_latency("f", "i") == pytest.approx(1.3)
    assert att.samples("f", "i") == 2
    assert att.cold_overhead("f", "i") is None  # never a cold invoke
    assert att.observed_invokes == 2


def test_unplaced_invokes_are_skipped(rig):
    sim, tracer, att = rig

    def proc():
        with tracer.span("invoke", fn="f", client="c"):
            yield sim.timeout(0.1)  # failed before impl/node were set
    sim.spawn(proc())
    sim.run()
    assert att.observed_invokes == 0
    assert att.samples() == 0


def test_node_classes_separate_keys(rig):
    sim, tracer, att = rig
    for _ in range(3):
        _feed(sim, tracer, node="cpu-n0", comps=(("execute", 1.0),))
        _feed(sim, tracer, node="gpu-n0", comps=(("execute", 0.2),))
    assert att.node_classes() == ["cpu", "gpu"]
    assert att.node_class_latency("cpu") == pytest.approx(1.0)
    assert att.node_class_latency("gpu") == pytest.approx(0.2)
    # Merged view weights per-class EMAs by their sample counts.
    assert att.warm_latency("f", "i") == pytest.approx(0.6)


def test_attributor_validates_parameters():
    tracer = Tracer(enabled=True).bind(Simulator())
    with pytest.raises(ValueError):
        LatencyAttributor(tracer, alpha=0.0)
    with pytest.raises(ValueError):
        LatencyAttributor(tracer, min_samples=0)


def test_to_json_shape(rig):
    sim, tracer, att = rig
    _feed(sim, tracer, node="gpu-n0", cold=True,
          comps=(("sandbox.provision", 1.0), ("execute", 0.5)))
    doc = att.to_json()
    assert doc["observed_invokes"] == 1
    key = doc["keys"]["f/i@gpu"]
    assert key["count"] == 1 and key["cold_count"] == 1
    assert key["ema"]["coldstart"] == pytest.approx(1.0)
    assert key["warm_ema_s"] == pytest.approx(0.5)


# -- optimizer feedback --------------------------------------------------

def _impl():
    return FunctionImpl("cpu", CONTAINER,
                        ResourceVector(cpus=1, memory=1024 ** 3),
                        work_ops=5e8)


def test_optimizer_static_mode_ignores_observations(rig):
    sim, tracer, att = rig
    impl = _impl()
    for _ in range(5):
        _feed(sim, tracer, fn="f", impl="cpu", comps=(("execute", 9.0),))
    static = ImplOptimizer()
    fed = ImplOptimizer(observation_mode="static", attributor=att)
    assert fed.estimate(impl, None, fn_name="f").est_latency \
        == static.estimate(impl, None).est_latency


def test_optimizer_ema_mode_guards_then_substitutes(rig):
    sim, tracer, att = rig
    impl = _impl()
    opt = ImplOptimizer(observation_mode="ema", attributor=att,
                        min_samples=3)
    model = ImplOptimizer().estimate(impl, None).est_latency
    _feed(sim, tracer, fn="f", impl="cpu", comps=(("execute", 9.0),))
    # Below the guard: the model estimate stands.
    assert opt.estimate(impl, None, fn_name="f").est_latency == model
    for _ in range(2):
        _feed(sim, tracer, fn="f", impl="cpu", comps=(("execute", 9.0),))
    # At the guard: observed warm EMA plus amortized modeled cold start
    # (no cold invocation was ever observed for this key).
    est = opt.estimate(impl, None, fn_name="f").est_latency
    assert est == pytest.approx(9.0 + impl.platform.cold_start)
    # An unknown function still uses the model (exploration stays safe).
    assert opt.estimate(impl, None, fn_name="other").est_latency == model


def test_optimizer_rejects_ema_without_attributor():
    with pytest.raises(ValueError):
        ImplOptimizer(observation_mode="ema")
    with pytest.raises(ValueError):
        ImplOptimizer(observation_mode="ema", attributor=None,
                      min_samples=1)
    with pytest.raises(ValueError):
        ImplOptimizer(observation_mode="nonsense")


# -- observed placement --------------------------------------------------

def test_observed_placement_follows_measured_best_class():
    sim = Simulator()
    tracer = Tracer(enabled=True).bind(sim)
    cloud = PCSICloud(Simulator(), racks=2, nodes_per_rack=4,
                      gpu_nodes_per_rack=2, seed=3)
    att = LatencyAttributor(tracer, node_class_fn=cloud._node_class)
    policy = ObservedPlacement(cloud.topology, attributor=att)
    resources = ResourceVector(cpus=1, memory=1024 ** 3)
    nodes = policy.candidates(resources, CONTAINER)
    by_class = {cloud._node_class(n.node_id) for n in nodes}
    assert by_class == {"cpu", "gpu"}  # both classes are candidates
    # No evidence yet: identical to colocate (least-loaded fit).
    baseline_pick = make_policy("colocate", cloud.topology).choose(
        nodes, resources, CONTAINER, None)
    assert policy.choose(nodes, resources, CONTAINER, None) \
        is baseline_pick
    # Feed evidence: gpu-class nodes are observed faster.
    gpu_node = next(n.node_id for n in nodes if n.has_device("gpu"))
    cpu_node = next(n.node_id for n in nodes
                    if not n.has_device("gpu"))
    for _ in range(3):
        _feed(sim, tracer, node=gpu_node, comps=(("execute", 2.0),))
        _feed(sim, tracer, node=cpu_node, comps=(("execute", 5.0),))
    pick = policy.choose(nodes, resources, CONTAINER, None)
    assert cloud.topology.node(pick.node_id).has_device("gpu")


# -- invariance: attribution must not perturb the simulation -------------

E4_CFG = ModelServingConfig(upload_nbytes=4 * MB, weights_nbytes=64 * MB)


def _e4_fingerprint(**cloud_kwargs):
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=2,
                      seed=41, placement="colocate", keep_alive=600.0,
                      trace=True, **cloud_kwargs)
    app = ModelServingApp(cloud, E4_CFG)
    client = cloud.client_node()

    def flow():
        for _ in range(3):
            yield from app.serve_one(client)

    cloud.run_process(flow())
    history = [(inv.fn_name, inv.impl_name, inv.executor_node,
                inv.submitted_at, inv.started_at, inv.finished_at)
               for inv in cloud.scheduler.history]
    return cloud.sim.now, history


def test_static_attribution_is_byte_identical_to_seed():
    """Attaching the attributor (static mode) is a pure observer: the
    pinned E4 run replays event-for-event, float-for-float."""
    plain = _e4_fingerprint()
    observed = _e4_fingerprint(attribution=True)
    assert observed == plain


def test_ema_arm_is_deterministic():
    """Two observation-fed E22 runs make identical decisions."""
    from repro.bench.experiments.e22_attribution import run_drift_arm
    first = run_drift_arm("ema")
    second = run_drift_arm("ema")
    assert first["decisions"] == second["decisions"]
    assert first["phase1_latencies"] == second["phase1_latencies"]
    assert first["phase2_latencies"] == second["phase2_latencies"]


def test_attribution_requires_tracing():
    with pytest.raises(ValueError):
        PCSICloud(attribution=True)  # trace defaults to False
