"""Tests for the seeded chaos layer: plan expansion and execution."""

import pytest

from repro.cluster import (
    DC_2021,
    ChaosInjector,
    ChaosPlan,
    Network,
    build_cluster,
)
from repro.sim import Simulator
from repro.sim.metrics_registry import LabeledMetricsRegistry


def make_cluster(racks=2, nodes_per_rack=4):
    sim = Simulator()
    topo = build_cluster(sim, racks=racks, nodes_per_rack=nodes_per_rack,
                         gpu_nodes_per_rack=0)
    net = Network(sim, topo, DC_2021)
    return sim, topo, net


BUSY_PLAN = dict(seed=9, horizon=20.0, crash_rate=0.5, gray_rate=0.3,
                 partition_rate=0.2)


# -------------------------------------------------------------- validation
def test_plan_validation():
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=0.0)
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=1.0, crash_rate=-0.1)
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=1.0, loss_prob=1.0)
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=1.0, max_faulty_fraction=0.0)
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=1.0, gray_slowdown=(0.5, 2.0))
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=1.0, gray_slowdown=(4.0, 2.0))


# --------------------------------------------------------------- expansion
def test_expansion_is_deterministic_per_seed():
    _, topo, _ = make_cluster()
    plan = ChaosPlan(**BUSY_PLAN)
    assert plan.events_for(topo) == plan.events_for(topo)
    other = ChaosPlan(**{**BUSY_PLAN, "seed": 10})
    assert plan.events_for(topo) != other.events_for(topo)


def test_expansion_is_sorted_and_bounded():
    _, topo, _ = make_cluster()
    events = ChaosPlan(**BUSY_PLAN).events_for(topo)
    assert events
    assert events == sorted(events,
                            key=lambda ev: (ev.at, ev.kind, ev.node))
    for ev in events:
        assert 0.0 <= ev.at < ev.until <= BUSY_PLAN["horizon"]
        assert ev.kind in ("crash", "gray", "partition")


def test_protected_nodes_never_faulted():
    _, topo, _ = make_cluster()
    protected = tuple(n.node_id for n in topo.nodes[:6])
    events = ChaosPlan(**BUSY_PLAN,
                       protected=protected).events_for(topo)
    assert all(ev.node not in protected for ev in events)


def test_protecting_everyone_empties_the_plan():
    _, topo, _ = make_cluster()
    everyone = tuple(n.node_id for n in topo.nodes)
    assert ChaosPlan(**BUSY_PLAN, protected=everyone).events_for(topo) == []


def test_max_faulty_fraction_caps_concurrency():
    """At any instant at most max(1, fraction * eligible) nodes are in
    a fault window — excess arrivals are dropped deterministically."""
    _, topo, _ = make_cluster()
    plan = ChaosPlan(seed=5, horizon=30.0, crash_rate=3.0,
                     downtime_mean=10.0, max_faulty_fraction=0.25)
    events = plan.events_for(topo)
    assert events
    cap = max(1, int(0.25 * len(topo.nodes)))
    for ev in events:
        overlapping = [o for o in events
                       if o.at <= ev.at < o.until]
        assert len(overlapping) <= cap


def test_gray_events_carry_slowdowns_in_range():
    _, topo, _ = make_cluster()
    plan = ChaosPlan(seed=3, horizon=40.0, gray_rate=0.5,
                     gray_slowdown=(2.0, 6.0))
    grays = [ev for ev in plan.events_for(topo) if ev.kind == "gray"]
    assert grays
    for ev in grays:
        assert 2.0 <= ev.slowdown <= 6.0


# --------------------------------------------------------------- execution
def test_execute_schedules_and_heals_everything():
    """After the horizon every crash has recovered, every gray node has
    its speed back, and every partition has healed."""
    sim, topo, net = make_cluster()
    injector = ChaosInjector(sim, topo, net,
                             metrics=LabeledMetricsRegistry())
    plan = ChaosPlan(**BUSY_PLAN, loss_prob=0.05)
    events = injector.execute(plan)
    assert net._loss_prob == 0.05
    sim.run(until=BUSY_PLAN["horizon"] + 1.0)
    counters = injector.metrics.counters()
    for start, end in (("crash", "recover"), ("gray", "gray_restored"),
                       ("partition", "heal")):
        n = sum(1 for ev in events if ev.kind == start)
        assert counters.get(f"fault.{start}", 0.0) == n
        assert counters.get(f"fault.{end}", 0.0) == n
    for node in topo.nodes:
        assert node.alive
        assert node.slowdown == 1.0
    a, b = topo.nodes[0].node_id, topo.nodes[-1].node_id
    assert net.is_reachable(a, b)


def test_execute_emits_fault_metrics():
    sim, topo, net = make_cluster()
    metrics = LabeledMetricsRegistry()
    injector = ChaosInjector(sim, topo, net, metrics=metrics)
    events = injector.execute(ChaosPlan(**BUSY_PLAN))
    sim.run(until=BUSY_PLAN["horizon"] + 1.0)
    counters = metrics.counters()
    crashes = sum(1 for ev in events if ev.kind == "crash")
    if crashes:
        assert counters.get("fault.crash", 0.0) == crashes
        assert counters.get("fault.recover", 0.0) == crashes


def test_loss_requires_a_network():
    sim, topo, _ = make_cluster()
    injector = ChaosInjector(sim, topo, network=None)
    with pytest.raises(RuntimeError):
        injector.execute(ChaosPlan(seed=1, horizon=1.0, loss_prob=0.1))
