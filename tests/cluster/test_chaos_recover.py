"""ChaosPlan ``recover`` events and the ``start`` warm-up offset.

The new fields must be *additive*: a plan that leaves them at their
defaults expands to exactly the schedule the pre-recover code
produced (each stream draws from its own seeded fork, so adding a
rate-0 stream consumes nothing), and turning a stream on never
perturbs the other streams' draws.
"""

import pytest

from repro.cluster.failures import ChaosInjector, ChaosPlan
from repro.cluster.resources import server_node
from repro.cluster.topology import build_cluster
from repro.sim.engine import Simulator


def make_topo(sim=None):
    return build_cluster(sim or Simulator(), racks=2, nodes_per_rack=4,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))


def test_recover_stream_does_not_perturb_other_streams():
    topo = make_topo()
    base = ChaosPlan(seed=11, horizon=30.0, crash_rate=0.3,
                     gray_rate=0.2, partition_rate=0.1)
    with_recover = ChaosPlan(seed=11, horizon=30.0, crash_rate=0.3,
                             gray_rate=0.2, partition_rate=0.1,
                             recover_rate=0.5)
    before = base.events_for(topo)
    after = with_recover.events_for(topo)
    recovers = [ev for ev in after if ev.kind == "recover"]
    assert recovers                              # the stream produced
    assert [ev for ev in after if ev.kind != "recover"] == before


def test_recover_events_are_short_scheduled_rejoins():
    topo = make_topo()
    plan = ChaosPlan(seed=7, horizon=60.0, recover_rate=0.5,
                     recover_downtime_mean=0.4)
    events = plan.events_for(topo)
    assert events and all(ev.kind == "recover" for ev in events)
    for ev in events:
        assert 0.0 < ev.at < ev.until <= plan.horizon
        assert ev.node in {n.node_id for n in topo.nodes}
    # Exponential(0.4) downtimes: the mean should be well under the
    # crash stream's default 2.0 s outages.
    downtimes = [ev.until - ev.at for ev in events]
    assert sum(downtimes) / len(downtimes) < 1.5


def test_expansion_is_deterministic_with_new_fields():
    topo = make_topo()
    plan = ChaosPlan(seed=3, horizon=40.0, crash_rate=0.2,
                     recover_rate=0.4, start=5.0)
    assert plan.events_for(topo) == plan.events_for(topo)


def test_start_delays_every_stream():
    topo = make_topo()
    plan = ChaosPlan(seed=5, horizon=40.0, crash_rate=0.5,
                     gray_rate=0.5, recover_rate=0.5, start=10.0)
    events = plan.events_for(topo)
    assert events
    assert all(ev.at >= 10.0 for ev in events)
    # The shifted schedule is the unshifted one's inter-arrival draws
    # pushed right: same seed with start=0 fires strictly earlier.
    first_unshifted = min(
        ev.at for ev in ChaosPlan(seed=5, horizon=40.0, crash_rate=0.5,
                                  gray_rate=0.5, recover_rate=0.5,
                                  ).events_for(topo))
    assert first_unshifted < 10.0


def test_start_must_precede_horizon():
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=10.0, start=10.0)
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=10.0, start=-1.0)
    with pytest.raises(ValueError):
        ChaosPlan(seed=1, horizon=10.0, recover_rate=-0.1)


def test_injector_executes_recover_as_crash_with_rejoin():
    sim = Simulator()
    topo = make_topo(sim)
    injector = ChaosInjector(sim, topo)
    plan = ChaosPlan(seed=9, horizon=20.0, recover_rate=0.3,
                     recover_downtime_mean=0.3)
    events = injector.execute(plan)
    assert events
    sim.run()
    # Every recover event crashed its node and brought it back.
    for ev in events:
        assert topo.node(ev.node).alive
    counters = injector.metrics.counters()
    assert counters["fault.crash"] == len(events)
    assert counters["fault.recover"] == len(events)
