"""Edge cases of orphaning an in-flight invoke on the health plane.

The dispatch ledger orphans every invoke in flight on a node the
detector confirms dead. These tests pin what each orphan race must
produce, whatever mechanism unwinds the doomed attempt:

(a) a confirm mid-body ends the attempt at the confirm instant and the
    platform recovers the invoke;
(b) a synchronous nested invoke whose *outer* host dies is cancelled,
    not orphaned: only the outer invoke recovers (and when the inner
    host is confirmed first at the same instant, the inner's recovery
    is cut short by the outer's);
(c) the ``ExecutorLostError`` fast path confirms the node while the
    process that owns the orphaned dispatch is running: an outer body
    that keeps going is orphaned at that instant, one that fails there
    surfaces its own error;
(d) a body that finishes at the confirm instant keeps its completion
    and is not re-executed;
(e) a deadline burn is reported to the ejector as ``cause="deadline"``,
    a lost hedge race reports nothing.

Same pinned cluster as ``test_crash_recovery.py``: 8 nodes, seed 73,
the first dispatch lands on ``rack0-n0``.
"""

import pytest

from repro.cluster.failures import FailureInjector
from repro.cluster.resources import cpu_task, server_node
from repro.cluster.topology import build_cluster
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM, ExecutorLostError
from repro.sim.deadline import DeadlineExceededError
from repro.sim.engine import Simulator

LANDING_NODE = "rack0-n0"


def build_cloud(cpus=1, trace=False):
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=4,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=cpus, memory_gb=4))
    cloud = PCSICloud(sim, seed=73, keep_alive=600.0, topology=topo,
                      data_replicas=1, health=True, trace=trace)
    cloud.scheduler.control_node = cloud.client_node()
    return cloud


def define(cloud, name, ops=0.0, body=None):
    return cloud.define_function(
        name, [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                            work_ops=ops)], body=body)


def spy(cloud):
    """Record every dispatch registration, and every outcome report
    with the simulated time it was made at."""
    health = cloud.health
    regs, reports, times = [], [], []
    register, report = health.register_dispatch, health.report_outcome

    def spy_register(key, node_id):
        regs.append((key, node_id))
        return register(key, node_id)

    def spy_report(fn, node_id, **kw):
        reports.append((fn, node_id, kw["ok"], kw.get("cause")))
        times.append(cloud.sim.now)
        return report(fn, node_id, **kw)

    health.register_dispatch = spy_register
    health.report_outcome = spy_report
    return regs, reports, times


def test_confirm_mid_body_orphans_at_the_confirm_instant():
    """(a) The attempt ends at the phi-accrual confirm, not at the end
    of its ~2.2 s of compute, and the re-dispatch recovers it."""
    cloud = build_cloud(trace=True)
    fn = define(cloud, "batch", 5.2e10)
    regs, reports, times = spy(cloud)
    FailureInjector(cloud.sim, cloud.topology).crash_node(
        LANDING_NODE, at=0.7)
    cloud.run_process(cloud.invoke(cloud.client_node(), fn))

    (node, at, cause), = cloud.health.detector.confirmations
    assert (node, cause) == (LANDING_NODE, "phi-accrual")
    doomed = [s for s in cloud.tracer.spans(name="execute")
              if s.attributes["node"] == LANDING_NODE]
    assert [s.end for s in doomed] == [at]
    recover, = cloud.tracer.spans(name="invoke.recover")
    assert recover.start == at
    assert reports[0] == ("batch", LANDING_NODE, False, "orphaned")
    assert times[0] == at
    assert [key for key, _ in regs] == ["batch#1", "batch#1"]
    assert cloud.health.orphaned == cloud.health.recovered == 1
    assert cloud.health.ledger.total_in_flight() == 0


@pytest.mark.parametrize("same_host", [False, True])
def test_nested_invoke_is_cancelled_when_the_outer_host_dies(same_host):
    """(b) The inner body runs inside the outer body's synchronous
    invoke, on a healthy node or on the outer's own host. The outer
    host dies: the outer invoke is orphaned and recovered; the inner
    one is cancelled without a report, even when its own dispatch is
    orphaned by the same confirm, and runs again under the recovered
    outer."""
    cloud = build_cloud(cpus=2 if same_host else 1)
    inner = define(cloud, "inner", 5.2e10)

    def outer_body(ctx):
        if same_host:
            result = yield from cloud.invoke(ctx.node_id, inner,
                                             preferred_node=ctx.node_id)
        else:
            result = yield from ctx.invoke(inner)
        return ("outer", result)

    outer = define(cloud, "outer", body=outer_body)
    regs, reports, times = spy(cloud)
    FailureInjector(cloud.sim, cloud.topology).crash_node(
        LANDING_NODE, at=0.7)
    result = cloud.run_process(cloud.invoke(cloud.client_node(), outer))

    assert result[0] == "outer"
    assert regs[0] == ("outer#1", LANDING_NODE)
    assert regs[1][0] == "inner#2"
    assert (regs[1][1] == LANDING_NODE) is same_host
    assert regs[2][0] == "outer#1" and regs[2][1] != LANDING_NODE
    assert regs[3][0] == "inner#3"
    # The cancelled inner attempt reported nothing.
    assert [r for r in reports if not r[2]] == [
        ("outer", LANDING_NODE, False, "orphaned")]
    assert cloud.health.orphaned == cloud.health.recovered == 1
    assert cloud.health.ledger.orphaned_total == 1 + same_host
    counter = cloud.metrics.counter
    assert counter("invoke.orphaned", fn="outer",
                   cause="phi-accrual").value == 1
    assert counter("invoke.orphaned", fn="inner",
                   cause="phi-accrual").value == 0
    assert cloud.health.ledger.total_in_flight() == 0


def test_nested_dispatches_orphaned_by_two_confirms_at_one_instant():
    """(b) again, with the inner and outer hosts crashing together so
    that one monitor tick confirms the inner's host first: the inner
    invoke is orphaned and starts its recovery, then the outer's
    orphaning unwinds it. The re-run inner computes in full (~1.9 s)
    under the recovered outer."""
    cloud = build_cloud(cpus=2)
    inner = define(cloud, "inner", 5.2e10)

    def outer_body(ctx):
        result = yield from cloud.invoke(ctx.node_id, inner,
                                         preferred_node="rack0-n0")
        return ("outer", result)

    outer = define(cloud, "outer", body=outer_body)
    regs, reports, times = spy(cloud)
    injector = FailureInjector(cloud.sim, cloud.topology)
    injector.crash_node("rack0-n0", at=0.7)
    injector.crash_node("rack0-n1", at=0.7)
    result = cloud.run_process(cloud.invoke(
        cloud.client_node(), outer, preferred_node="rack0-n1"))

    assert result[0] == "outer"
    assert regs[:2] == [("outer#1", "rack0-n1"), ("inner#2", "rack0-n0")]
    (_, at, _), (_, at2, _) = cloud.health.detector.confirmations
    assert at == at2
    assert reports[:2] == [("inner", "rack0-n0", False, "orphaned"),
                           ("outer", "rack0-n1", False, "orphaned")]
    assert times[:2] == [at, at]
    assert [r[:1] + r[2:] for r in reports[2:]] == [
        ("inner", True, None), ("outer", True, None)]
    assert times[2] - at > 1.8
    assert cloud.health.orphaned == 2 and cloud.health.recovered == 1
    assert cloud.health.ledger.total_in_flight() == 0


@pytest.mark.parametrize("then", ["invokes again", "returns"])
def test_body_that_catches_its_orphan_interrupt_is_still_orphaned(then):
    """(b) again, with an outer body that catches every exception
    around its nested invoke and carries on from the dead host. The
    attempt still counts as orphaned and is recovered. A body that
    invokes again fails there and is re-run; one that returns at once
    has completed, so the re-dispatch returns that completion."""
    cloud = build_cloud()
    inner = define(cloud, "inner", 5.2e10)
    caught = []

    def outer_body(ctx):
        try:
            result = yield from ctx.invoke(inner)
        except Exception as exc:  # noqa: BLE001 - the body under test
            caught.append(type(exc).__name__)
            if then == "returns":
                return ("outer", "from the corpse")
            result = yield from ctx.invoke(inner)
        return ("outer", result)

    outer = define(cloud, "outer", body=outer_body)
    regs, reports, times = spy(cloud)
    FailureInjector(cloud.sim, cloud.topology).crash_node(
        LANDING_NODE, at=0.7)
    result = cloud.run_process(cloud.invoke(cloud.client_node(), outer))

    returned = then == "returns"
    assert result[0] == "outer"
    assert (result[1] == "from the corpse") is returned
    assert cloud.health.deduped == int(returned)
    assert caught == ["Interrupt"]
    assert [r for r in reports if not r[2]] == [
        ("outer", LANDING_NODE, False, "orphaned")]
    # A deduplicated re-dispatch registers no second dispatch.
    outer_regs = [key for key, _ in regs if key.startswith("outer")]
    assert outer_regs == ["outer#1"] * (1 if returned else 2)
    assert cloud.health.orphaned == cloud.health.recovered == 1
    assert cloud.health.ledger.total_in_flight() == 0


@pytest.mark.parametrize("outer_keeps_going", [True, False])
def test_executor_lost_confirm_while_the_owner_runs(outer_keeps_going):
    """(c) Outer and inner share ``rack0-n0``. The node dies under the
    inner compute; the inner's ``ExecutorLostError`` confirms it while
    the outer's process, which owns the outer dispatch, is running.
    An outer body that catches the error and computes on is orphaned
    at that instant and recovered; one that re-raises surfaces the
    ``ExecutorLostError`` itself and the retry policy re-runs it."""
    cloud = build_cloud(cpus=2)
    inner = define(cloud, "inner", 2.5e9)
    caught = []

    def outer_body(ctx):
        try:
            result = yield from cloud.invoke(ctx.node_id, inner,
                                             preferred_node=ctx.node_id)
        except ExecutorLostError:
            caught.append(cloud.sim.now)
            if not outer_keeps_going:
                raise
            result = "lost"
        yield from ctx.compute(2.5e9)
        return ("outer", result)

    outer = define(cloud, "outer", body=outer_body)
    regs, reports, times = spy(cloud)
    FailureInjector(cloud.sim, cloud.topology).crash_node(
        LANDING_NODE, at=0.05)
    result = cloud.run_process(cloud.invoke(
        cloud.client_node(), outer, retry=RetryPolicy(max_attempts=2)))

    (node, at, cause), = cloud.health.detector.confirmations
    assert (node, cause) == (LANDING_NODE, "executor-lost")
    assert caught == [at]
    assert regs[:2] == [("outer#1", LANDING_NODE),
                        ("inner#2", LANDING_NODE)]
    assert regs[2][0] == "outer#1" and regs[2][1] != LANDING_NODE
    outer_cause = "orphaned" if outer_keeps_going else "ExecutorLostError"
    assert reports[:2] == [
        ("inner", LANDING_NODE, False, "ExecutorLostError"),
        ("outer", LANDING_NODE, False, outer_cause)]
    # Either way the outer attempt on the dead node ends at the confirm.
    assert times[:2] == [at, at]
    assert result[0] == "outer"
    health = cloud.health
    assert health.orphaned == health.recovered == int(outer_keeps_going)
    retries = cloud.metrics.counter("invoke.retries", fn="outer",
                                    cause="ExecutorLostError").value
    assert retries == int(not outer_keeps_going)
    assert health.ledger.total_in_flight() == 0


def test_body_finishing_at_the_confirm_instant_is_not_rerun():
    """(d) The host is confirmed dead at the very instant the body
    returns: the completion is already in the log, the invoke returns
    the body's result, and nothing is re-dispatched."""
    cloud = build_cloud()
    sim = cloud.sim
    finished = sim.event()
    runs, seen = [], {}

    def body(ctx):
        runs.append(sim.now)
        yield from ctx.compute(2.5e9)
        finished.succeed(ctx.node_id)
        return "done"

    fn = define(cloud, "f", body=body)

    def confirmer():
        node_id = yield finished
        seen["logged"] = "f#1" in cloud.health.completions
        seen["at"] = sim.now
        cloud.topology.node(node_id).crash()
        cloud.health.confirm_dead(node_id, "test")

    regs, reports, times = spy(cloud)
    sim.spawn(confirmer())
    result = cloud.run_process(cloud.invoke(cloud.client_node(), fn))

    assert result == "done"
    assert len(runs) == 1 and regs == [("f#1", LANDING_NODE)]
    assert seen["logged"] is True
    (node, at, _), = cloud.health.detector.confirmations
    assert (node, at) == (LANDING_NODE, seen["at"])
    assert reports == [("f", LANDING_NODE, True, None)]
    assert cloud.health.orphaned == 0
    assert cloud.health.ledger.total_in_flight() == 0


def test_deadline_reports_to_the_ejector_and_hedge_loss_does_not():
    """(e) A deadline interrupt is outlier evidence against the host
    (``cause="deadline"``); the losing arm of a hedge race is simply
    cancelled and reports nothing."""
    cloud = build_cloud()
    slow = define(cloud, "slow", 5.2e10)
    _, reports, _ = spy(cloud)
    with pytest.raises(DeadlineExceededError):
        cloud.run_process(cloud.invoke(cloud.client_node(), slow,
                                       deadline=0.5))
    assert reports == [("slow", LANDING_NODE, False, "deadline")]
    assert cloud.health.ejector._consec == {LANDING_NODE: 1}
    assert cloud.health.ledger.total_in_flight() == 0

    cloud = build_cloud()
    hedged = define(cloud, "h", 2.5e9)
    regs, reports, times = spy(cloud)
    cloud.run_process(cloud.invoke(cloud.client_node(), hedged,
                                   retry=RetryPolicy(hedge_delay=0.02)))
    assert [key for key, _ in regs] == ["h#1", "h#1"]
    loser = regs[1][1]
    assert loser != LANDING_NODE
    assert reports == [("h", LANDING_NODE, True, None)]
    assert cloud.metrics.counter("invoke.hedge.cancelled",
                                 fn="h").value == 1
    assert loser not in cloud.health.ejector._consec
    assert cloud.health.ledger.total_in_flight() == 0
