"""Failure injection: crashes, partitions, gray failures, and chaos plans.

Experiment E12 uses the basic :class:`FailureInjector` to compare
failure *semantics*: a POSIX/SSI client hangs on an unreachable store,
while a PCSI client receives an explicit error within a bounded
detection window.

The chaos layer on top (:class:`ChaosPlan` / :class:`ChaosInjector`)
turns hand-scheduled failures into a *seeded, deterministic fault
schedule*: crash/recovery churn, gray failures (nodes that stay alive
but run slow — the mode health checks miss), short network partitions,
and lossy links. Every event is expanded up front from
:class:`~repro.sim.rng.RandomStream` draws, so the same seed produces
the same schedule bit for bit — chaos runs are replayable evidence,
not flakiness. Experiment E21 drives a full workload under such a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..sim.engine import Simulator
from ..sim.metrics_registry import LabeledMetricsRegistry
from ..sim.rng import RandomStream
from .network import Network, Partition
from .topology import Topology


class FailureInjector:
    """Schedules failures against a topology and its network.

    Every injected fault event is counted under the ``fault.*`` family
    of ``metrics`` (a private registry unless one is passed, e.g. the
    cloud's), so an incident's blast radius is visible in the same
    telemetry as its symptoms. The counters are the only record.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 network: Optional[Network] = None,
                 metrics: Optional[LabeledMetricsRegistry] = None):
        self.sim = sim
        self.topology = topology
        self.network = network
        self.metrics = (metrics if metrics is not None
                        else LabeledMetricsRegistry())

    # -- telemetry ---------------------------------------------------------
    def _note(self, kind: str, **labels) -> None:
        """Account one injected fault event."""
        self.metrics.counter(f"fault.{kind}", **labels).add(1)

    def crash_node(self, node_id: str, at: float,
                   recover_at: Optional[float] = None) -> None:
        """Crash ``node_id`` at time ``at``; optionally recover later."""
        if recover_at is not None and recover_at <= at:
            raise ValueError("recovery must come after the crash")

        def injector():
            node = self.topology.node(node_id)
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            node.crash()
            # Publish a recovery event so location-transparent waiters
            # can be woken if recovery ever happens.
            node.recovery_event = self.sim.event(name=f"recover:{node_id}")
            self._note("crash", node=node_id)
            if recover_at is not None:
                yield self.sim.timeout(recover_at - self.sim.now)
                node.recover()
                node.recovery_event.succeed()
                self._note("recover", node=node_id)

        self.sim.spawn(injector(), name=f"crash:{node_id}")

    def partition(self, group_a: Set[str], group_b: Set[str], at: float,
                  heal_at: Optional[float] = None) -> None:
        """Partition two node groups at ``at``; optionally heal later."""
        if self.network is None:
            raise RuntimeError("partitioning requires a network")
        if heal_at is not None and heal_at <= at:
            raise ValueError("heal must come after the partition")

        def injector():
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            part: Partition = self.network.partition(group_a, group_b)
            self._note("partition", size=len(group_a))
            if heal_at is not None:
                yield self.sim.timeout(heal_at - self.sim.now)
                self.network.heal(part)
                self._note("heal", size=len(group_a))

        self.sim.spawn(injector(), name="partition")

    def gray_node(self, node_id: str, at: float, slowdown: float,
                  restore_at: Optional[float] = None) -> None:
        """Degrade ``node_id`` at ``at``: alive and reachable, but all
        compute runs ``slowdown``x slower until ``restore_at``.

        This is the gray failure of E21 — invisible to liveness checks,
        devastating to tail latency, and exactly what hedged invokes
        are for.
        """
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        if restore_at is not None and restore_at <= at:
            raise ValueError("restore must come after the degradation")

        def injector():
            node = self.topology.node(node_id)
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            node.degrade(slowdown)
            self._note("gray", node=node_id)
            if restore_at is not None:
                yield self.sim.timeout(restore_at - self.sim.now)
                node.restore_speed()
                self._note("gray_restored", node=node_id)

        self.sim.spawn(injector(), name=f"gray:{node_id}")


@dataclass(frozen=True)
class ChaosEvent:
    """One expanded fault in a chaos schedule."""

    kind: str          #: "crash" | "gray" | "partition" | "recover"
    at: float          #: injection time
    until: float       #: recovery / restore / heal time
    node: str = ""     #: target node ("crash"/"gray")
    slowdown: float = 1.0  #: gray-failure multiplier
    group: Tuple[str, ...] = ()  #: isolated side of a partition


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, bounded description of an entire fault schedule.

    Rates are Poisson arrival rates (events per second across the whole
    cluster); durations are exponential means. The plan *expands* to a
    concrete, sorted event list with :meth:`events_for` before anything
    runs, so two expansions from the same seed and topology are
    identical — the property the E21 replay check pins.

    ``protected`` nodes are never made faulty (keep the client and the
    scheduler's own node out of the blast radius), and at most
    ``max_faulty_fraction`` of eligible nodes are faulty at any instant
    — arrivals that would exceed the cap are deterministically dropped.

    ``recover_rate`` schedules **recover** events: crashes with a short
    scheduled rejoin (mean ``recover_downtime_mean``), distinct from
    the ``crash_rate`` stream so storms can churn nodes through the
    health plane's probation/reinstatement path without lengthening
    outages. ``start`` delays every stream's first arrival (a quiet
    warm-up prefix); both default to the old behavior, and because the
    recover stream draws from its own fork, plans that leave them at
    their defaults expand bit-identically to plans predating the
    fields (the E21 replay check pins this).
    """

    seed: int
    horizon: float
    crash_rate: float = 0.0
    downtime_mean: float = 2.0
    gray_rate: float = 0.0
    gray_slowdown: Tuple[float, float] = (2.0, 8.0)
    gray_duration_mean: float = 5.0
    partition_rate: float = 0.0
    partition_duration_mean: float = 2.0
    recover_rate: float = 0.0
    recover_downtime_mean: float = 0.5
    loss_prob: float = 0.0
    loss_rto: float = 0.05
    protected: Tuple[str, ...] = ()
    max_faulty_fraction: float = 0.34
    start: float = 0.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= self.start < self.horizon:
            raise ValueError("start must be in [0, horizon)")
        for rate in (self.crash_rate, self.gray_rate,
                     self.partition_rate, self.recover_rate):
            if rate < 0:
                raise ValueError("negative fault rate")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if not 0.0 < self.max_faulty_fraction <= 1.0:
            raise ValueError("max_faulty_fraction must be in (0, 1]")
        lo, hi = self.gray_slowdown
        if lo < 1.0 or hi < lo:
            raise ValueError("gray_slowdown must be 1 <= lo <= hi")

    def events_for(self, topology: Topology) -> List[ChaosEvent]:
        """Expand the plan into a sorted, concrete fault schedule."""
        eligible = [n.node_id for n in topology.nodes
                    if n.node_id not in self.protected]
        if not eligible:
            return []
        max_faulty = max(1, int(self.max_faulty_fraction * len(eligible)))
        events: List[ChaosEvent] = []
        busy: List[ChaosEvent] = []  # intervals already claimed

        def faulty_at(t: float) -> List[str]:
            return [ev.node for ev in busy if ev.at <= t < ev.until]

        def arrivals(rate: float, rng: RandomStream,
                     mean_duration: float, make) -> None:
            if rate <= 0:
                return
            t = self.start + rng.exponential(1.0 / rate)
            while t < self.horizon:
                duration = max(rng.exponential(mean_duration), 1e-3)
                down = faulty_at(t)
                # Deterministic probe: first eligible node (in a seeded
                # shuffle order) that is not already faulty.
                order = list(eligible)
                rng.shuffle(order)
                target = next((nid for nid in order if nid not in down),
                              None)
                if target is not None and len(down) < max_faulty:
                    ev = make(t, min(t + duration, self.horizon), target)
                    events.append(ev)
                    busy.append(ev)
                t += rng.exponential(1.0 / rate)

        root = RandomStream(self.seed, "chaos")
        arrivals(self.crash_rate, root.fork("crash"),
                 self.downtime_mean,
                 lambda at, until, nid: ChaosEvent(
                     "crash", at=at, until=until, node=nid))
        gray_rng = root.fork("gray")
        lo, hi = self.gray_slowdown
        arrivals(self.gray_rate, gray_rng,
                 self.gray_duration_mean,
                 lambda at, until, nid: ChaosEvent(
                     "gray", at=at, until=until, node=nid,
                     slowdown=gray_rng.uniform(lo, hi)))
        arrivals(self.partition_rate, root.fork("partition"),
                 self.partition_duration_mean,
                 lambda at, until, nid: ChaosEvent(
                     "partition", at=at, until=until, node=nid,
                     group=(nid,)))
        arrivals(self.recover_rate, root.fork("recover"),
                 self.recover_downtime_mean,
                 lambda at, until, nid: ChaosEvent(
                     "recover", at=at, until=until, node=nid))
        events.sort(key=lambda ev: (ev.at, ev.kind, ev.node))
        return events


class ChaosInjector(FailureInjector):
    """Executes a :class:`ChaosPlan` against a cluster.

    ``execute`` expands the plan, installs link loss on the network,
    and schedules every event through the base injector — all
    randomness comes from streams derived from the plan's seed, so a
    rerun with the same seed injects the identical schedule.
    """

    def execute(self, plan: ChaosPlan) -> List[ChaosEvent]:
        """Install the plan; returns the expanded schedule."""
        if plan.loss_prob > 0:
            if self.network is None:
                raise RuntimeError("link loss requires a network")
            self.network.set_loss(plan.loss_prob,
                                  rng=RandomStream(plan.seed, "chaos/loss"),
                                  rto=plan.loss_rto)
        events = plan.events_for(self.topology)
        everyone = {n.node_id for n in self.topology.nodes}
        for ev in events:
            if ev.kind == "crash":
                self.crash_node(ev.node, at=ev.at, recover_at=ev.until)
            elif ev.kind == "gray":
                self.gray_node(ev.node, at=ev.at, slowdown=ev.slowdown,
                               restore_at=ev.until)
            elif ev.kind == "partition":
                group = set(ev.group)
                self.partition(group, everyone - group, at=ev.at,
                               heal_at=ev.until)
            elif ev.kind == "recover":
                # A crash with a scheduled (short) rejoin: the node
                # comes back and must earn its way out of the health
                # plane's probation.
                self.crash_node(ev.node, at=ev.at, recover_at=ev.until)
        return events
