"""Autoscaling warm pools: serverless scale-from-zero (§2.4, §4.2).

A :class:`WarmPool` manages executors for one (function, implementation)
pair. Invocations grab a warm idle executor when one exists, otherwise
a new sandbox is provisioned (a cold start). Idle executors are reaped
after a keep-alive window, so an unused function costs nothing — the
property experiment E13 contrasts with provisioned fleets.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Iterator, List, Optional

from ..cluster.node import Node
from ..cluster.resources import ResourceVector
from ..sim.engine import Simulator
from ..cluster.health import NO_HEALTH
from ..sim.metrics import TimeWeightedGauge
from ..sim.metrics_registry import LabeledMetricsRegistry, Tally
from ..sim.trace import NULL_TRACER, Tracer
from .platforms import Executor, PlatformSpec

#: Default idle window before a warm sandbox is reaped.
DEFAULT_KEEP_ALIVE = 60.0

#: The ``warmpool.*`` counter families a pool's tallies fill.
POOL_FAMILIES = ("warmpool.acquire", "warmpool.queue_waits",
                 "warmpool.prewarm", "warmpool.prewarm_skipped",
                 "warmpool.prewarm_failed", "warmpool.reaped",
                 "warmpool.shrunk")


class PlacementFailedError(Exception):
    """No node could host a new executor."""


class WarmPool:
    """Executors for one function implementation, scaled on demand.

    ``placer`` chooses a node for each new executor; the PCSI scheduler
    supplies policy-specific placers (naive / co-locating / scavenging).
    It is called as ``placer(resources, platform, preferred_node)`` where
    the third argument is an optional co-location hint.
    """

    def __init__(self, sim: Simulator, name: str, platform: PlatformSpec,
                 resources: ResourceVector,
                 placer: Callable[..., Optional[Node]],
                 keep_alive: float = DEFAULT_KEEP_ALIVE,
                 max_executors: Optional[int] = None,
                 metrics: Optional[LabeledMetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        if keep_alive < 0:
            raise ValueError("negative keep_alive")
        self.sim = sim
        self.name = name
        self.platform = platform
        self.resources = resources
        self.placer = placer
        self.keep_alive = keep_alive
        self.max_executors = max_executors
        self.metrics = metrics if metrics is not None \
            else LabeledMetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._executors: List[Executor] = []
        self._waiters: Deque = deque()
        self._provisioning = 0
        # Event tallies, reported to the registry's ``warmpool.*``
        # counters by _collect_metrics. ``warm_hits`` counts warm and
        # queued acquires; ``queued_hits`` the queued ones.
        self.cold_starts = 0
        self.warm_hits = 0
        self.queued_hits = 0
        self.queue_waits = 0
        self.prewarmed = 0
        self.prewarm_skipped = 0
        self.prewarm_failed = 0
        self.reaped = 0
        self.shrunk = 0
        self.peak_size = 0
        self._target_warm: Optional[int] = None
        #: The :class:`~repro.faas.controller.AutoscaleController`
        #: watching this pool (if any); acquires poke it awake.
        self.controller = None
        #: The kernel's health plane, wired by the scheduler at pool
        #: creation: warm sandboxes on nodes it says to avoid
        #: (quarantined/suspect) are skipped by the idle scan, and the
        #: keep-alive reaper collects them.
        self.health = NO_HEALTH
        self._live_gauge = TimeWeightedGauge(f"{name}.live",
                                             start_time=sim.now)
        self.metrics.add_collector(POOL_FAMILIES, self._collect_metrics,
                                   pool=name)

    # -- telemetry helpers -----------------------------------------------
    def _collect_metrics(self) -> Iterator[Tally]:
        """Report the event tallies (the registry's collector); a label
        set appears once its count is non-zero."""
        pool = ("pool", self.name)
        for family, labels, count in (
                ("warmpool.acquire", (("outcome", "warm"), pool),
                 self.warm_hits - self.queued_hits),
                ("warmpool.acquire", (("outcome", "queued"), pool),
                 self.queued_hits),
                ("warmpool.acquire", (("outcome", "cold"), pool),
                 self.cold_starts),
                ("warmpool.queue_waits", (pool,), self.queue_waits),
                ("warmpool.prewarm",
                 (("platform", self.platform.name), pool), self.prewarmed),
                ("warmpool.prewarm_skipped", (pool,),
                 self.prewarm_skipped),
                ("warmpool.prewarm_failed", (pool,), self.prewarm_failed),
                ("warmpool.reaped", (pool,), self.reaped),
                ("warmpool.shrunk", (pool,), self.shrunk)):
            if count:
                yield family, labels, count

    def _track_size(self) -> None:
        """Reconcile the size gauge with reality.

        Called on *every* transition that changes sandbox liveness —
        provisioning start/finish (including failures), cold-start
        completion, reaps, shrinks, and drains. Dead executors are
        pruned from the roster here, so the invariant the tests pin is
        ``gauge level == len(self._executors) + self._provisioning``
        with every listed executor live. In-flight provisioning counts:
        its resources are already allocated on the node.
        """
        self._executors = [e for e in self._executors if e.live]
        level = len(self._executors) + self._provisioning
        self.peak_size = max(self.peak_size, level)
        self._live_gauge.set(level, self.sim.now)
        self.metrics.gauge("warmpool.size", pool=self.name) \
            .set(level, self.sim.now)

    def _track_queue_depth(self) -> None:
        self.metrics.gauge("warmpool.queue_depth", pool=self.name) \
            .set(len(self._waiters), self.sim.now)

    # -- pool state ------------------------------------------------------
    @property
    def size(self) -> int:
        """Live executors (busy + idle)."""
        return len(self._executors)

    @property
    def provisioning(self) -> int:
        """Cold starts in flight right now."""
        return self._provisioning

    @property
    def target_warm(self) -> Optional[int]:
        """Autoscale floor: when set, the keep-alive reaper will not
        shrink the pool below this many live executors.

        Lowering (or lifting) the floor re-arms, at once, the reaper of
        every idle executor whose reap it vetoed: each re-checks the
        new floor, so the pool decays to it without further releases.
        """
        return self._target_warm

    @target_warm.setter
    def target_warm(self, floor: Optional[int]) -> None:
        old = self._target_warm
        self._target_warm = floor
        if old is None or (floor is not None and floor >= old):
            return
        now = self.sim.now
        for executor in self._executors:
            # Idle with no reaper armed: its reap was vetoed (any other
            # idle executor was re-armed by its release).
            if executor.reaper_wake is None and executor.live \
                    and not executor.busy:
                executor.reaper_wake = now
                self.sim.spawn(self._reap_after_idle(executor, now),
                               name=f"reap:{self.name}",
                               inherit_context=False)

    @property
    def busy_count(self) -> int:
        """Live executors currently claimed by an invocation."""
        return sum(1 for e in self._executors if e.busy)

    @property
    def waiting(self) -> int:
        """Callers queued for a released executor."""
        return len(self._waiters)

    @property
    def idle(self) -> List[Executor]:
        """Warm executors available right now (on live nodes only —
        sandboxes stranded on crashed machines are never handed out)."""
        return [e for e in self._executors
                if not e.busy and e.node.alive]

    # -- acquisition -------------------------------------------------------
    def acquire(self, preferred_node: Optional[str] = None) -> Generator:
        """Obtain an executor (warm if possible); returns it claimed.

        ``preferred_node`` expresses a co-location hint: a warm executor
        on that node wins; failing that the placer is asked to honor it.
        When the pool is at its cap — or the cluster cannot host another
        sandbox — the caller *queues* for the next released executor
        rather than failing: transient capacity exhaustion shows up as
        latency, the way production FaaS concurrency limits behave.
        Only a pool that can never grow (no executor live or coming)
        raises :class:`PlacementFailedError`.
        """
        tracer = self.tracer
        if self.controller is not None:
            self.controller.notify_activity()
        requeue_front = False
        while True:
            # Skip warm sandboxes on nodes the health plane says to
            # avoid: a cold start on a healthy node beats a warm hit on
            # a quarantined one. The keep-alive reaper collects the
            # skipped sandboxes.
            avoid = self.health.avoid
            candidates = [e for e in self.idle if not avoid(e.node.node_id)]
            if preferred_node is not None:
                preferred = [e for e in candidates
                             if e.node.node_id == preferred_node]
                if preferred:
                    candidates = preferred
            if candidates:
                executor = candidates[0]
                executor.mark_busy()
                self.warm_hits += 1
                return executor

            capped = (self.max_executors is not None
                      and self.size + self._provisioning
                      >= self.max_executors)
            if not capped:
                node = self.placer(self.resources, self.platform,
                                   preferred_node)
                if node is not None:
                    executor = Executor(self.sim, node, self.platform,
                                        self.resources, tracer=tracer)
                    self._provisioning += 1
                    self._track_size()
                    try:
                        yield from executor.provision()
                    finally:
                        self._provisioning -= 1
                        self._track_size()
                    executor.mark_busy()
                    self._executors.append(executor)
                    self.cold_starts += 1
                    self._track_size()
                    return executor

            if self._provisioning == 0 and not self._executors:
                raise PlacementFailedError(
                    f"no node can host {self.name} "
                    f"({self.resources.describe()}, {self.platform.name}) "
                    "and no executor exists to wait for")
            # Starved: wait for a release, then retry.
            waiter = self.sim.event(name=f"starved:{self.name}")
            if requeue_front:
                self._waiters.appendleft(waiter)
            else:
                self._waiters.append(waiter)
            self.queue_waits += 1
            self._track_queue_depth()
            try:
                with tracer.span("queue.wait", pool=self.name):
                    executor = yield waiter
            except BaseException:
                # Caller gave up mid-queue (interrupt, deadline): pull
                # the waiter out so a release never hands an executor
                # to a corpse — or, if one was already handed over, put
                # it back into circulation.
                self._abandon_wait(waiter)
                raise
            # _offer reserved the executor (marked it busy) on our
            # behalf before waking us, so no arrival in between could
            # steal it: the grant order is the queue order.
            if executor is not None and executor.live \
                    and executor.node.alive:
                self.warm_hits += 1
                self.queued_hits += 1
                return executor
            # The reservation went stale (the node died between the
            # hand-off and our wake-up): return the sandbox to the
            # reaper and retry from the *front* of the queue — a stale
            # hand-off must not cost the waiter its position.
            if executor is not None and executor.live:
                executor.cancel_reservation()
                self._arm_reaper(executor)
            requeue_front = True

    def release(self, executor: Executor) -> None:
        """Return an executor to the warm pool.

        A starved waiter (if any) is handed the executor directly;
        otherwise the idle-reaper is armed.
        """
        executor.mark_idle()
        self._offer(executor)

    def _offer(self, executor: Executor) -> None:
        """Route an idle executor to the oldest live waiter, else arm
        the idle-reaper.

        The executor is *reserved* (marked busy) before the waiter is
        woken: the succeed only schedules the waiter's resumption, and
        an arrival that runs in between must not see the sandbox in
        :attr:`idle` and steal it — that is the release/reap race that
        made grant ordering non-FIFO. A sandbox stranded on a dead node
        is never handed to a waiter; it goes straight to the reaper.
        """
        if executor.node.alive:
            while self._waiters:
                waiter = self._waiters.popleft()
                self._track_queue_depth()
                if not waiter.triggered:
                    executor.mark_busy()
                    waiter.succeed(executor)
                    return
        self._arm_reaper(executor)

    def _abandon_wait(self, waiter) -> None:
        """Clean up after a starved acquire that died waiting.

        A still-queued waiter is removed. One that already received an
        executor (the release raced the interrupt) re-offers it so the
        sandbox is not stranded forever-idle with its reaper unarmed.
        """
        try:
            self._waiters.remove(waiter)
            self._track_queue_depth()
            return
        except ValueError:
            pass
        if waiter.triggered and waiter.ok:
            handed = waiter.value
            if handed is not None and handed.live and handed.busy:
                # Still carrying the reservation _offer made for the
                # now-dead waiter: cancel it and re-circulate.
                handed.cancel_reservation()
                self._offer(handed)

    def _arm_reaper(self, executor: Executor) -> None:
        """Stamp the idle executor's keep-alive deadline and make sure
        a reaper wakes by it.

        The window length is read here, at release time, so an
        adaptive keep-alive applies to executors released after the
        change. Each executor has one reaper, not one per release: a
        new one is spawned only when none is armed, or when the new
        deadline is earlier than the armed wake (:meth:`set_keep_alive`
        shrank the window); the superseded reaper then exits when it
        wakes.
        """
        reap_at = self.sim.now + self.keep_alive
        executor.reap_at = reap_at
        wake = executor.reaper_wake
        if wake is None or reap_at < wake:
            executor.reaper_wake = reap_at
            self.sim.spawn(self._reap_after_idle(executor, reap_at),
                           name=f"reap:{self.name}", inherit_context=False)

    def _reap_after_idle(self, executor: Executor,
                         wake: float) -> Generator:
        """Shut the executor down if it is still idle at its
        :attr:`~Executor.reap_at` deadline.

        A reaper that wakes before the deadline (the executor was
        re-used and released again since it was armed) sleeps on until
        the new deadline, at that absolute instant, so the reap time is
        exactly the last release plus its keep-alive. One that finds
        the executor busy or gone disarms; the next release re-arms. A
        :attr:`target_warm` floor set by the autoscale controller vetoes
        the reap and disarms; lowering the floor re-arms it.
        """
        while True:
            yield self.sim.timeout_at(wake)
            if executor.reaper_wake != wake:
                return  # superseded by an earlier-armed reaper
            if not executor.live or executor.busy:
                executor.reaper_wake = None
                return
            if executor.reap_at <= wake:
                break
            # Released again since this wake was armed: sleep on.
            wake = executor.reaper_wake = executor.reap_at
        executor.reaper_wake = None
        if self.target_warm is not None and self.size <= self.target_warm:
            return
        executor.shutdown()
        self._track_size()
        self.reaped += 1

    # -- controller actuation ----------------------------------------------
    def set_keep_alive(self, keep_alive: float) -> None:
        """Adapt the idle window; applies to executors released from
        now on."""
        if keep_alive < 0:
            raise ValueError("negative keep_alive")
        self.keep_alive = keep_alive

    def prewarm(self) -> Generator:
        """Provision one idle executor ahead of demand (controller path).

        Unlike the demand cold start in :meth:`acquire`, a prewarmed
        sandbox is *not* claimed: it lands idle (or is handed straight
        to a starved waiter) and does not count as a cold start —
        ``warmpool.prewarm`` counts it instead. Respects the executor
        cap; returns ``None`` when the cap or the cluster refuses.
        """
        if (self.max_executors is not None
                and self.size + self._provisioning >= self.max_executors):
            self.prewarm_skipped += 1
            return None
        node = self.placer(self.resources, self.platform, None)
        if node is None:
            self.prewarm_failed += 1
            return None
        executor = Executor(self.sim, node, self.platform, self.resources,
                            tracer=self.tracer, prewarmed=True)
        self._provisioning += 1
        self._track_size()
        try:
            with self.tracer.span("warmpool.prewarm", pool=self.name,
                                  node=node.node_id,
                                  platform=self.platform.name):
                yield from executor.provision()
        finally:
            self._provisioning -= 1
            self._track_size()
        self._executors.append(executor)
        self.prewarmed += 1
        self._track_size()
        # Same reserved hand-off as release(): a starved waiter gets
        # the sandbox already claimed, else the reaper is armed.
        self._offer(executor)
        return executor

    def shrink(self, count: int) -> int:
        """Shut down up to ``count`` idle executors now (controller
        downscaling); busy executors are never touched. Returns how
        many were reaped."""
        reaped = 0
        for executor in self.idle:
            if reaped >= count:
                break
            executor.shutdown()
            reaped += 1
        if reaped:
            self._track_size()
            self.shrunk += reaped
        return reaped

    def drain(self) -> None:
        """Immediately shut down all idle executors (tests/teardown)."""
        for executor in self.idle:
            executor.shutdown()
        self._track_size()

    def live_executor_seconds(self, now: float) -> float:
        """Integrated sandbox-liveness (provider-side memory held),
        the cost of keep-alive warmth that pay-per-use bills hide."""
        return self._live_gauge.integral(now)
