"""Closed-loop autoscaling: a metrics-driven controller over warm pools.

The paper's efficiency argument (§4.2) rests on scale-from-zero — "an
unused function costs nothing" — yet fixed ``keep_alive`` /
``max_executors`` knobs cannot react to load. This module closes the
loop: a periodic :class:`AutoscaleController` simulation process reads
the sampled ``warmpool.*`` time series from the
:class:`~repro.sim.metrics_registry.LabeledMetricsRegistry`, asks a
pluggable :class:`AutoscalePolicy` for per-pool targets, and actuates
two levers on every registered :class:`~repro.faas.autoscale.WarmPool`:

* a **target warm count** — pre-provisioning executors ahead of demand
  (:meth:`WarmPool.prewarm`) and reaping idle ones beyond the target
  (:meth:`WarmPool.shrink`); while set, the target is also a *floor*
  the keep-alive reaper respects;
* an **adaptive keep-alive** — stretched under sustained load so
  warmth survives inter-burst valleys, reset once the pool scales back
  to zero so an idle function really does cost nothing.

Policies:

* :class:`FixedPolicy` — never actuates; a pool under it behaves
  byte-for-byte like a pool under an unstarted controller (the control
  arm of the regression gate).
* :class:`QueueDepthPolicy` — PI-style control on queue depth with a
  demand feed-forward term (busy + queued concurrency).
* :class:`HitRatePolicy` — scales on the cold-start ratio of the
  sampled window.

Every decision is observable: ``autoscale.tick`` / ``autoscale.resize``
spans, ``autoscale.target`` gauges and ``autoscale.action`` counters
(labeled by pool), and a structured :attr:`AutoscaleController.history`
of :class:`TickRecord` rows that the deterministic controller test
harness asserts convergence/stability/scale-to-zero against.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.metrics_registry import LabeledMetricsRegistry
from ..sim.trace import NULL_TRACER, Tracer
from .autoscale import WarmPool

#: Default seconds between controller ticks.
DEFAULT_INTERVAL = 5.0


@dataclass(frozen=True)
class PoolObservation:
    """What a policy sees about one pool at one tick.

    Window quantities (``arrivals``, ``cold_starts``, ``warm_hits``)
    cover the sampled interval since the previous tick; the rest are
    instantaneous levels at tick time.
    """

    now: float
    window: float
    size: int
    provisioning: int
    busy: int
    queue_depth: int
    arrivals: float
    cold_starts: float
    warm_hits: float
    target_warm: Optional[int]
    keep_alive: float

    @property
    def demand(self) -> int:
        """Concurrency the pool must serve right now."""
        return self.busy + self.queue_depth

    @property
    def idle_window(self) -> bool:
        """True when nothing arrived and nothing is in flight."""
        return self.arrivals <= 0 and self.demand == 0 \
            and self.provisioning == 0


@dataclass(frozen=True)
class Decision:
    """A policy's verdict for one pool: ``None`` fields mean "leave
    the lever alone" (``FixedPolicy`` returns both as ``None``)."""

    target_warm: Optional[int] = None
    keep_alive: Optional[float] = None
    reason: str = ""


@dataclass(frozen=True)
class TickRecord:
    """One (tick, pool) row of controller history — the deterministic
    harness asserts convergence and stability over these."""

    now: float
    pool: str
    observation: PoolObservation
    decision: Decision
    actions: Tuple[str, ...]


class AutoscalePolicy:
    """Base policy: stateful, one instance per pool."""

    name = "base"

    def decide(self, obs: PoolObservation) -> Decision:
        raise NotImplementedError


class FixedPolicy(AutoscalePolicy):
    """The null controller: observe, never actuate.

    A pool under ``FixedPolicy`` keeps its constructor ``keep_alive``
    and demand-driven sizing exactly — the regression gate pins that a
    run with this policy is behavior-identical to a run with no
    controller at all.
    """

    name = "fixed"

    def decide(self, obs: PoolObservation) -> Decision:
        return Decision(reason="fixed")


class _IdleExpiry:
    """Shared idle bookkeeping: policies scale to zero once the pool
    has been idle longer than its *current* keep-alive window — so a
    stretched window (earned by cold starts under load) also buys the
    pool a longer grace before teardown, and an untouched pool still
    vanishes.  Returns a :class:`Decision` while idle, ``None`` when
    the tick is active (caller proceeds with its loaded-path logic)."""

    def __init__(self, min_keep_alive: float):
        self.min_keep_alive = min_keep_alive
        self._idle_since: Optional[float] = None

    def idle_decision(self, obs: PoolObservation) -> Optional[Decision]:
        if not obs.idle_window:
            self._idle_since = None
            return None
        if self._idle_since is None:
            # Activity stopped somewhere inside the last window; charge
            # the idle clock from the window's start, not its end.
            self._idle_since = obs.now - obs.window
        idle_for = obs.now - self._idle_since
        if idle_for >= obs.keep_alive:
            return Decision(target_warm=0,
                            keep_alive=self.min_keep_alive,
                            reason=f"idle {idle_for:.0f}s >= keep-alive "
                                   f"{obs.keep_alive:.0f}s: scale to zero")
        return Decision(reason=f"idle: cooling ({idle_for:.0f}s of "
                               f"{obs.keep_alive:.0f}s)")


class QueueDepthPolicy(AutoscalePolicy):
    """PI control on queue depth with demand feed-forward.

    Target: ``ceil(smoothed demand * (1 + headroom) + integral)`` where
    the integral accumulates queue-depth error (requests waiting means
    the pool is undersized *now*) and bleeds off once the queue clears.

    Keep-alive: every window that *observes cold starts* is evidence
    the retention window was too short, so it is stretched by
    ``stretch`` (capped at ``max_keep_alive``) — recurring bursts find
    the pool still warm across valleys shorter than the stretched
    window. Once the pool sits idle longer than the window it scales
    to zero and keep-alive resets to ``min_keep_alive``: an unused
    function goes back to costing nothing.
    """

    name = "queue-depth"

    def __init__(self, setpoint: float = 0.0, headroom: float = 0.25,
                 gain: float = 0.5, smoothing: float = 0.5,
                 stretch: float = 2.0,
                 min_keep_alive: float = 1.0,
                 max_keep_alive: float = 600.0,
                 downscale_patience: int = 3):
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        if stretch < 1 or min_keep_alive < 0 \
                or max_keep_alive < min_keep_alive:
            raise ValueError("invalid keep-alive bounds")
        if downscale_patience < 1:
            raise ValueError("downscale_patience must be >= 1")
        self.setpoint = setpoint
        self.headroom = headroom
        self.gain = gain
        self.smoothing = smoothing
        self.stretch = stretch
        self.min_keep_alive = min_keep_alive
        self.max_keep_alive = max_keep_alive
        self.downscale_patience = downscale_patience
        self._demand_ema: Optional[float] = None
        self._integral = 0.0
        self._over_ticks = 0
        self._expiry = _IdleExpiry(min_keep_alive)

    def _stretched(self, obs: PoolObservation) -> Optional[float]:
        """Cold starts in the window mean the retention window was too
        short; each one compounds the stretch (capped), so one heavy
        cold burst immediately buys a window long enough to survive a
        much longer valley."""
        if obs.cold_starts <= 0:
            return None
        factor = self.stretch ** min(int(obs.cold_starts), 3)
        return min(self.max_keep_alive,
                   max(obs.keep_alive, self.min_keep_alive) * factor)

    def decide(self, obs: PoolObservation) -> Decision:
        idle = self._expiry.idle_decision(obs)
        if idle is not None:
            self._integral = 0.0
            self._over_ticks = 0
            return idle

        alpha = self.smoothing
        if self._demand_ema is None:
            # Warm-start: an EMA climbing from zero would lag the first
            # burst and propose shrinking a pool that is fully busy.
            self._demand_ema = float(obs.demand)
        else:
            self._demand_ema = (alpha * obs.demand
                                + (1 - alpha) * self._demand_ema)
        error = obs.queue_depth - self.setpoint
        if error > 0:
            self._integral += self.gain * error
        else:
            self._integral *= 0.5  # queue clear: bleed the windup off
        target = math.ceil(self._demand_ema * (1 + self.headroom)
                           + self._integral)
        # Never target below what is busy right now: shrinking capacity
        # that is actively serving forces cold starts next window.
        target = max(target, obs.busy,
                     1 if obs.arrivals > 0 else 0)
        if target < obs.size + obs.provisioning and obs.queue_depth == 0:
            # Downscale hysteresis: excess must persist before any
            # shrink, so a one-tick demand dip cannot oscillate.
            self._over_ticks += 1
            if self._over_ticks < self.downscale_patience:
                target = obs.size + obs.provisioning
        else:
            self._over_ticks = 0
        return Decision(target_warm=target,
                        keep_alive=self._stretched(obs),
                        reason=f"demand={obs.demand} queue="
                               f"{obs.queue_depth}")


class HitRatePolicy(AutoscalePolicy):
    """Scale on the windowed cold-start ratio.

    When the fraction of window acquires that cold-started exceeds
    ``1 - target_hit_rate``, the pool was too cold: raise the target
    above the current footprint by the number of observed cold starts.
    Warm-enough windows hold. Idle handling (and the keep-alive
    stretch) mirrors :class:`QueueDepthPolicy`.
    """

    name = "hit-rate"

    def __init__(self, target_hit_rate: float = 0.9,
                 stretch: float = 2.0,
                 min_keep_alive: float = 1.0,
                 max_keep_alive: float = 600.0):
        if not 0 < target_hit_rate <= 1:
            raise ValueError("target_hit_rate must be in (0, 1]")
        if stretch < 1 or min_keep_alive < 0 \
                or max_keep_alive < min_keep_alive:
            raise ValueError("invalid keep-alive bounds")
        self.target_hit_rate = target_hit_rate
        self.stretch = stretch
        self.min_keep_alive = min_keep_alive
        self.max_keep_alive = max_keep_alive
        self._expiry = _IdleExpiry(min_keep_alive)

    def decide(self, obs: PoolObservation) -> Decision:
        idle = self._expiry.idle_decision(obs)
        if idle is not None:
            return idle
        keep_alive = None
        if obs.cold_starts > 0:
            factor = self.stretch ** min(int(obs.cold_starts), 3)
            keep_alive = min(self.max_keep_alive,
                             max(obs.keep_alive, self.min_keep_alive)
                             * factor)
        served = obs.cold_starts + obs.warm_hits
        if served > 0:
            hit_rate = obs.warm_hits / served
            if hit_rate < self.target_hit_rate:
                target = (obs.size + obs.provisioning
                          + int(math.ceil(obs.cold_starts)))
                return Decision(target_warm=target, keep_alive=keep_alive,
                                reason=f"hit_rate={hit_rate:.2f}")
        # Warm enough: hold both levers (the keep-alive reaper decays
        # the pool toward the existing floor on its own).
        return Decision(keep_alive=keep_alive, reason="warm enough")


#: Policy registry for string specs (PCSICloud(autoscale="queue-depth")).
POLICIES: Dict[str, type] = {
    FixedPolicy.name: FixedPolicy,
    QueueDepthPolicy.name: QueueDepthPolicy,
    HitRatePolicy.name: HitRatePolicy,
}


def make_policy_factory(spec) -> Callable[[], AutoscalePolicy]:
    """Normalize a policy spec into a per-pool factory.

    Accepts a registry name (``"queue-depth"``), a policy class, a
    configured *prototype* instance (deep-copied per pool so state is
    never shared), or an explicit zero-argument factory.
    """
    if isinstance(spec, str):
        try:
            cls = POLICIES[spec]
        except KeyError:
            raise ValueError(
                f"unknown autoscale policy {spec!r}; "
                f"choose from {sorted(POLICIES)}") from None
        return cls
    if isinstance(spec, type) and issubclass(spec, AutoscalePolicy):
        return spec
    if isinstance(spec, AutoscalePolicy):
        return lambda: copy.deepcopy(spec)
    if callable(spec):
        return spec
    raise TypeError(f"cannot build an autoscale policy from {spec!r}")


class AutoscaleController:
    """The periodic control loop over every registered warm pool.

    Runs as a simulation process (:meth:`start`). Each tick it samples
    the labeled registry (so the ``warmpool.*`` series are fresh),
    builds a :class:`PoolObservation` per pool from windowed series
    reads, asks that pool's policy instance for a :class:`Decision`,
    and actuates. Between bursts of activity the loop *parks* on an
    event instead of ticking — an idle controller schedules nothing,
    so a drained simulation still terminates — and any pool acquire
    (or registration) wakes it.
    """

    def __init__(self, sim: Simulator, metrics: LabeledMetricsRegistry,
                 policy_factory: Callable[[], AutoscalePolicy],
                 interval: float = DEFAULT_INTERVAL,
                 tracer: Optional[Tracer] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.metrics = metrics
        self.policy_factory = policy_factory
        self.interval = interval
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._pools: List[Tuple[WarmPool, AutoscalePolicy]] = []
        self.history: List[TickRecord] = []
        self.ticks = 0
        self._last_tick = sim.now
        self._wake = None
        self._process = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the control loop (idempotent; context-detached)."""
        if self._process is None:
            self._process = self.sim.spawn(self._run(),
                                           name="autoscale-controller",
                                           inherit_context=False)

    def register(self, pool: WarmPool) -> None:
        """Put a pool under control (fresh policy instance) and wake."""
        pool.controller = self
        self._pools.append((pool, self.policy_factory()))
        self.notify_activity()

    def notify_activity(self) -> None:
        """Unpark the loop (called on registration and every acquire)."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _parked(self) -> bool:
        """True when every pool is fully drained — nothing to control,
        so the loop should stop scheduling ticks."""
        return all(pool.size == 0 and pool.provisioning == 0
                   and pool.waiting == 0 for pool, _ in self._pools)

    def _run(self) -> Generator:
        while True:
            if self._parked():
                self._wake = self.sim.event(name="autoscale:wake")
                yield self._wake
                self._wake = None
            yield self.sim.timeout(self.interval)
            self.tick()

    # -- the loop body -----------------------------------------------------
    def tick(self) -> None:
        """One synchronous control step (also callable from tests)."""
        now = self.sim.now
        since = self._last_tick
        self.metrics.sample(now)
        with self.tracer.span("autoscale.tick", pools=len(self._pools)):
            for pool, policy in self._pools:
                obs = self._observe(pool, since, now)
                decision = policy.decide(obs)
                actions = self._actuate(pool, obs, decision)
                self.history.append(TickRecord(
                    now=now, pool=pool.name, observation=obs,
                    decision=decision, actions=tuple(actions)))
        self.ticks += 1
        self._last_tick = now

    def _observe(self, pool: WarmPool, since: float,
                 now: float) -> PoolObservation:
        cold = self.metrics.window_delta(
            "warmpool.acquire", since, pool=pool.name, outcome="cold")
        warm = self.metrics.window_delta(
            "warmpool.acquire", since, pool=pool.name, outcome="warm")
        arrivals = self.metrics.window_delta(
            "warmpool.acquire", since, pool=pool.name)
        return PoolObservation(
            now=now, window=now - since, size=pool.size,
            provisioning=pool.provisioning, busy=pool.busy_count,
            queue_depth=pool.waiting, arrivals=arrivals,
            cold_starts=cold, warm_hits=warm,
            target_warm=pool.target_warm, keep_alive=pool.keep_alive)

    def _actuate(self, pool: WarmPool, obs: PoolObservation,
                 decision: Decision) -> List[str]:
        actions: List[str] = []
        if decision.keep_alive is not None \
                and decision.keep_alive != pool.keep_alive:
            pool.set_keep_alive(decision.keep_alive)
            actions.append("keep_alive")
        if decision.target_warm is not None:
            target = max(0, decision.target_warm)
            if pool.max_executors is not None:
                target = min(target, pool.max_executors)
            pool.target_warm = target
            self._gauge_target(pool, target)
            have = pool.size + pool.provisioning
            if have < target:
                grow = target - have
                with self.tracer.span("autoscale.resize", pool=pool.name,
                                      direction="up", count=grow,
                                      target=target):
                    for _ in range(grow):
                        self.sim.spawn(pool.prewarm(),
                                       name=f"prewarm:{pool.name}",
                                       inherit_context=False)
                actions.append(f"scale_up:{grow}")
            elif target == 0 and have > 0:
                # The controller only ever *reaps* to zero (idle
                # expiry). Decay above the floor stays the keep-alive
                # reaper's job (lowering ``target_warm`` re-arms the
                # reapers it vetoed): actively shrinking a pool that still
                # sees traffic would destroy warmth the retention
                # window was bought to keep, and re-cold-start the
                # very next overlap.
                reaped = pool.shrink(have)
                if reaped:
                    with self.tracer.span("autoscale.resize",
                                          pool=pool.name,
                                          direction="down", count=reaped,
                                          target=target):
                        pass
                    actions.append(f"scale_down:{reaped}")
        self._count_actions(pool, actions)
        return actions

    # -- telemetry ---------------------------------------------------------
    def _gauge_target(self, pool: WarmPool, target: int) -> None:
        self.metrics.gauge("autoscale.target", pool=pool.name) \
            .set(target, self.sim.now)

    def _count_actions(self, pool: WarmPool, actions: List[str]) -> None:
        kinds = [a.split(":", 1)[0] for a in actions] or ["hold"]
        for kind in kinds:
            self.metrics.counter("autoscale.action", pool=pool.name,
                                 action=kind).add(1)

    # -- introspection -----------------------------------------------------
    def pool_history(self, pool_name: str) -> List[TickRecord]:
        """This pool's tick records, in time order."""
        return [r for r in self.history if r.pool == pool_name]

    def targets(self, pool_name: str) -> List[Tuple[float, int]]:
        """The actuated ``(t, target)`` trajectory for one pool."""
        return [(r.now, r.decision.target_warm)
                for r in self.pool_history(pool_name)
                if r.decision.target_warm is not None]
