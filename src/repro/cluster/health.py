"""Self-healing health plane: detect, contain, recover.

The RESTless cloud's position is that the *platform* owns the hard
distributed-systems problems; the application just writes functions.
PR 4 gave the substrate the ability to inject partial failure
(crashes, gray nodes, partitions) — this module gives the platform the
ability to notice and survive it. Four cooperating mechanisms, each
independently defaulting to "off" (a cloud built without a health
plane replays the seed event sequence bit for bit):

1. **Phi-accrual failure detection** (:class:`PhiAccrualDetector`).
   Every node runs a heartbeat process; the monitor scores each node's
   silence as ``phi = log10(P(still alive))^-1``, approximated for an
   exponential inter-arrival tail as ``0.4343 * elapsed / mean``.
   Crossing ``phi_suspect`` marks the node suspect; ``phi_confirm``
   declares it dead. Per-invoke outcome reports give a *fast path*:
   the first :class:`~repro.faas.platforms.ExecutorLostError` on a
   node is hard evidence and confirms it immediately, without waiting
   out the heartbeat tail. A confirmed-dead node whose heartbeats
   resume (rejoin) is reinstated through probation.

2. **Circuit breakers** (:class:`CircuitBreaker`), one per
   ``(function, node class)``. Closed → open on a consecutive-failure
   run or a windowed error rate; open → half-open after a seeded
   cool-off; half-open admits exactly ``probe_quota`` probes and
   closes only if all of them succeed. The scheduler's retry loop
   fails fast instead of backing off into an open breaker, and the
   admission gateway sheds a function's traffic at the front door when
   *every* breaker for it is open.

3. **Gray-node outlier ejection** (:class:`OutlierEjector`),
   Envoy-style: per-node warm-latency EMAs are compared against the
   peer median within the node class, and a run of consecutive
   failures on one node (deadline burns included — a gray node can be
   slow enough that no attempt survives to produce a latency sample)
   ejects it outright; either way a node is quarantined — but never
   more than ``max_eject_fraction`` of a class at once — and
   reinstated after a probation window with fresh statistics.

4. **Crash-safe in-flight recovery** (:class:`DispatchLedger` +
   :class:`CompletionLog`). The body runs inline in the attempt's own
   process, and every dispatch registers an entry carrying an
   idempotency key and that process; confirming a node dead interrupts
   the process of everything in flight there, so the doomed attempt
   ends *now* and the scheduler re-dispatches to a healthy node
   instead of waiting out a deadline. The completion log deduplicates
   by idempotency key while the invoke lasts: a re-dispatch that finds
   a recorded completion returns it without re-running the body —
   effectively-once completion.

Determinism: all randomness (breaker cool-off jitter, probe ordering)
comes from a :class:`~repro.sim.rng.RandomStream` forked per breaker
by label, so transitions replay bit-identically for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..sim.engine import Interrupt, Process, Simulator
from ..sim.metrics_registry import LabeledMetricsRegistry
from ..sim.rng import RandomStream
from ..sim.trace import NULL_TRACER, Tracer
from .topology import Topology

#: ``log10(e)`` — scales exponential-tail suspicion onto the phi scale.
_LOG10_E = 0.4342944819032518

#: Detector states, exported as the ``health.state{node}`` gauge level.
HEALTHY, SUSPECT, DEAD = 0, 1, 2
_STATE_NAMES = {HEALTHY: "healthy", SUSPECT: "suspect", DEAD: "dead"}

#: Breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitOpenError(Exception):
    """Dispatch refused: the (fn, node class) breaker is open."""

    def __init__(self, fn: str, node_class: str):
        super().__init__(f"circuit open for {fn!r} on {node_class!r} nodes")
        self.fn = fn
        self.node_class = node_class


class InvokeOrphanedError(Exception):
    """The node hosting an in-flight invoke was confirmed dead.

    Raised out of the guarded attempt the moment the detector confirms
    the host, so the platform can re-dispatch without waiting for the
    attempt's own timeout. Carries the dead node and the confirmation
    cause for the ``invoke.recovered{cause}`` counter.
    """

    def __init__(self, node_id: str, cause: str):
        super().__init__(f"invoke orphaned: node {node_id} {cause}")
        self.node_id = node_id
        self.cause = cause


@dataclass(frozen=True)
class HealthConfig:
    """Tuning surface for the health plane (all times in sim seconds)."""

    #: Seed for breaker jitter / probe admission (forked by label).
    seed: int = 0

    # -- phi-accrual detector ---------------------------------------
    #: Heartbeat emission period per node; also the monitor's tick.
    heartbeat_interval: float = 0.2
    #: Phi at which a node becomes *suspect* (avoided by placement).
    phi_suspect: float = 1.0
    #: Phi at which a node is *confirmed* dead (orphans fire).
    phi_confirm: float = 2.0
    #: EMA weight for the heartbeat inter-arrival mean.
    interval_alpha: float = 0.2

    # -- circuit breakers (per fn x node class) ---------------------
    #: Consecutive failures that open the breaker outright.
    breaker_consecutive: int = 5
    #: Sliding outcome-window length for the error-rate trigger.
    breaker_window: int = 16
    #: Minimum outcomes in the window before the rate can trigger.
    breaker_min_requests: int = 8
    #: Error rate (over the window) that opens the breaker.
    breaker_error_rate: float = 0.5
    #: Base cool-off before an open breaker goes half-open.
    breaker_open_duration: float = 2.0
    #: Seeded jitter fraction applied to the cool-off.
    breaker_jitter: float = 0.1
    #: Probes admitted in half-open; all must succeed to close.
    breaker_probe_quota: int = 3

    # -- gray-node outlier ejection ---------------------------------
    #: Warm-latency samples a node needs before it can be judged.
    eject_min_samples: int = 5
    #: Eject when node EMA > factor x peer median (same node class).
    eject_deviation: float = 3.0
    #: Eject after this many failures in a row on one node (the
    #: Envoy-style mode — catches gray nodes whose service time blew
    #: past every deadline, which never produce a latency sample).
    eject_consecutive_failures: int = 8
    #: Cap on the quarantined fraction of any one node class.
    max_eject_fraction: float = 0.25
    #: Quarantine length; reinstatement resets the node's statistics.
    probation: float = 5.0
    #: EMA weight for per-node warm latency.
    latency_alpha: float = 0.3

    # -- crash recovery ---------------------------------------------
    #: Platform-owned re-dispatches per invoke (beyond user retries).
    max_recoveries: int = 3

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if not 0 < self.phi_suspect <= self.phi_confirm:
            raise ValueError("need 0 < phi_suspect <= phi_confirm")
        if self.breaker_consecutive < 1 or self.breaker_probe_quota < 1:
            raise ValueError("breaker thresholds must be >= 1")
        if not 0 < self.breaker_error_rate <= 1:
            raise ValueError("breaker_error_rate must be in (0, 1]")
        if self.breaker_min_requests < 1 \
                or self.breaker_min_requests > self.breaker_window:
            raise ValueError("breaker_min_requests must fit the window")
        if self.breaker_open_duration <= 0:
            raise ValueError("breaker_open_duration must be positive")
        if not 0 <= self.breaker_jitter < 1:
            raise ValueError("breaker_jitter must be in [0, 1)")
        if self.eject_deviation <= 1:
            raise ValueError("eject_deviation must exceed 1")
        if self.eject_consecutive_failures < 1:
            raise ValueError("eject_consecutive_failures must be >= 1")
        if not 0 <= self.max_eject_fraction < 1:
            raise ValueError("max_eject_fraction must be in [0, 1)")
        if self.probation <= 0:
            raise ValueError("probation must be positive")
        if not 0 < self.interval_alpha <= 1 or not 0 < self.latency_alpha <= 1:
            raise ValueError("EMA weights must be in (0, 1]")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")


class _NodeHealth:
    """Phi-accrual state for one node."""

    __slots__ = ("node_id", "state", "last_beat", "mean_interval",
                 "phi", "confirmed_cause")

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.state = HEALTHY
        self.last_beat: Optional[float] = None
        self.mean_interval: Optional[float] = None
        self.phi = 0.0
        self.confirmed_cause: Optional[str] = None


class PhiAccrualDetector:
    """Scores node silence; confirms death; reinstates rejoiners.

    ``on_confirm(node_id, cause)`` fires exactly once per death (the
    health plane uses it to orphan the dead node's in-flight ledger
    entries); a node is eligible to be confirmed again only after its
    heartbeats resume and it is reinstated.
    """

    def __init__(self, config: HealthConfig,
                 on_confirm: Optional[Callable[[str, str], None]] = None):
        self.config = config
        self.on_confirm = on_confirm
        self._nodes: Dict[str, _NodeHealth] = {}
        #: (node_id, confirmed_at, cause), in confirmation order.
        self.confirmations: List[Tuple[str, float, str]] = []
        #: (node_id, reinstated_at), in reinstatement order.
        self.reinstatements: List[Tuple[str, float]] = []

    def _entry(self, node_id: str) -> _NodeHealth:
        entry = self._nodes.get(node_id)
        if entry is None:
            entry = self._nodes[node_id] = _NodeHealth(node_id)
        return entry

    def beat(self, node_id: str, now: float) -> bool:
        """Record a heartbeat; returns True if the node was reinstated."""
        entry = self._entry(node_id)
        if entry.last_beat is not None:
            interval = now - entry.last_beat
            if entry.mean_interval is None:
                entry.mean_interval = interval
            else:
                a = self.config.interval_alpha
                entry.mean_interval += a * (interval - entry.mean_interval)
        entry.last_beat = now
        entry.phi = 0.0
        if entry.state != HEALTHY:
            reinstated = entry.state == DEAD
            entry.state = HEALTHY
            entry.confirmed_cause = None
            if reinstated:
                self.reinstatements.append((node_id, now))
            return reinstated
        return False

    def rebase(self, node_id: str, now: float) -> None:
        """Reset the beat clock without recording an inter-arrival.

        Used when the monitor wakes from a park: the silent gap was
        scheduling, not suspicion, so phi restarts from zero while the
        learned mean interval is left untouched.
        """
        entry = self._entry(node_id)
        entry.last_beat = now
        entry.phi = 0.0

    def phi(self, node_id: str, now: float) -> float:
        """Suspicion level: 0 right after a beat, grows with silence."""
        entry = self._nodes.get(node_id)
        if entry is None or entry.last_beat is None:
            return 0.0
        mean = entry.mean_interval or self.config.heartbeat_interval
        return _LOG10_E * (now - entry.last_beat) / mean

    def state(self, node_id: str) -> int:
        entry = self._nodes.get(node_id)
        return entry.state if entry is not None else HEALTHY

    def evaluate(self, node_id: str, now: float) -> Optional[str]:
        """One monitor tick for one node.

        Returns ``"suspect"`` or ``"confirm"`` when the node crossed a
        threshold this tick (the caller records spans/metrics), else
        None.
        """
        entry = self._entry(node_id)
        if entry.state == DEAD:
            return None
        entry.phi = self.phi(node_id, now)
        if entry.state == HEALTHY and entry.phi >= self.config.phi_suspect:
            entry.state = SUSPECT
            if entry.phi >= self.config.phi_confirm:
                self._confirm(entry, now, "phi-accrual")
                return "confirm"
            return "suspect"
        if entry.state == SUSPECT and entry.phi >= self.config.phi_confirm:
            self._confirm(entry, now, "phi-accrual")
            return "confirm"
        return None

    def confirm(self, node_id: str, now: float, cause: str) -> bool:
        """Hard-confirm (outcome-report fast path). True if it fired."""
        entry = self._entry(node_id)
        if entry.state == DEAD:
            return False
        self._confirm(entry, now, cause)
        return True

    def _confirm(self, entry: _NodeHealth, now: float, cause: str) -> None:
        entry.state = DEAD
        entry.confirmed_cause = cause
        self.confirmations.append((entry.node_id, now, cause))
        if self.on_confirm is not None:
            self.on_confirm(entry.node_id, cause)


class CircuitBreaker:
    """One (fn, node class) breaker. Explicit-clock, fully seeded.

    All transitions are driven by ``allow`` / ``record_success`` /
    ``record_failure`` calls carrying ``now``; the only randomness is
    the cool-off jitter, drawn from the breaker's own forked stream at
    the moment the breaker opens — so a given call sequence replays to
    the same transitions every time.
    """

    def __init__(self, fn: str, node_class: str, config: HealthConfig,
                 rng: RandomStream):
        self.fn = fn
        self.node_class = node_class
        self.config = config
        self._rng = rng
        self.state = CLOSED
        self._consecutive = 0
        self._window: List[bool] = []   # True == failure
        self._reopen_at = 0.0
        self._probes_left = 0
        self._probe_successes = 0
        #: (now, new_state) transition log, for tests and debugging.
        self.transitions: List[Tuple[float, str]] = []

    def _transition(self, now: float, state: str) -> None:
        self.state = state
        self.transitions.append((now, state))

    def _open(self, now: float) -> None:
        jitter = 1.0 + self.config.breaker_jitter * self._rng.uniform()
        self._reopen_at = now + self.config.breaker_open_duration * jitter
        self._consecutive = 0
        self._window.clear()
        self._transition(now, OPEN)

    def _maybe_half_open(self, now: float) -> None:
        if self.state == OPEN and now >= self._reopen_at:
            self._probes_left = self.config.breaker_probe_quota
            self._probe_successes = 0
            self._transition(now, HALF_OPEN)

    def allow(self, now: float) -> bool:
        """Admission check for one dispatch (consumes a probe slot)."""
        self._maybe_half_open(now)
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN and self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    def would_allow(self, now: float) -> bool:
        """Non-consuming admission check (gateway shed decisions)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return now >= self._reopen_at  # would go half-open
        return self._probes_left > 0

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.breaker_probe_quota:
                self._consecutive = 0
                self._window.clear()
                self._transition(now, CLOSED)
            return
        if self.state == CLOSED:
            self._consecutive = 0
            self._push(False)

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._open(now)   # one failed probe re-opens
            return
        if self.state != CLOSED:
            return
        self._consecutive += 1
        self._push(True)
        if self._consecutive >= self.config.breaker_consecutive:
            self._open(now)
            return
        if len(self._window) >= self.config.breaker_min_requests:
            rate = sum(self._window) / len(self._window)
            if rate >= self.config.breaker_error_rate:
                self._open(now)

    def _push(self, failed: bool) -> None:
        self._window.append(failed)
        if len(self._window) > self.config.breaker_window:
            del self._window[0]


class BreakerBoard:
    """The registry of per-(fn, node class) breakers."""

    def __init__(self, config: HealthConfig, rng: RandomStream,
                 on_transition: Optional[
                     Callable[[CircuitBreaker, str], None]] = None):
        self.config = config
        self._rng = rng
        self._on_transition = on_transition
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def breaker(self, fn: str, node_class: str) -> CircuitBreaker:
        key = (fn, node_class)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                fn, node_class, self.config,
                self._rng.fork(f"breaker/{fn}/{node_class}"))
            self._breakers[key] = breaker
        return breaker

    def allow(self, fn: str, node_class: str, now: float) -> bool:
        breaker = self.breaker(fn, node_class)
        before = breaker.state
        allowed = breaker.allow(now)
        if breaker.state != before and self._on_transition is not None:
            self._on_transition(breaker, before)
        return allowed

    def record(self, fn: str, node_class: str, ok: bool,
               now: float) -> None:
        breaker = self.breaker(fn, node_class)
        before = breaker.state
        if ok:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)
        if breaker.state != before and self._on_transition is not None:
            self._on_transition(breaker, before)

    def any_would_allow(self, fn: str, now: float) -> bool:
        """True unless *every* breaker seen for ``fn`` refuses.

        A function with no breakers yet (no outcomes recorded) is
        admitted — breakers only exist once traffic has flowed.
        """
        mine = [b for (f, _), b in self._breakers.items() if f == fn]
        if not mine:
            return True
        return any(b.would_allow(now) for b in mine)

    def all_open(self, fn: str, now: float) -> bool:
        return not self.any_would_allow(fn, now)


class OutlierEjector:
    """Quarantines gray nodes: latency outliers and failure runs.

    Two complementary modes, both bounded by the same per-class
    ejection cap and probation window:

    * **latency** — a node's warm-latency EMA exceeds
      ``eject_deviation`` times the median of its node-class peers
      serving the *same function* (per-function grouping keeps a node
      hosting a long-running function from looking like an outlier
      next to peers serving only short ones);
    * **failures** — ``eject_consecutive_failures`` failures in a row
      on one node (the mode that catches a gray node so slow that
      every request dies by deadline and never yields a latency
      sample).
    """

    def __init__(self, config: HealthConfig):
        self.config = config
        #: (node_id, fn) -> warm-latency EMA / sample count.
        self._ema: Dict[Tuple[str, str], float] = {}
        self._count: Dict[Tuple[str, str], int] = {}
        self._consec: Dict[str, int] = {}
        self._class_of: Dict[str, str] = {}
        #: node -> reinstatement deadline.
        self._quarantined: Dict[str, float] = {}
        #: (node_id, at, reason, ema, peer_median) eject log; reason is
        #: "latency" or "failures" (median is 0 for failure ejects).
        self.ejections: List[Tuple[str, float, str, float, float]] = []
        #: (node_id, at) reinstatement log.
        self.reinstatements: List[Tuple[str, float]] = []

    def observe(self, node_id: str, node_class: str,
                latency: float, fn: str = "") -> None:
        """Feed one warm (non-cold-start) invoke latency sample."""
        self._class_of[node_id] = node_class
        key = (node_id, fn)
        count = self._count.get(key, 0)
        if count == 0:
            self._ema[key] = latency
        else:
            a = self.config.latency_alpha
            self._ema[key] += a * (latency - self._ema[key])
        self._count[key] = count + 1

    def record_result(self, node_id: str, node_class: str,
                      ok: bool) -> None:
        """Track the node's success/failure run (failure-mode input)."""
        self._class_of[node_id] = node_class
        if ok:
            self._consec.pop(node_id, None)
        else:
            self._consec[node_id] = self._consec.get(node_id, 0) + 1

    def is_quarantined(self, node_id: str) -> bool:
        return node_id in self._quarantined

    def quarantined_count(self) -> int:
        return len(self._quarantined)

    def reinstate(self, node_id: str, now: float) -> None:
        """Lift a node's quarantine with fresh statistics.

        Called when probation is served, and immediately when a
        quarantined node rejoins after a confirmed crash — the gray
        window's evidence died with the old incarnation.
        """
        if node_id not in self._quarantined:
            return
        del self._quarantined[node_id]
        for key in [k for k in self._count if k[0] == node_id]:
            del self._count[key]
            self._ema.pop(key, None)
        self._consec.pop(node_id, None)
        self.reinstatements.append((node_id, now))

    def evaluate(self, now: float) -> None:
        """One monitor tick: reinstate served probations, eject outliers."""
        for node_id in [n for n, until in self._quarantined.items()
                        if until <= now]:
            self.reinstate(node_id, now)
        by_class: Dict[str, List[str]] = {}
        for node_id, cls in self._class_of.items():
            by_class.setdefault(cls, []).append(node_id)
        for cls, members in by_class.items():
            cap = int(self.config.max_eject_fraction * len(members))

            def in_class_quarantined() -> int:
                return sum(1 for q in self._quarantined
                           if self._class_of.get(q) == cls)

            # Failure runs first: hard evidence beats statistics, and
            # it needs no peer comparison (a node failing everything is
            # gray no matter what the rest of the class looks like).
            for node_id in members:
                if node_id in self._quarantined:
                    continue
                if self._consec.get(node_id, 0) \
                        < self.config.eject_consecutive_failures:
                    continue
                if in_class_quarantined() >= cap:
                    break
                self._eject(node_id, now, "failures", 0.0, 0.0)
            # Latency pass, one peer group per function served by the
            # class: EMAs are only comparable like-for-like.
            fns = sorted({fn for (n, fn) in self._count
                          if self._class_of.get(n) == cls})
            for fn in fns:
                ripe = [n for n in members
                        if self._count.get((n, fn), 0)
                        >= self.config.eject_min_samples
                        and n not in self._quarantined]
                if len(ripe) < 2:
                    continue
                emas = sorted(self._ema[(n, fn)] for n in ripe)
                median = emas[len(emas) // 2]
                if median <= 0:
                    continue
                for node_id in ripe:
                    if node_id in self._quarantined:
                        continue
                    if in_class_quarantined() >= cap:
                        break
                    ema = self._ema[(node_id, fn)]
                    if ema > self.config.eject_deviation * median:
                        self._eject(node_id, now, "latency", ema, median)

    def _eject(self, node_id: str, now: float, reason: str,
               ema: float, median: float) -> None:
        self._quarantined[node_id] = now + self.config.probation
        self._consec.pop(node_id, None)
        self.ejections.append((node_id, now, reason, ema, median))


class _DispatchEntry:
    """One in-flight dispatch: where it runs and the process running it.

    ``outer`` is the dispatch this one is nested in on that process (a
    synchronous ``ctx.invoke`` runs its body inline in the caller's).
    """

    __slots__ = ("key", "node_id", "process", "outer", "cause", "settled",
                 "interrupted")

    def __init__(self, key: str, node_id: str, process: Optional[Process],
                 outer: Optional["_DispatchEntry"]):
        self.key = key
        self.node_id = node_id
        self.process = process
        self.outer = outer
        self.cause: Optional[str] = None
        self.settled = False
        self.interrupted = False


class DispatchLedger:
    """Tracks in-flight dispatches per node; interrupts them on death.

    Orphaning a dispatch interrupts the process running its body, with
    the entry as the interrupt's cause. Dispatches on one process nest;
    when several are orphaned at once, each process takes one interrupt
    at a time, and one for an outer dispatch unwinds the inner ones as
    cancelled. A process orphaned while it is running is interrupted
    once it next waits.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._by_node: Dict[str, Dict[_DispatchEntry, None]] = {}
        self._innermost: Dict[Optional[Process], _DispatchEntry] = {}
        self.orphaned_total = 0

    def register(self, key: str, node_id: str) -> _DispatchEntry:
        process = self._sim.active_process
        entry = _DispatchEntry(key, node_id, process,
                               self._innermost.get(process))
        self._innermost[process] = entry
        self._by_node.setdefault(node_id, {})[entry] = None
        return entry

    def settle(self, entry: _DispatchEntry) -> None:
        """The attempt finished (either way); forget the entry."""
        if self._innermost.get(entry.process) is entry:
            if entry.outer is None:
                del self._innermost[entry.process]
            else:
                self._innermost[entry.process] = entry.outer
        if entry.settled:
            return
        entry.settled = True
        entries = self._by_node[entry.node_id]
        del entries[entry]
        if not entries:
            del self._by_node[entry.node_id]

    def in_flight(self, node_id: str) -> int:
        return len(self._by_node.get(node_id, ()))

    def total_in_flight(self) -> int:
        return sum(len(v) for v in self._by_node.values())

    def orphan_node(self, node_id: str, cause: str) -> int:
        """Orphan everything in flight on ``node_id``."""
        entries = self._by_node.pop(node_id, {})
        for entry in entries:
            entry.settled = True
            entry.cause = cause
            self._interrupt(entry)
        self.orphaned_total += len(entries)
        return len(entries)

    def _interrupt(self, entry: _DispatchEntry,
                   deferred: bool = False) -> None:
        process = entry.process
        if process is None:
            return
        found = pending = False
        open_entry = self._innermost.get(process)
        while open_entry is not None:
            if open_entry is entry:
                found = True
            elif open_entry.cause is not None:
                pending = True
            open_entry = open_entry.outer
        if not found:
            return  # its body finished, or another interrupt unwound it
        sim = self._sim
        if process is sim.active_process or (pending and not deferred):
            # A second interrupt, or one sent to the running process,
            # would land after the process waits on something new and
            # resume it twice. Send it once the process next waits
            # (same-instant interrupts are delivered before this); an
            # orphaned outer dispatch's interrupt unwinds this one.
            later = sim.event(name="orphan")
            later.callbacks.append(lambda _: self._interrupt(entry, True))
            later.succeed()
            return
        entry.interrupted = True
        process.interrupt(entry)


_MISSING = object()


class CompletionLog:
    """Idempotency-key → result dedup table (effectively-once).

    It keeps no tally of its own: :attr:`HealthPlane.deduped` (and the
    ``invoke.deduped{fn}`` counter) count the lookups that hit.
    """

    def __init__(self):
        self._results: Dict[str, Any] = {}

    def lookup(self, key: str) -> Any:
        """Recorded result for ``key``, or the ``_MISSING`` sentinel."""
        return self._results.get(key, _MISSING)

    def record(self, key: str, result: Any) -> None:
        self._results.setdefault(key, result)

    def forget(self, key: str) -> None:
        """The invoke holding ``key`` is over: no dispatch can ask again."""
        self._results.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._results


class HealthPlane:
    """Facade wiring detector + breakers + ejector + ledger together.

    Construction wires nothing into the simulator; :meth:`start`
    spawns the per-node heartbeat emitters and the monitor loop. A
    cloud built with ``health=None`` gets :data:`NO_HEALTH` instead,
    whose hooks are no-ops, so the seed event sequence is untouched.

    ``metrics`` (the cloud's registry) and ``node_class_fn`` (node id
    → breaker node class) are required: the plane has one owner, the
    cloud, and it always has both.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 config: Optional[HealthConfig] = None, *,
                 metrics: LabeledMetricsRegistry,
                 node_class_fn: Callable[[str], str],
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.topology = topology
        self.config = config if config is not None else HealthConfig()
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._node_class_fn = node_class_fn
        self.rng = RandomStream(self.config.seed, "health")
        self.detector = PhiAccrualDetector(self.config,
                                           on_confirm=self._node_confirmed)
        self.breakers = BreakerBoard(self.config, self.rng,
                                     on_transition=self._breaker_moved)
        self.ejector = OutlierEjector(self.config)
        self.ledger = DispatchLedger(sim)
        self.completions = CompletionLog()
        self._started = False
        self._idem_seq = 0
        self._wake = None
        self._woken_at: Optional[float] = None
        # Observable tallies (experiments read these directly).
        self.orphaned = 0
        self.recovered = 0
        self.deduped = 0

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Spawn heartbeat emitters (one per node) and the monitor.

        The loops *park* (wait on a wake event instead of scheduling
        ticks) whenever nothing needs watching — no dispatch in
        flight, no suspicion to resolve, no quarantine to serve — so a
        health-enabled cloud still drains to completion under
        ``sim.run()``. Registering a dispatch unparks them.
        """
        if self._started:
            return
        self._started = True
        for node in self.topology.nodes:
            self.sim.spawn(self._heartbeat_loop(node),
                           name=f"health.beat:{node.node_id}",
                           inherit_context=False)
        self.sim.spawn(self._monitor_loop(), name="health.monitor",
                       inherit_context=False)

    def _active(self) -> bool:
        """Is there anything the loops must stay awake for?"""
        if self.ledger.total_in_flight() > 0:
            return True
        if self.ejector.quarantined_count() > 0:
            return True
        for node in self.topology.nodes:
            state = self.detector.state(node.node_id)
            if state == SUSPECT:
                return True
            if state == DEAD and node.alive:
                # A rejoiner waiting to be reinstated by heartbeats.
                return True
        return False

    def _park_event(self):
        """The event the loops wait on while parked (shared)."""
        if self._active():
            return None
        if self._wake is None or self._wake.triggered:
            self._wake = self.sim.event(name="health:wake")
        return self._wake

    def notify_activity(self) -> None:
        """Unpark the heartbeat/monitor loops."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _on_wake(self) -> None:
        """Reset beat clocks after a park (once per wake instant).

        Parked time is silence *by design*, not evidence of death:
        every alive node gets a fresh ``last_beat`` (without polluting
        the inter-arrival EMA) so phi resumes from zero.
        """
        now = self.sim.now
        if self._woken_at == now:
            return
        self._woken_at = now
        for node in self.topology.nodes:
            if node.alive:
                self.detector.rebase(node.node_id, now)

    def _heartbeat_loop(self, node):
        interval = self.config.heartbeat_interval
        while True:
            parked = self._park_event()
            if parked is not None:
                yield parked
                self._on_wake()
            yield self.sim.timeout(interval)
            if node.alive:
                reinstated = self.detector.beat(node.node_id, self.sim.now)
                if reinstated:
                    # A rebooted node starts clean: any gray-window
                    # quarantine belonged to its previous incarnation.
                    self.ejector.reinstate(node.node_id, self.sim.now)
                    self._count("health.reinstated", node=node.node_id,
                                mechanism="detector")
                    with self.tracer.span("health.reinstate",
                                          node=node.node_id):
                        pass

    def _monitor_loop(self):
        interval = self.config.heartbeat_interval
        while True:
            parked = self._park_event()
            if parked is not None:
                yield parked
                self._on_wake()
            yield self.sim.timeout(interval)
            now = self.sim.now
            for node in self.topology.nodes:
                crossed = self.detector.evaluate(node.node_id, now)
                if crossed == "suspect":
                    self._count("health.suspect", node=node.node_id)
                    with self.tracer.span("health.suspect",
                                          node=node.node_id,
                                          phi=self.detector.phi(
                                              node.node_id, now)):
                        pass
                elif crossed == "confirm":
                    self._record_confirm(node.node_id, "phi-accrual")
                self._gauge("health.phi",
                            self.detector.phi(node.node_id, now),
                            node=node.node_id)
                self._gauge("health.state",
                            self.detector.state(node.node_id),
                            node=node.node_id)
            before = len(self.ejector.ejections)
            self.ejector.evaluate(now)
            for node_id, at, reason, ema, median in \
                    self.ejector.ejections[before:]:
                self._count("health.ejected", node=node_id,
                            reason=reason)
                with self.tracer.span("health.eject", node=node_id,
                                      reason=reason, ema=ema,
                                      peer_median=median):
                    pass

    # -- detector surface --------------------------------------------

    def _node_confirmed(self, node_id: str, cause: str) -> None:
        # Fired by the detector exactly once per death: every invoke
        # still in flight on the corpse is orphaned immediately.
        self.ledger.orphan_node(node_id, cause)

    def _record_confirm(self, node_id: str, cause: str) -> None:
        self._count("health.confirm", node=node_id, cause=cause)
        with self.tracer.span("health.confirm", node=node_id,
                              cause=cause):
            pass

    def confirm_dead(self, node_id: str, cause: str) -> None:
        """Outcome-report fast path: hard evidence the node is gone."""
        if self.detector.confirm(node_id, self.sim.now, cause):
            self._record_confirm(node_id, cause)

    def avoid(self, node_id: str) -> bool:
        """Should placement / the warm pool skip this node right now?"""
        return (self.ejector.is_quarantined(node_id)
                or self.detector.state(node_id) != HEALTHY)

    # -- breaker surface ---------------------------------------------

    def node_class(self, node_id: str) -> str:
        return self._node_class_fn(node_id)

    def allow_dispatch(self, fn: str, node_id: str) -> bool:
        """Breaker admission for one attempt (consumes a probe slot)."""
        return self.breakers.allow(fn, self.node_class(node_id),
                                   self.sim.now)

    def dispatch_allowed(self, fn: str) -> bool:
        """Non-consuming: would *any* breaker for ``fn`` admit now?"""
        return self.breakers.any_would_allow(fn, self.sim.now)

    def all_breakers_open(self, fn: str) -> bool:
        return self.breakers.all_open(fn, self.sim.now)

    def _breaker_moved(self, breaker: CircuitBreaker, before: str) -> None:
        self._count("breaker.transition", fn=breaker.fn,
                    node_class=breaker.node_class, to=breaker.state)

    # -- outcome reports ----------------------------------------------

    def report_outcome(self, fn: str, node_id: str, *, ok: bool,
                       latency: Optional[float] = None,
                       warm: bool = False,
                       cause: Optional[str] = None) -> None:
        """Per-invoke outcome feed from the scheduler's attempt path."""
        cls = self.node_class(node_id)
        if cause != "deadline":
            # A deadline burned on one host is outlier evidence against
            # that host, not against the whole (fn, class) route: with
            # few node classes a shared breaker fed by per-node gray
            # failures would open cluster-wide and fail-fast healthy
            # traffic. Breakers see structural dispatch failures
            # (executor lost, network, app errors); the ejector alone
            # consumes deadline burns.
            self.breakers.record(fn, cls, ok, self.sim.now)
        if ok:
            self.ejector.record_result(node_id, cls, True)
            if warm and latency is not None:
                self.ejector.observe(node_id, cls, latency, fn)
            return
        if cause == "ExecutorLostError":
            # Hard evidence beats heartbeat statistics: the very first
            # lost executor confirms the node and orphans its peers.
            self.confirm_dead(node_id, "executor-lost")
        elif cause != "orphaned":
            # Node-death causes are the detector's business; everything
            # else (deadline burns, app errors) feeds the ejector's
            # consecutive-failure run for this node.
            self.ejector.record_result(node_id, cls, False)

    # -- recovery surface ---------------------------------------------

    def idempotency_key(self, fn: str) -> str:
        self._idem_seq += 1
        return f"{fn}#{self._idem_seq}"

    def register_dispatch(self, key: str, node_id: str) -> _DispatchEntry:
        entry = self.ledger.register(key, node_id)
        self.notify_activity()
        return entry

    def settle_dispatch(self, entry: _DispatchEntry) -> None:
        self.ledger.settle(entry)

    def forget_invoke(self, key: Optional[str]) -> None:
        """The request path holding ``key`` exited: drop its completion."""
        self.completions.forget(key)

    def run_body(self, fn: str, body, ctx, inv,
                 idem_key: Optional[str]) -> Generator:
        """Run one invoke's body inline, orphaned if its host dies.

        The dispatch is registered in the ledger with its idempotency
        key and the process running the body. If the detector confirms
        the host dead mid-flight, the ledger interrupts that process
        *immediately* and :class:`InvokeOrphanedError` tells the
        scheduler to re-dispatch — no waiting out a deadline on a
        corpse. The completion log is consulted first and written on
        success, so a re-dispatch (or losing hedge arm) that finds a
        recorded completion returns it without re-running the body:
        effectively-once completion.
        """
        node_id = inv.executor_node
        key = idem_key if idem_key is not None \
            else self.idempotency_key(fn)
        cached = self.completions.lookup(key)
        if cached is not _MISSING:
            self.deduped += 1
            self._count("invoke.deduped", fn=fn)
            return cached

        entry = self.register_dispatch(key, node_id)
        try:
            try:
                result = yield from body(ctx)
            finally:
                self.settle_dispatch(entry)
        except Exception as exc:
            # Once the orphan interrupt is in, the attempt is orphaned
            # whatever the body made of it (even a body that caught it
            # and failed otherwise).
            if entry.interrupted:
                raise self._orphaned(fn, entry)
            if isinstance(exc, Interrupt):
                if exc.cause == "deadline":
                    # A deadline burned on this host is evidence
                    # against it (gray nodes can be so slow that no
                    # attempt ever survives to produce a latency
                    # sample); a lost hedge race, or an orphaned
                    # dispatch this one is nested in, is not.
                    self.report_outcome(fn, node_id, ok=False,
                                        cause="deadline")
                raise
            self.report_outcome(fn, node_id, ok=False,
                                cause=type(exc).__name__)
            raise
        # Recorded before anything else runs, so a body that finished
        # as its host was confirmed dead is never re-executed.
        self.completions.record(key, result)
        if entry.interrupted:
            # The body caught its orphan interrupt and returned: the
            # re-dispatch finds this completion.
            raise self._orphaned(fn, entry)
        self.report_outcome(fn, node_id, ok=True,
                            latency=self.sim.now - inv.started_at,
                            warm=not inv.cold_start)
        return result

    def _orphaned(self, fn: str,
                  entry: _DispatchEntry) -> InvokeOrphanedError:
        self.report_outcome(fn, entry.node_id, ok=False, cause="orphaned")
        return InvokeOrphanedError(entry.node_id, entry.cause)

    # -- metrics helpers ----------------------------------------------

    def _count(self, name: str, **labels: Any) -> None:
        self.metrics.counter(name, **labels).add()

    def _gauge(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.gauge(name, **labels).set(value, self.sim.now)


class NoHealth:
    """The health plane of a cloud built without one.

    The scheduler, placement, warm pools, and gateway call the same
    hooks whatever plane is installed; these answers change nothing —
    no node is avoided, every breaker admits, no dispatch is
    registered, the body runs inline — so a cloud without a health
    plane schedules no extra event and replays the seed event
    sequence bit for bit.
    """

    def avoid(self, node_id: str) -> bool:
        return False

    def allow_dispatch(self, fn: str, node_id: str) -> bool:
        return True

    def dispatch_allowed(self, fn: str) -> bool:
        return True

    def all_breakers_open(self, fn: str) -> bool:
        return False

    def idempotency_key(self, fn: str) -> Optional[str]:
        return None

    def forget_invoke(self, key: Optional[str]) -> None:
        pass

    def run_body(self, fn: str, body, ctx, inv,
                 idem_key: Optional[str]) -> Generator:
        # The body's own generator, not a wrapper around it: the caller
        # ``yield from``s it with no extra frame on the hot path.
        return body(ctx)


#: The shared no-op plane (it holds no state).
NO_HEALTH = NoHealth()
