"""The datacenter network: transfers, messaging, and partitions.

Latency composition per remote message (one direction)::

    socket_overhead + one_way(rtt) + nbytes / bandwidth

Marshaling is *not* charged here — it is a property of the protocol
layer (REST charges it per request; PCSI's session transport avoids
repeated marshaling of capability state). See :mod:`repro.net`.

Transfers between co-located endpoints (same node) bypass the network
entirely and cost a local device copy — the §4.1 fast path.

Partitions support two client semantics, which is exactly the §2.2
argument: ``fail_fast=True`` surfaces an explicit
:class:`NetworkUnreachableError` after a detection delay (PCSI-style
explicit remoteness), while ``fail_fast=False`` blocks until the
partition heals (POSIX/SSI-style location transparency).
"""

from __future__ import annotations

from collections import deque
from typing import (Deque, Dict, Generator, Iterator, List, Optional, Set,
                    Tuple)

from ..sim.deadline import DeadlineExceededError, check_deadline, \
    current_deadline
from ..sim.engine import Event, Simulator
from ..sim.metrics_registry import LabeledMetricsRegistry, Tally
from ..sim.resources import Store
from ..sim.rng import RandomStream
from ..sim.trace import NULL_TRACER, Tracer
from .latency import LatencyProfile
from .topology import Topology


class NetworkUnreachableError(Exception):
    """Raised on fail-fast sends to an unreachable or dead destination."""


class Partition:
    """An active network partition between two node groups."""

    def __init__(self, sim: Simulator, group_a: Set[str], group_b: Set[str]):
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        self.healed = sim.event(name="partition-heal")

    def separates(self, src: str, dst: str) -> bool:
        """True if this partition blocks src -> dst traffic."""
        return ((src in self.group_a and dst in self.group_b)
                or (src in self.group_b and dst in self.group_a))


class NicLink:
    """A node's egress NIC: a capacity-1 FIFO link that frees itself.

    A sender occupies the link for its wire time. Taking a free link
    stamps ``free_at = now + wire`` and schedules nothing: the link is
    free again once ``now`` reaches ``free_at``, which the next
    :meth:`claim` reads. Only queued senders cost an event: one armed
    *wake*, a ``timeout_at(free_at)`` that exists only while someone is
    queued, hands the link to the oldest waiter, stamps its
    ``free_at`` and re-arms while more remain. A holder that leaves
    mid-wire (interrupted) frees the link early with :meth:`release`;
    the wake it makes stale is ignored when it fires.
    """

    __slots__ = ("sim", "name", "free_at", "_waiters", "_wake")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        #: When the current holder's wire time ends.
        self.free_at = 0.0
        self._waiters: Deque[Tuple[Event, float]] = deque()
        self._wake: Optional[Event] = None

    @property
    def in_use(self) -> int:
        """1 while a holder's wire time is running, else 0."""
        return 1 if self.sim.now < self.free_at else 0

    @property
    def queue_length(self) -> int:
        """Number of senders still waiting for the link."""
        return len(self._waiters)

    def claim(self, wire: float) -> Optional[Event]:
        """Occupy the link for ``wire`` seconds.

        Returns ``None`` when the link was free and nobody is queued:
        the caller now holds it until ``free_at``. Otherwise returns a
        grant event that fires once the link is handed over, with
        ``free_at`` stamped for this sender; a caller that stops
        waiting must :meth:`cancel` it.
        """
        now = self.sim.now
        if now >= self.free_at and not self._waiters:
            self.free_at = now + wire
            return None
        grant = Event(self.sim, name=f"acquire:{self.name}")
        self._waiters.append((grant, wire))
        if self._wake is None:
            self._arm()
        return grant

    def cancel(self, grant: Event) -> None:
        """Withdraw a :meth:`claim` whose sender gave up.

        A still-queued sender is removed from the queue; one already
        granted holds the link and releases it (see :meth:`release`).
        """
        if grant.triggered:
            self.release(self.free_at)
            return
        waiters = self._waiters
        for i, (queued, _) in enumerate(waiters):
            if queued is grant:
                del waiters[i]
                break
        if not waiters:
            self._wake = None  # nobody left to hand the link to

    def release(self, wire_end: float) -> None:
        """The holder whose wire time ends at ``wire_end`` leaves now.

        Before ``wire_end`` (interrupted mid-wire) the link frees at
        once and the oldest waiter is granted immediately. From
        ``wire_end`` on the link has already freed itself.
        """
        now = self.sim.now
        if now < wire_end:
            self.free_at = now
            if self._waiters:
                self._grant_next()  # re-arming makes the old wake stale

    def _grant_next(self) -> None:
        # Invariant: ``_wake`` is armed exactly while someone is queued.
        grant, wire = self._waiters.popleft()
        self.free_at = self.sim.now + wire
        grant.succeed()
        if self._waiters:
            self._arm()
        else:
            self._wake = None

    def _arm(self) -> None:
        wake = self.sim.timeout_at(self.free_at)
        wake.callbacks.append(self._on_wake)
        self._wake = wake

    def _on_wake(self, wake: Event) -> None:
        if wake is self._wake:  # else made stale by an early release
            self._grant_next()


class Network:
    """Message transport over a :class:`Topology`."""

    #: Detection delay for fail-fast unreachability (a connect timeout),
    #: expressed as a multiple of the profile RTT.
    FAIL_FAST_RTT_MULTIPLIER = 3.0

    def __init__(self, sim: Simulator, topology: Topology,
                 profile: LatencyProfile,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[LabeledMetricsRegistry] = None):
        self.sim = sim
        self.topology = topology
        self.profile = profile
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer is not NULL_TRACER and self.tracer._sim is None:
            self.tracer.bind(sim)
        self.metrics = metrics if metrics is not None \
            else LabeledMetricsRegistry()
        # Traffic accounting kept here and reported to the registry by
        # _collect_metrics whenever the registry is read: bytes of
        # completed transfers per purpose (remote, local), and the
        # in-flight level with TimeWeightedGauge's state (last change,
        # level-seconds up to it, peak).
        self._bytes: Dict[str, float] = {}
        self._local_bytes: Dict[str, float] = {}
        self._inflight = 0.0
        self._inflight_t = 0.0
        self._inflight_area = 0.0
        self._inflight_peak = 0.0
        self.metrics.add_collector(
            ("network.bytes", "network.local_bytes", "network.inflight"),
            self._collect_metrics)
        self._partitions: List[Partition] = []
        #: Per-node egress NICs: a sender occupies its link for the
        #: payload's wire time, so concurrent large transfers from one
        #: machine queue instead of enjoying free parallel bandwidth.
        self._egress: dict = {}
        # Lossy-link chaos model: disabled by default (zero draws, zero
        # extra events — the default path stays bit-identical).
        self._loss_prob = 0.0
        self._loss_rng: Optional[RandomStream] = None
        self._loss_rto = 0.05

    # -- chaos knobs ------------------------------------------------------
    def set_loss(self, prob: float, rng: Optional[RandomStream] = None,
                 rto: float = 0.05) -> None:
        """Make links lossy: each one-way message is lost with ``prob``.

        Reliable transfers (:meth:`transfer`/:meth:`round_trip`) pay a
        transport retransmission of ``rto`` seconds per loss;
        fire-and-forget :meth:`send` messages are dropped outright
        (datagram semantics). All draws come from the supplied seeded
        stream, so chaos runs replay bit-identically. ``prob=0``
        disables the model again.
        """
        if not 0.0 <= prob < 1.0:
            raise ValueError(f"loss probability must be in [0, 1): {prob}")
        if rto <= 0:
            raise ValueError("rto must be positive")
        if prob > 0 and rng is None:
            raise ValueError("lossy links need a seeded RandomStream")
        self._loss_prob = prob
        self._loss_rng = rng
        self._loss_rto = rto

    # -- reachability ---------------------------------------------------
    def is_reachable(self, src: str, dst: str) -> bool:
        """True if a message sent now from src would arrive at dst."""
        if not self.topology.node(dst).alive:
            return False
        if src == dst:
            return True
        return not any(p.separates(src, dst) for p in self._partitions)

    def partition(self, group_a: Set[str], group_b: Set[str]) -> Partition:
        """Install a partition between two node groups."""
        overlap = set(group_a) & set(group_b)
        if overlap:
            raise ValueError(f"partition groups overlap: {overlap}")
        part = Partition(self.sim, set(group_a), set(group_b))
        self._partitions.append(part)
        return part

    def heal(self, part: Partition) -> None:
        """Remove a partition, waking location-transparent waiters."""
        if part not in self._partitions:
            raise ValueError("partition is not active")
        self._partitions.remove(part)
        part.healed.succeed()

    # -- latency building blocks -----------------------------------------
    def one_way_delay(self, src: str, dst: str, nbytes: int) -> float:
        """Latency of one message, excluding reachability concerns."""
        if src == dst:
            return self.profile.device_copy_time(nbytes)
        same_rack = self.topology.same_rack(src, dst)
        return (self.profile.socket_overhead
                + self.profile.one_way(same_rack=same_rack)
                + self.profile.wire_time(nbytes))

    def rtt(self, src: str, dst: str) -> float:
        """Bare round-trip (no payload) between two nodes."""
        if src == dst:
            return 0.0
        same_rack = self.topology.same_rack(src, dst)
        factor = self.profile.same_rack_factor if same_rack else 1.0
        return self.profile.network_rtt * factor

    # -- transfer primitives (generators; use with ``yield from``) --------
    def transfer(self, src: str, dst: str, nbytes: int,
                 fail_fast: bool = True,
                 purpose: str = "data") -> Generator:
        """Move ``nbytes`` from src to dst, yielding simulated delay.

        Returns the delay experienced. Unreachable destinations either
        raise (fail-fast) or block until the partition heals / node
        recovers (location-transparent).

        The transfer is a span parented to whichever span issued it
        (the invoke/storage op in whose context this generator runs).
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if src != dst:
            span = self.tracer.span("net.transfer", src=src, dst=dst,
                                    nbytes=nbytes, purpose=purpose)
        else:
            span = self.tracer.span("net.local_copy", node=src,
                                    nbytes=nbytes, purpose=purpose)
        with span:
            deadline = check_deadline(self.sim, "transfer %s->%s", src, dst)
            if self.is_reachable(src, dst):
                waited = 0.0
            else:
                waited = yield from self._await_reachable(src, dst,
                                                          fail_fast)
            if self._loss_prob and src != dst and purpose != "message":
                # Reliable transport over a lossy link: each loss costs one
                # retransmission timeout before the payload gets through.
                # (Fire-and-forget "message" sends are dropped at the
                # datagram layer in send() instead.)
                while self._loss_rng.bernoulli(self._loss_prob):
                    self.metrics.counter("network.retransmits",
                                         purpose=purpose).add(1)
                    if deadline is not None and deadline.expired(self.sim.now):
                        raise DeadlineExceededError(
                            f"transfer {src}->{dst}: deadline expired during "
                            f"retransmission", deadline)
                    yield self.sim.timeout(self._loss_rto)
            # The in-flight level moves by TimeWeightedGauge.add's
            # arithmetic, inline.
            start = self.sim.now
            if start < self._inflight_t:
                raise ValueError("time went backwards")
            self._inflight_area += self._inflight * (start - self._inflight_t)
            self._inflight_t = start
            level = self._inflight + 1
            self._inflight = level
            if level > self._inflight_peak:
                self._inflight_peak = level
            try:
                if src != dst and nbytes > 0:
                    # Serialize onto the sender's NIC: the link is occupied
                    # for the wire time (queueing behind concurrent
                    # senders), then the propagation/processing parts are
                    # paid without it. A free link is taken synchronously
                    # and frees itself at the stamped wire end, so an
                    # uncontended transfer is one timeout at
                    # ``(now + wire) + prop``. Keep that grouping: it is the
                    # float arithmetic of a wire timeout followed by a
                    # propagation timeout, so arrival times match that
                    # model bit for bit.
                    link = self._egress_link(src)
                    grant = link.claim(self.profile.wire_time(nbytes))
                    if grant is not None:
                        try:
                            yield grant
                        except BaseException:
                            # Interrupted (hedge loss, deadline) while
                            # queued, or granted but not yet resumed: give
                            # the link back so it is not stranded on a
                            # dead waiter.
                            link.cancel(grant)
                            raise
                    wire_end = link.free_at
                    try:
                        yield self.sim.timeout_at(wire_end + (
                            self.profile.socket_overhead
                            + self.profile.one_way(
                                same_rack=self.topology.same_rack(src, dst))))
                    except BaseException:
                        # Interrupted mid-wire: the link frees now, not at
                        # ``wire_end``. Mid-propagation it is already free.
                        link.release(wire_end)
                        raise
                else:
                    yield self.sim.timeout(
                        self.one_way_delay(src, dst, nbytes))
            finally:
                now = self.sim.now
                if now < self._inflight_t:
                    raise ValueError("time went backwards")
                self._inflight_area += self._inflight * (
                    now - self._inflight_t)
                self._inflight_t = now
                self._inflight -= 1
            delay = self.sim.now - start
            tally = self._bytes if src != dst else self._local_bytes
            tally[purpose] = tally.get(purpose, 0.0) + nbytes
            return delay + waited

    def round_trip(self, src: str, dst: str, request_nbytes: int,
                   response_nbytes: int, fail_fast: bool = True,
                   purpose: str = "rpc") -> Generator:
        """A request/response pair; returns total delay."""
        d1 = yield from self.transfer(src, dst, request_nbytes,
                                      fail_fast=fail_fast, purpose=purpose)
        d2 = yield from self.transfer(dst, src, response_nbytes,
                                      fail_fast=fail_fast, purpose=purpose)
        return d1 + d2

    def send(self, src: str, dst: str, inbox: Store, message: object,
             nbytes: int, fail_fast: bool = True) -> None:
        """Fire-and-forget delivery of ``message`` into ``inbox``.

        The caller does not wait; a background process models the
        propagation delay. Fail-fast sends to unreachable destinations
        are silently dropped (the sender cannot observe the loss —
        callers needing acknowledgement use :meth:`round_trip`).
        """
        def deliver():
            if self._loss_prob and src != dst \
                    and self._loss_rng.bernoulli(self._loss_prob):
                # Datagram semantics: a lost fire-and-forget message is
                # simply gone — no transport retry, and the sender
                # cannot observe the loss.
                self._record_drop(src, dst, "loss")
                return
            try:
                yield from self.transfer(src, dst, nbytes,
                                         fail_fast=fail_fast,
                                         purpose="message")
            except NetworkUnreachableError:
                self._record_drop(src, dst, "unreachable")
                return
            if not self.topology.node(dst).alive:
                # The destination died while the message was in flight:
                # it never lands in the inbox.
                self._record_drop(src, dst, "dst-dead")
                return
            inbox.put(message)

        # Detached: the sender does not wait, so the delivery should not
        # appear under whatever span the sender happened to have open.
        self.sim.spawn(deliver(), name=f"send:{src}->{dst}",
                       inherit_context=False)

    # -- internals ---------------------------------------------------------
    def _collect_metrics(self) -> Iterator[Tally]:
        """Report the traffic tallies (the registry's collector).

        ``network.inflight`` is loaded from the first transfer start
        (the peak is 1 from then on); a purpose's ``network.bytes`` or
        ``network.local_bytes`` child exists from its first completed
        transfer, even a 0-byte one.
        """
        if self._inflight_peak:
            self.metrics.gauge("network.inflight").load(
                self._inflight, self._inflight_t, self._inflight_area,
                self._inflight_peak)
        for name, tally in (("network.bytes", self._bytes),
                            ("network.local_bytes", self._local_bytes)):
            for purpose, nbytes in tally.items():
                yield name, (("purpose", purpose),), nbytes

    def _record_drop(self, src: str, dst: str, cause: str) -> None:
        """Account one dropped fire-and-forget message.

        Labeled by endpoints and cause (so dropped hand-offs are
        attributable) and rolled up into the bare ``network.dropped``
        aggregate. The counter is the only record of a drop.
        """
        self.metrics.counter("network.dropped", src=src, dst=dst,
                             cause=cause).add(1)

    def _egress_link(self, node_id: str) -> NicLink:
        link = self._egress.get(node_id)
        if link is None:
            link = NicLink(self.sim, name=f"nic:{node_id}")
            self._egress[node_id] = link
        return link

    def _await_reachable(self, src: str, dst: str,
                         fail_fast: bool) -> Generator:
        """Yield until src can reach dst; returns the time spent blocked.

        Deadline-aware: a fail-fast detection window is cut short when
        the caller's remaining budget is smaller than the window, and a
        location-transparent wait is raced against the budget — both
        raise :class:`~repro.sim.deadline.DeadlineExceededError` at
        expiry, so even the §2.2 "hang forever" semantics cannot block
        a caller that set a deadline.
        """
        start = self.sim.now
        deadline = current_deadline(self.sim)
        while not self.is_reachable(src, dst):
            if fail_fast:
                # Model a connect timeout: the sender learns of the
                # failure only after a few RTTs of silence.
                detect = max(self.rtt(src, dst), self.profile.network_rtt)
                detect *= self.FAIL_FAST_RTT_MULTIPLIER
                if deadline is not None \
                        and deadline.remaining(self.sim.now) < detect:
                    remaining = deadline.remaining(self.sim.now)
                    if remaining > 0:
                        yield self.sim.timeout(remaining)
                    raise DeadlineExceededError(
                        f"{src}->{dst}: deadline expired during failure "
                        f"detection", deadline)
                yield self.sim.timeout(detect)
                self.metrics.counter("network.unreachable").add(1)
                raise NetworkUnreachableError(f"{src} cannot reach {dst}")
            blocker = self._current_blocker(src, dst)
            if deadline is None:
                yield blocker
            else:
                remaining = max(deadline.remaining(self.sim.now), 0.0)
                yield self.sim.any_of([blocker,
                                       self.sim.timeout(remaining)])
                if deadline.expired(self.sim.now):
                    raise DeadlineExceededError(
                        f"{src}->{dst}: deadline expired while "
                        f"unreachable", deadline)
        return self.sim.now - start

    def _current_blocker(self, src: str, dst: str) -> Event:
        """An event that fires when the current obstruction may be gone."""
        for part in self._partitions:
            if part.separates(src, dst):
                return part.healed
        # Destination node is dead and nothing announces recovery:
        # location-transparent callers simply hang, exactly the pathology
        # Section 2.2 describes. A pending event models the hang; failure
        # injection may fire node recovery events in the future.
        node = self.topology.node(dst)
        if not node.alive:
            recovery = getattr(node, "recovery_event", None)
            if recovery is not None and not recovery.processed:
                return recovery
            return self.sim.event(name=f"dead:{dst}")
        # Became reachable between checks; no wait needed.
        return self.sim.timeout(0)
