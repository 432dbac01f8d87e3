"""Quorum replication: the LINEARIZABLE half of the consistency menu.

PCSI's Section 3.3 offers exactly two consistency levels and hides the
mechanism. This module is the strong mechanism: an ABD-style majority
quorum register per key.

* **write**: read version counters from a majority, pick max+1, write
  the new version to all replicas, ack after a majority confirms.
* **read**: fetch from a majority, take the highest version; if the
  majority disagrees, write the winning version back to a majority
  before returning (read-repair keeps reads linearizable).

Both paths are client-driven (the caller's node acts as coordinator),
so latency is what the paper cares about: quorum round trips on the
critical path.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..cluster.network import Network, NetworkUnreachableError
from ..sim.engine import Event, Simulator
from ..sim.rng import RandomStream
from .blockstore import (
    ZERO_VERSION,
    KeyNotFoundError,
    LocalStore,
    Medium,
    NVME,
    Record,
    Version,
)

#: Size of a control message (version query, ack).
CONTROL_MSG_BYTES = 64


class QuorumUnavailableError(Exception):
    """Fewer than a majority of replicas are reachable."""


def gather_first_k(sim: Simulator, generators: List[Generator],
                   k: int) -> Generator:
    """Run ``generators`` concurrently; return the first ``k`` results.

    Failures (e.g. unreachable replicas) are tolerated as long as ``k``
    successes remain possible; otherwise the gather fails with
    :class:`QuorumUnavailableError`. Remaining work keeps running in the
    background — exactly how a quorum write lets stragglers finish.
    """
    if k < 1 or k > len(generators):
        raise ValueError(f"need 1 <= k <= {len(generators)}, got {k}")
    done: Event = sim.event(name="quorum")
    results: List[Any] = []
    failures: List[BaseException] = []
    total = len(generators)

    def on_complete(ev: Event) -> None:
        if ev.ok:
            results.append(ev.value)
            if len(results) == k and not done.triggered:
                done.succeed(list(results))
        else:
            failures.append(ev.value)
            if total - len(failures) < k and not done.triggered:
                done.fail(QuorumUnavailableError(
                    f"only {total - len(failures)} of {total} replicas "
                    f"can respond; quorum is {k}"))

    for gen in generators:
        sim.spawn(gen).callbacks.append(on_complete)
    value = yield done
    return value


class ReplicatedStore:
    """A keyed store replicated across a fixed set of nodes.

    Exposes both consistency levels; per-object level selection lives in
    the PCSI layer above (:mod:`repro.core.consistency`).
    """

    def __init__(self, sim: Simulator, network: Network,
                 replica_nodes: List[str], medium: Medium = NVME,
                 name: str = "store",
                 propagation_delay_mean: float = 0.050,
                 rng: Optional[RandomStream] = None):
        if not replica_nodes:
            raise ValueError("need at least one replica")
        if len(set(replica_nodes)) != len(replica_nodes):
            raise ValueError("duplicate replica nodes")
        self.sim = sim
        self.network = network
        self.name = name
        self.replica_nodes = list(replica_nodes)
        self.replicas: Dict[str, LocalStore] = {
            nid: LocalStore(sim, nid, medium) for nid in replica_nodes}
        self.propagation_delay_mean = propagation_delay_mean
        self.rng = rng if rng is not None else RandomStream(0, f"repl:{name}")
        self._seq = itertools.count(1)
        self.metrics = network.metrics
        #: Hinted handoff: dst -> {key: (src, newest missed Record)}.
        self._hints: Dict[str, Dict[str, Tuple[str, Record]]] = {}
        self._hint_watchers: Set[str] = set()

    @property
    def majority(self) -> int:
        """Quorum size: floor(n/2) + 1."""
        return len(self.replica_nodes) // 2 + 1

    # -- telemetry helpers -------------------------------------------------
    def _count(self, event: str, amount: float = 1.0, **labels) -> None:
        """One store event in the ``store.*`` family, keyed by store
        name."""
        self.metrics.counter(f"store.{event}", store=self.name,
                             **labels).add(amount)

    def _observe_op(self, op: str, consistency: str, start: float) -> None:
        """Per-consistency-level operation latency.

        The sample carries the current sampled trace root as an
        exemplar (when tracing is on and the tree is retained), so a
        slow ``storage.op_latency`` bucket can be opened back into the
        span tree of the request that produced it.
        """
        tracer = self.network.tracer
        self.metrics.histogram("storage.op_latency", store=self.name,
                               op=op, consistency=consistency) \
            .observe(self.sim.now - start,
                     exemplar=tracer.exemplar_root_id(tracer.current_span))

    def _fanout(self, op: str, n: int) -> None:
        """Replicas contacted by one quorum phase."""
        self.metrics.counter("quorum.fanout", store=self.name,
                             op=op).add(n)

    def _note_failover(self, op: str, skipped: str) -> None:
        """One replica abandoned mid-operation (went unreachable)."""
        self._count("failover", op=op, replica=skipped)

    # -- replica-side primitives (one network hop each) -------------------
    def _replica_get(self, client_node: str, replica_node: str,
                     key: str) -> Generator:
        """Fetch (version, record-or-None) from one replica."""
        yield from self.network.transfer(client_node, replica_node,
                                         CONTROL_MSG_BYTES,
                                         purpose="quorum:get-req")
        store = self.replicas[replica_node]
        try:
            record = yield from store.read(key)
        except KeyNotFoundError:
            record = None
        resp_bytes = CONTROL_MSG_BYTES + (record.nbytes if record else 0)
        yield from self.network.transfer(replica_node, client_node,
                                         resp_bytes, purpose="quorum:get-resp")
        return (replica_node, record)

    def _replica_version(self, client_node: str, replica_node: str,
                         key: str) -> Generator:
        """Fetch just the version counter from one replica."""
        yield from self.network.round_trip(client_node, replica_node,
                                           CONTROL_MSG_BYTES,
                                           CONTROL_MSG_BYTES,
                                           purpose="quorum:version")
        return self.replicas[replica_node].version_of(key)

    def _replica_put(self, client_node: str, replica_node: str, key: str,
                     record: Record) -> Generator:
        """Push a record to one replica and wait for its ack."""
        yield from self.network.transfer(client_node, replica_node,
                                         CONTROL_MSG_BYTES + record.nbytes,
                                         purpose="quorum:put-req")
        yield from self.replicas[replica_node].write(key, record)
        yield from self.network.transfer(replica_node, client_node,
                                         CONTROL_MSG_BYTES,
                                         purpose="quorum:put-ack")
        return replica_node

    # -- linearizable operations ------------------------------------------
    def write_linearizable(self, client_node: str, key: str, nbytes: int,
                           meta: Any = None) -> Generator:
        """ABD write; returns the installed :class:`Version`."""
        start = self.sim.now
        with self.network.tracer.span(
                "quorum.write", store=self.name, key=key, nbytes=nbytes,
                consistency="linearizable",
                replicas=len(self.replica_nodes), quorum=self.majority):
            self._fanout("write", 2 * len(self.replica_nodes))
            versions = yield from gather_first_k(
                self.sim,
                [self._replica_version(client_node, nid, key)
                 for nid in self.replica_nodes],
                self.majority)
            counter = max(v[0] for v in versions) + 1
            writer = f"{client_node}#{next(self._seq)}"
            record = Record(version=(counter, writer), nbytes=nbytes,
                            meta=meta, timestamp=self.sim.now)
            yield from gather_first_k(
                self.sim,
                [self._replica_put(client_node, nid, key, record)
                 for nid in self.replica_nodes],
                self.majority)
        self._observe_op("write", "linearizable", start)
        return record.version

    def read_linearizable(self, client_node: str, key: str) -> Generator:
        """ABD read with read-repair; returns the winning :class:`Record`."""
        start = self.sim.now
        with self.network.tracer.span(
                "quorum.read", store=self.name, key=key,
                consistency="linearizable",
                replicas=len(self.replica_nodes),
                quorum=self.majority) as sp:
            self._fanout("read", len(self.replica_nodes))
            responses = yield from gather_first_k(
                self.sim,
                [self._replica_get(client_node, nid, key)
                 for nid in self.replica_nodes],
                self.majority)
            records = [rec for _nid, rec in responses if rec is not None]
            if not records:
                self._count("read_misses")
                raise KeyNotFoundError(key)
            winner = max(records, key=lambda r: r.version)
            versions_seen = {rec.version for _nid, rec in responses
                             if rec is not None}
            holes = [nid for nid, rec in responses
                     if rec is None or rec.version < winner.version]
            if len(versions_seen) > 1 or holes:
                # Read repair: install the winner at a majority before
                # returning, so a later read cannot observe an older value.
                sp.set(read_repair=True)
                self._fanout("repair", len(self.replica_nodes))
                yield from gather_first_k(
                    self.sim,
                    [self._replica_put(client_node, nid, key, winner)
                     for nid in self.replica_nodes],
                    self.majority)
                self._count("read_repairs")
            sp.set(nbytes=winner.nbytes)
        self._observe_op("read", "linearizable", start)
        return winner

    # -- eventual operations ------------------------------------------------
    def closest_replica(self, client_node: str) -> str:
        """Replica preference: same node, then same rack, then first live."""
        topo = self.network.topology
        live = [nid for nid in self.replica_nodes if topo.node(nid).alive]
        if not live:
            raise QuorumUnavailableError("no live replica")
        if client_node in live:
            return client_node
        for nid in live:
            if topo.same_rack(client_node, nid):
                return nid
        return live[0]

    def replica_rank(self, client_node: str, replica_node: str) -> int:
        """Distance class: 0 = co-located, 1 = same rack, 2 = elsewhere."""
        if replica_node == client_node:
            return 0
        if self.network.topology.same_rack(client_node, replica_node):
            return 1
        return 2

    def preference_list(self, client_node: str) -> List[str]:
        """Live *and reachable* replicas, closest first.

        The sort is stable within a distance class, so the head of the
        list is exactly what :meth:`closest_replica` picks whenever that
        replica is reachable — the failover path only diverges when the
        closest choice actually is unusable.
        """
        topo = self.network.topology
        usable = [nid for nid in self.replica_nodes
                  if topo.node(nid).alive
                  and self.network.is_reachable(client_node, nid)]
        usable.sort(key=lambda nid: self.replica_rank(client_node, nid))
        return usable

    def write_eventual(self, client_node: str, key: str, nbytes: int,
                       meta: Any = None) -> Generator:
        """Ack after one replica write; propagate in the background.

        Version counters use the local replica's view +1 with
        last-writer-wins tie-breaking — concurrent eventual writes
        converge but may overwrite each other (the documented weak
        contract).
        """
        start = self.sim.now
        candidates = self.preference_list(client_node) \
            or [self.closest_replica(client_node)]
        last_exc: Optional[BaseException] = None
        for hop, target in enumerate(candidates):
            counter = self.replicas[target].version_of(key)[0] + 1
            writer = f"{client_node}#{next(self._seq)}"
            record = Record(version=(counter, writer), nbytes=nbytes,
                            meta=meta, timestamp=self.sim.now)
            try:
                with self.network.tracer.span(
                        "eventual.write", store=self.name, key=key,
                        nbytes=nbytes, consistency="eventual",
                        replica=target,
                        replicas=len(self.replica_nodes)) as sp:
                    if hop:
                        sp.set(failover_hops=hop)
                    yield from self._replica_put(client_node, target, key,
                                                 record)
            except NetworkUnreachableError as exc:
                # Reachability changed under us: fail over to the next
                # closest live replica instead of surfacing the error.
                last_exc = exc
                self._note_failover("write", target)
                continue
            for nid in self.replica_nodes:
                if nid != target:
                    # Background anti-entropy: runs (and finishes) long
                    # after the write acks, so it must not inherit the
                    # writer's span context.
                    self.sim.spawn(self._propagate(target, nid, key, record),
                                   name=f"propagate:{key}",
                                   inherit_context=False)
            self._observe_op("write", "eventual", start)
            return record.version
        raise last_exc

    def _propagate(self, src: str, dst: str, key: str,
                   record: Record) -> Generator:
        delay = self.rng.exponential(self.propagation_delay_mean)
        yield self.sim.timeout(delay)
        try:
            yield from self._replica_put(src, dst, key, record)
        except NetworkUnreachableError:
            # Stash the missed write as a hint: recovery (or the next
            # anti-entropy tick) replays it promptly instead of waiting
            # for a full random-pair reconcile to pick the key up.
            self._count("propagation_failures")
            self._stash_hint(src, dst, key, record)

    # -- hinted handoff ----------------------------------------------------
    def _stash_hint(self, src: str, dst: str, key: str,
                    record: Record) -> None:
        """Remember the newest write ``dst`` missed for later replay."""
        hints = self._hints.setdefault(dst, {})
        held = hints.get(key)
        if held is not None and held[1].version >= record.version:
            return
        hints[key] = (src, record)
        self._count("hinted_handoffs")
        node = self.network.topology.node(dst)
        recovery = getattr(node, "recovery_event", None)
        if not node.alive and recovery is not None \
                and dst not in self._hint_watchers:
            self._hint_watchers.add(dst)
            self.sim.spawn(self._replay_on_recovery(dst, recovery),
                           name=f"hints:{dst}", inherit_context=False)

    def _replay_on_recovery(self, dst: str, recovery) -> Generator:
        """Wait for ``dst`` to come back, then replay its missed writes."""
        yield recovery
        self._hint_watchers.discard(dst)
        yield from self._replay_hints(dst)

    def _replay_hints(self, dst: str) -> Generator:
        """Push every hinted record to ``dst``; drop hints as they land.

        A hint whose original holder is gone is replayed from any live
        reachable replica — the record itself travels with the hint.
        """
        hints = self._hints.get(dst)
        while hints:
            key, (src, record) = next(iter(hints.items()))
            topo = self.network.topology
            if not topo.node(src).alive \
                    or not self.network.is_reachable(src, dst):
                alternates = [nid for nid in self.replica_nodes
                              if nid != dst and topo.node(nid).alive
                              and self.network.is_reachable(nid, dst)]
                if not alternates:
                    return  # nobody can reach dst right now; keep hints
                src = alternates[0]
            try:
                if record.version > self.replicas[dst].version_of(key):
                    yield from self._replica_put(src, dst, key, record)
            except NetworkUnreachableError:
                return  # dst vanished again; keep the remaining hints
            hints.pop(key, None)
            self._count("hint_replays")
        self._hints.pop(dst, None)

    def read_eventual(self, client_node: str, key: str) -> Generator:
        """Read the closest live, reachable replica; may be stale.

        Crashed or partitioned replicas are skipped up front, and a
        replica that goes unreachable *mid-read* triggers failover to
        the next closest one. :class:`KeyNotFoundError` propagates
        without failover — a miss is an answer, not a failure.
        """
        start = self.sim.now
        candidates = self.preference_list(client_node) \
            or [self.closest_replica(client_node)]
        last_exc: Optional[BaseException] = None
        for hop, target in enumerate(candidates):
            try:
                with self.network.tracer.span(
                        "eventual.read", store=self.name, key=key,
                        consistency="eventual", replica=target,
                        replicas=len(self.replica_nodes)) as sp:
                    if hop:
                        sp.set(failover_hops=hop)
                    yield from self.network.transfer(
                        client_node, target, CONTROL_MSG_BYTES,
                        purpose="eventual:get-req")
                    try:
                        record = yield from self.replicas[target].read(key)
                    except KeyNotFoundError:
                        self._count("read_misses")
                        raise
                    yield from self.network.transfer(
                        target, client_node,
                        CONTROL_MSG_BYTES + record.nbytes,
                        purpose="eventual:get-resp")
                    sp.set(nbytes=record.nbytes)
            except NetworkUnreachableError as exc:
                last_exc = exc
                self._note_failover("read", target)
                continue
            self._observe_op("read", "eventual", start)
            return record
        raise last_exc

    # -- anti-entropy ---------------------------------------------------------
    def start_anti_entropy(self, interval: float) -> None:
        """Start a background gossip process that reconciles replicas."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim.spawn(self._anti_entropy_loop(interval),
                       name=f"anti-entropy:{self.name}",
                       inherit_context=False)

    def _anti_entropy_loop(self, interval: float) -> Generator:
        while True:
            yield self.sim.timeout(interval)
            # Replay pending hints for any replica that is back — a
            # targeted catch-up, cheaper than a full reconcile pass.
            for dst in list(self._hints):
                if self.network.topology.node(dst).alive:
                    yield from self._replay_hints(dst)
            live = [nid for nid in self.replica_nodes
                    if self.network.topology.node(nid).alive]
            if len(live) < 2:
                continue
            src = self.rng.choice(live)
            dst = self.rng.choice([nid for nid in live if nid != src])
            yield from self._reconcile(src, dst)

    def _reconcile(self, src: str, dst: str) -> Generator:
        """Push every record where src is newer than dst."""
        src_store, dst_store = self.replicas[src], self.replicas[dst]
        for key in list(src_store._records):
            src_rec = src_store.peek(key)
            if src_rec is None:
                continue
            if src_rec.version > dst_store.version_of(key):
                try:
                    yield from self._replica_put(src, dst, key, src_rec)
                    self._count("anti_entropy_repairs")
                except NetworkUnreachableError:
                    return

    # -- test/experiment helpers ----------------------------------------------
    def divergence(self, key: str) -> int:
        """Number of distinct versions of ``key`` across replicas."""
        return len({store.version_of(key) for store in self.replicas.values()})
