"""``PCSICloud``: the kernel facade — the public face of the library.

This class wires every substrate together and exposes the Portable
Cloud System Interface sketched in Section 3 of the paper:

* **state** — objects of five kinds with mutability levels and the
  two-entry consistency menu, reached through capability references
  and per-tenant namespaces (no global root);
* **computation** — functions with simultaneous heterogeneous
  implementations, invoked directly or composed into task graphs,
  scheduled onto autoscaled sandboxes by pluggable placement policies.

Conventions:

* methods named ``op_*`` (and ``invoke``/``submit_graph``/
  ``collect_garbage``/``resolve``) are *generators*: they model
  latency-bearing data-plane operations and must run inside a
  simulation process (``yield from cloud.op_read(...)``);
* everything else (object creation, linking, transitions) is
  control-plane bookkeeping exposed as plain methods.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..bench.attribution import NO_ATTRIBUTION, LatencyAttributor
from ..cluster.health import NO_HEALTH, HealthConfig, HealthPlane
from ..cluster.latency import DC_2021, LatencyProfile
from ..cluster.network import Network
from ..cluster.topology import Topology, build_cluster
from ..cost.accounting import CostMeter
from ..cost.pricing import PriceBook
from ..faas.controller import AutoscaleController, make_policy_factory
from ..net.gateway import AdmissionGateway, GatewayConfig, NoAdmission
from ..net.marshal import SizedPayload
from ..security.capabilities import CAPABILITY_CHECK_TIME, Right
from ..sim.engine import Simulator
from ..sim.metrics_registry import LabeledMetricsRegistry
from ..sim.resources import Channel, Store
from ..sim.rng import RandomStream
from ..sim.trace import SamplingPolicy, Tracer
from ..storage.blockstore import Medium, NVME, Record
from .consistency import DataLayer
from .errors import NamespaceError, ObjectNotFoundError, ObjectTypeError
from .functions import FunctionDef, FunctionImpl
from .gc import GarbageCollector, GCStats
from .mutability import Mutability, check_transition
from .namespace import RESOLVE_STEP_TIME, NamespaceManager
from .objects import (
    Consistency,
    DirEntry,
    ObjectKind,
    ObjectTable,
    PCSIObject,
)
from .optimizer import ImplOptimizer
from .placement import ColocatePlacement, PlacementPolicy, make_policy
from .references import Reference, ReferenceManager
from .scheduler import FunctionScheduler
from .taskgraph import GraphResult, Intermediate, TaskGraph
from .unionfs import mount_union, needs_copy_up, union_lookup


class _Handoff:
    """A queued FIFO/socket payload tagged with its producer's span id.

    FIFO and socket hand-offs cross process boundaries: the consumer
    runs in its own invocation, so its spans cannot *nest* under the
    producer's. Carrying the producer's span id through the queue lets
    the consumer's span record the causal edge (``origin_span``), which
    is what stitches a pipelined StreamingTransform into one traceable
    request flow.
    """

    __slots__ = ("payload", "origin_span")

    def __init__(self, payload: SizedPayload, origin_span: int):
        self.payload = payload
        self.origin_span = origin_span


def _unwrap(item):
    """(payload, origin_span_id_or_None) for a queued item."""
    if isinstance(item, _Handoff):
        return item.payload, item.origin_span
    return item, None


class PCSICloud:
    """One PCSI deployment over a simulated warehouse-scale cluster."""

    def __init__(self, sim: Optional[Simulator] = None, *,
                 racks: int = 4, nodes_per_rack: int = 8,
                 gpu_nodes_per_rack: int = 2,
                 profile: LatencyProfile = DC_2021,
                 seed: int = 0,
                 placement: str = "colocate",
                 goal: str = "latency",
                 slo: Optional[float] = None,
                 data_replicas: int = 3,
                 data_medium: Medium = NVME,
                 keep_alive: float = 60.0,
                 autoscale=None,
                 autoscale_interval: float = 5.0,
                 prices: Optional[PriceBook] = None,
                 trace: bool = False,
                 sampler: Optional[SamplingPolicy] = None,
                 topology: Optional[Topology] = None,
                 attribution: bool = False,
                 observation_mode: str = "static",
                 objective: str = "mean",
                 admission=None,
                 health=None):
        self.sim = sim if sim is not None else Simulator()
        self.rng = RandomStream(seed, "pcsi")
        self.tracer = Tracer(enabled=trace, sampler=sampler).bind(self.sim)
        self.metrics = LabeledMetricsRegistry()
        # Trees an exemplar links to outlive the tracer's window.
        self.tracer.link_exemplars(self.metrics.exemplar_ids)
        self.topology = topology if topology is not None else build_cluster(
            self.sim, racks=racks, nodes_per_rack=nodes_per_rack,
            gpu_nodes_per_rack=gpu_nodes_per_rack)
        self.network = Network(self.sim, self.topology, profile,
                               tracer=self.tracer, metrics=self.metrics)
        self._node_classes: Dict[str, str] = {}
        self.profile = profile
        self.meter = CostMeter(prices)

        # ``attribution=True`` attaches a LatencyAttributor to the
        # tracer: finished sampled span trees fold into per-(fn, impl,
        # node-class) latency decompositions. ``observation_mode="ema"``
        # additionally feeds those observations back into impl
        # selection (and the "observed" placement policy), closing the
        # trace → attribution → placement loop; it implies attribution.
        # Both need ``trace=True`` — without span trees there is
        # nothing to attribute. Off, it is NO_ATTRIBUTION (never fed).
        if observation_mode != "static":
            attribution = True
        self.attributor: LatencyAttributor = NO_ATTRIBUTION
        if attribution:
            if not trace:
                raise ValueError(
                    "attribution/observation_mode need trace=True: "
                    "attribution folds sampled span trees")
            self.attributor = LatencyAttributor(
                self.tracer, node_class_fn=self._node_class)

        self.table = ObjectTable()
        self.refs = ReferenceManager(self.table)
        self.ns = NamespaceManager(self.table, self.refs)
        replica_nodes = self._pick_data_replicas(data_replicas)
        self.data = DataLayer(self.sim, self.network, replica_nodes,
                              medium=data_medium,
                              rng=self.rng.fork("data"))

        self.policy: PlacementPolicy = make_policy(
            placement, self.topology, self.rng.fork("placement"),
            attributor=self.attributor)
        # ``objective="p99"`` steers impl selection on the observed
        # tail quantile instead of the warm-path EMA mean (requires
        # observation_mode="ema"; the optimizer validates that).
        self.optimizer = ImplOptimizer(goal=goal, prices=prices, slo=slo,
                                       observation_mode=observation_mode,
                                       attributor=self.attributor,
                                       objective=objective)
        # ``autoscale`` closes the metrics → controller → pool loop:
        # a policy spec (name / class / prototype / factory) starts the
        # AutoscaleController that every warm pool registers with. The
        # default (None) leaves it unstarted: no process, no ticks, and
        # event order is untouched.
        # ``health`` stands the self-healing health plane up: phi-
        # accrual failure detection, per-(fn, node class) circuit
        # breakers, gray-node outlier ejection, and crash-safe invoke
        # recovery. ``None`` (the default) installs the no-op NO_HEALTH
        # plane — no heartbeat/monitor processes exist and every hook
        # in the scheduler, placement, warm pools, and gateway answers
        # "carry on", so the event sequence is byte-identical to the
        # seed (the differential test pins that). ``True`` uses the
        # default HealthConfig; a HealthConfig instance tunes it.
        self.health = NO_HEALTH
        if health is not None:
            config = HealthConfig(seed=seed) if health is True else health
            if not isinstance(config, HealthConfig):
                raise ValueError(
                    "health must be None, True, or a HealthConfig; "
                    f"got {health!r}")
            self.health = HealthPlane(
                self.sim, self.topology, config, metrics=self.metrics,
                tracer=self.tracer, node_class_fn=self._node_class)
            self.health.start()
        self.policy.health = self.health

        self.autoscaler = AutoscaleController(
            self.sim, self.metrics,
            make_policy_factory("fixed" if autoscale is None else autoscale),
            interval=autoscale_interval, tracer=self.tracer)
        if autoscale is not None:
            self.autoscaler.start()
        self.scheduler = FunctionScheduler(self, self.policy, self.optimizer,
                                           keep_alive=keep_alive)
        self.gc = GarbageCollector(self)

        # ``admission`` stands a front door up in front of the
        # scheduler (§2.2: rejection is a first-class response).
        # ``None`` installs the pass-through NoAdmission (byte-identical
        # to calling the scheduler directly — the overload gate pins
        # that); a GatewayConfig installs the real AdmissionGateway
        # with token buckets, WFQ, and deadline shedding.
        if admission is None:
            self.gateway = NoAdmission(self)
        elif isinstance(admission, GatewayConfig):
            self.gateway = AdmissionGateway(self, admission)
        else:
            raise ValueError("admission must be None or a GatewayConfig; "
                             f"got {admission!r}")

        # Transient kernel state for FIFO/socket objects.
        self._fifos: Dict[str, Channel] = {}
        self._sockets: Dict[str, Tuple[Store, Store]] = {}
        # System services reachable through DEVICE objects (§3.2:
        # "device interfaces to system services").
        self._device_services: Dict[str, Any] = {}

    def _node_class(self, node_id: str) -> str:
        """Coarse hardware class of a node, for latency attribution.

        Named after the scarcest device on board ("npu" > "gpu" >
        "cpu"): attribution cares about which *kind* of machine served
        an invocation, not which individual box. A node's capacity is
        set only when it is built, so its class is resolved once and
        kept (the attributor and the health plane ask per invoke).
        """
        kind = self._node_classes.get(node_id)
        if kind is None:
            node = self.topology.node(node_id)
            kind = "npu" if node.has_device("npu") \
                else "gpu" if node.has_device("gpu") else "cpu"
            self._node_classes[node_id] = kind
        return kind

    def _pick_data_replicas(self, count: int) -> List[str]:
        """Spread data-layer replicas across racks, avoiding GPU nodes."""
        if count < 1:
            raise ValueError("need at least one data replica")
        chosen: List[str] = []
        racks = self.topology.racks
        idx = 0
        while len(chosen) < count:
            rack = racks[idx % len(racks)]
            nodes = self.topology.rack_nodes(rack)
            for node in reversed(nodes):  # last nodes are CPU-only
                if node.node_id not in chosen:
                    chosen.append(node.node_id)
                    break
            idx += 1
            if idx > count * len(racks) + len(racks):
                raise ValueError("cluster too small for replica count")
        return chosen

    # ------------------------------------------------------------------
    # Object lifecycle (control plane; plain methods)
    # ------------------------------------------------------------------
    def create_object(self, kind: ObjectKind = ObjectKind.REGULAR,
                      mutability: Mutability = Mutability.MUTABLE,
                      consistency: Consistency = Consistency.LINEARIZABLE,
                      ephemeral: bool = False,
                      host_node: Optional[str] = None,
                      meta: Any = None,
                      rights: Right = Right.all()) -> Reference:
        """Create an object and return a reference to it."""
        obj = PCSIObject(object_id=self.table.new_id(), kind=kind,
                         mutability=mutability, consistency=consistency,
                         created_at=self.sim.now, meta=meta,
                         host_node=host_node, ephemeral=ephemeral)
        if kind in (ObjectKind.FIFO, ObjectKind.SOCKET):
            if host_node is None:
                raise ValueError(f"{kind.value} objects need a host_node")
            self.topology.node(host_node)  # validate
        self.table.insert(obj)
        if kind == ObjectKind.FIFO:
            capacity = (meta or {}).get("capacity") \
                if isinstance(meta, dict) else None
            self._fifos[obj.object_id] = Channel(
                self.sim, capacity=capacity, name=f"fifo:{obj.object_id}")
        elif kind == ObjectKind.SOCKET:
            self._sockets[obj.object_id] = (
                Store(self.sim, name=f"sock-c2s:{obj.object_id}"),
                Store(self.sim, name=f"sock-s2c:{obj.object_id}"))
        return self.refs.mint(obj.object_id, rights)

    def mkdir(self, rights: Right = Right.all()) -> Reference:
        """Create an (unlinked) directory object."""
        return self.create_object(kind=ObjectKind.DIRECTORY, rights=rights)

    def create_root(self, tenant: str) -> Reference:
        """Create a tenant root directory: a GC root and the only way
        into that tenant's namespace (PCSI has no global root)."""
        ref = self.mkdir()
        obj = self.table.get(ref.object_id)
        obj.meta = {"tenant": tenant}
        self.refs.add_root(ref.object_id)
        return ref

    def create_fifo(self, host_node: str, capacity: Optional[int] = None,
                    rights: Right = Right.all()) -> Reference:
        """Create a FIFO object pinned to ``host_node``.

        A ``capacity`` bounds the queue: producers block (backpressure)
        rather than buffering unbounded state inside the kernel.
        """
        meta = {"capacity": capacity} if capacity is not None else None
        return self.create_object(kind=ObjectKind.FIFO, host_node=host_node,
                                  meta=meta, rights=rights)

    def create_socket(self, host_node: str,
                      rights: Right = Right.all()) -> Reference:
        """Create a socket object (e.g. an incoming TCP connection)."""
        return self.create_object(kind=ObjectKind.SOCKET,
                                  host_node=host_node, rights=rights)

    def register_device_service(self, name: str, service: Any) -> None:
        """Expose a system service behind DEVICE objects.

        ``service`` must provide ``handle(client_node, op, body)`` as a
        generator returning the response (the same duck type the
        storage services use).
        """
        if name in self._device_services:
            raise ValueError(f"device service {name!r} already registered")
        if not hasattr(service, "handle"):
            raise TypeError("device services need a handle() generator")
        self._device_services[name] = service

    def create_device(self, service_name: str,
                      rights: Right = Right.all()) -> Reference:
        """Create a DEVICE object bound to a registered service.

        Like ``/dev`` nodes, a device object is the capability-checked
        doorway to functionality that lives outside the data layer —
        e.g. the CRDT service that runs "largely parallel to PCSI".
        """
        if service_name not in self._device_services:
            raise ValueError(f"no device service {service_name!r}")
        return self.create_object(kind=ObjectKind.DEVICE,
                                  meta={"service": service_name},
                                  rights=rights)

    def define_function(self, name: str, impls: List[FunctionImpl],
                        body=None, reads: Optional[List[str]] = None,
                        writes: Optional[List[str]] = None,
                        output_nbytes: Any = 0) -> Reference:
        """Store a function as an (immutable) object in the data layer.

        Returns a reference carrying EXECUTE (plus MINT for delegation).
        """
        fn_def = FunctionDef(name=name, impls=list(impls), body=body,
                             reads=list(reads or []),
                             writes=list(writes or []),
                             output_nbytes=output_nbytes)
        return self.create_object(
            kind=ObjectKind.REGULAR, mutability=Mutability.IMMUTABLE,
            meta=fn_def,
            rights=Right.EXECUTE | Right.READ | Right.MINT)

    def function_def(self, fn_ref: Reference) -> FunctionDef:
        """The definition behind a function reference (for updates)."""
        obj = self._object(fn_ref)
        if not isinstance(obj.meta, FunctionDef):
            raise ObjectTypeError(f"{fn_ref.object_id} is not a function")
        return obj.meta

    def transition(self, ref: Reference, new_level: Mutability) -> None:
        """Change an object's mutability along the Figure 1 lattice."""
        self.refs.check(ref, Right.WRITE)
        obj = self._object(ref)
        check_transition(obj.mutability, new_level)
        obj.mutability = new_level

    def mutability_of(self, ref: Reference) -> Mutability:
        """Inspect an object's current level."""
        return self._object(ref).mutability

    # ------------------------------------------------------------------
    # Naming (control plane)
    # ------------------------------------------------------------------
    def link(self, dir_ref: Reference, name: str, target: Reference,
             rights: Optional[Right] = None) -> None:
        """Bind a name in a directory."""
        self.ns.link(dir_ref, name, target, rights)

    def unlink(self, dir_ref: Reference, name: str) -> None:
        """Remove a name (whiteout in unions)."""
        self.ns.unlink(dir_ref, name)

    def listdir(self, dir_ref: Reference) -> List[str]:
        """Visible names (union-merged)."""
        return self.ns.list_dir(dir_ref)

    def mount_union(self, upper: Reference,
                    lowers: List[Reference]) -> None:
        """Superimpose ``upper`` over read-only lower namespaces."""
        self.refs.check(upper, Right.WRITE)
        for low in lowers:
            self.refs.check(low, Right.READ)
        mount_union(self._object(upper),
                    [self._object(low) for low in lowers])

    def resolve(self, root: Reference, path: str) -> Generator:
        """Resolve a path; charges per-step control-plane time."""
        ref, steps = self.ns.resolve(root, path)
        yield self.sim.timeout(steps * RESOLVE_STEP_TIME)
        return ref

    # ------------------------------------------------------------------
    # Data plane (generators)
    # ------------------------------------------------------------------
    def op_read(self, node: str, ref: Reference,
                consistency: Optional[Consistency] = None) -> Generator:
        """Read object content from ``node``."""
        yield from self._authorize(ref, Right.READ)
        payload = yield from self.data.read(node, self._object(ref),
                                            consistency=consistency)
        return payload

    def op_write(self, node: str, ref: Reference, payload: SizedPayload,
                 append: bool = False,
                 consistency: Optional[Consistency] = None) -> Generator:
        """Write (or append) object content from ``node``."""
        right = Right.APPEND if append else Right.WRITE
        yield from self._authorize(ref, right)
        size = yield from self.data.write(node, self._object(ref), payload,
                                          append=append,
                                          consistency=consistency)
        return size

    def op_read_range(self, node: str, ref: Reference, offset: int,
                      length: int,
                      consistency: Optional[Consistency] = None
                      ) -> Generator:
        """Read one byte range of an object (only those bytes move)."""
        yield from self._authorize(ref, Right.READ)
        payload = yield from self.data.read_range(
            node, self._object(ref), offset, length,
            consistency=consistency)
        return payload

    def op_readv(self, node: str, ref: Reference,
                 extents) -> Generator:
        """Gather multiple extents in one round trip (scatter/gather)."""
        yield from self._authorize(ref, Right.READ)
        payloads = yield from self.data.read_vectored(
            node, self._object(ref), list(extents))
        return payloads

    def op_fifo_put(self, node: str, ref: Reference,
                    payload: SizedPayload) -> Generator:
        """Enqueue into a FIFO: payload travels to the FIFO's host.

        Blocks while a bounded FIFO is full (backpressure propagates to
        the producer, as with a POSIX pipe).
        """
        yield from self._authorize(ref, Right.WRITE)
        obj = self._object(ref).require_kind(ObjectKind.FIFO)
        with self.tracer.span("fifo.put", object=obj.object_id,
                              nbytes=payload.nbytes) as sp:
            yield from self.network.transfer(node, obj.host_node,
                                             payload.nbytes,
                                             purpose="fifo-put")
            item = _Handoff(payload, sp.span_id) if sp else payload
            yield self._fifos[obj.object_id].put(item)

    def op_fifo_get(self, node: str, ref: Reference) -> Generator:
        """Dequeue from a FIFO; blocks until an item is available."""
        yield from self._authorize(ref, Right.READ)
        obj = self._object(ref).require_kind(ObjectKind.FIFO)
        with self.tracer.span("fifo.get", object=obj.object_id) as sp:
            yield from self.network.transfer(node, obj.host_node, 64,
                                             purpose="fifo-get-req")
            queued = yield self._fifos[obj.object_id].get()
            item, origin = _unwrap(queued)
            if origin is not None:
                sp.set(origin_span=origin)
            sp.set(nbytes=item.nbytes)
            yield from self.network.transfer(obj.host_node, node,
                                             item.nbytes,
                                             purpose="fifo-get-resp")
        return item

    def op_socket_send(self, node: str, ref: Reference,
                       payload: SizedPayload,
                       server_side: bool = True) -> Generator:
        """Send on a socket (server side sends toward the client)."""
        yield from self._authorize(ref, Right.WRITE)
        obj = self._object(ref).require_kind(ObjectKind.SOCKET)
        with self.tracer.span("socket.send", object=obj.object_id,
                              nbytes=payload.nbytes,
                              server_side=server_side) as sp:
            yield from self.network.transfer(node, obj.host_node,
                                             payload.nbytes,
                                             purpose="sock-send")
            c2s, s2c = self._sockets[obj.object_id]
            item = _Handoff(payload, sp.span_id) if sp else payload
            (s2c if server_side else c2s).put(item)

    def op_socket_recv(self, node: str, ref: Reference,
                       server_side: bool = True) -> Generator:
        """Receive from a socket (server side reads client input)."""
        yield from self._authorize(ref, Right.READ)
        obj = self._object(ref).require_kind(ObjectKind.SOCKET)
        with self.tracer.span("socket.recv", object=obj.object_id,
                              server_side=server_side) as sp:
            c2s, s2c = self._sockets[obj.object_id]
            queued = yield (c2s if server_side else s2c).get()
            item, origin = _unwrap(queued)
            if origin is not None:
                sp.set(origin_span=origin)
            sp.set(nbytes=item.nbytes)
            yield from self.network.transfer(obj.host_node, node,
                                             item.nbytes,
                                             purpose="sock-recv")
        return item

    def op_device(self, node: str, ref: Reference, op: str,
                  body: Optional[Dict[str, Any]] = None,
                  right: Right = Right.WRITE) -> Generator:
        """Call into the system service behind a device object."""
        yield from self._authorize(ref, right)
        obj = self._object(ref).require_kind(ObjectKind.DEVICE)
        service = self._device_services.get((obj.meta or {}).get("service"))
        if service is None:
            raise ObjectNotFoundError(
                f"device {ref.object_id} is bound to a missing service")
        result = yield from service.handle(node, op, body or {})
        return result

    def op_resolve(self, root: Reference, path: str) -> Generator:
        """Generator alias of :meth:`resolve` for the syscall surface."""
        ref = yield from self.resolve(root, path)
        return ref

    def op_copy_up(self, node: str, dir_ref: Reference,
                   name: str) -> Generator:
        """Union copy-up: make ``name`` writable in the upper layer.

        Copies the lower-layer object's content into a fresh object
        linked in the upper layer; returns the new reference. A no-op
        (returning the existing ref) when the upper layer already owns
        the name.
        """
        self.refs.check(dir_ref, Right.WRITE)
        directory = self._object(dir_ref)
        entry = union_lookup(self.table, directory, name)
        if entry is None:
            raise ObjectNotFoundError(f"no entry {name!r}")
        source = self.table.get(entry.object_id)
        if not needs_copy_up(directory, name):
            ref = self.refs.mint(entry.object_id, entry.rights)
            yield self.sim.timeout(RESOLVE_STEP_TIME)
            return ref
        source.require_kind(ObjectKind.REGULAR)
        src_ref = self.refs.mint(source.object_id, Right.READ)
        content = yield from self.op_read(node, src_ref)
        new_ref = self.create_object(kind=ObjectKind.REGULAR,
                                     mutability=Mutability.MUTABLE,
                                     consistency=source.consistency)
        yield from self.op_write(node, new_ref, content)
        directory.entries[name] = DirEntry(object_id=new_ref.object_id,
                                           rights=entry.rights)
        return new_ref

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def invoke(self, client_node: str, fn_ref: Reference,
               args: Optional[Dict[str, Reference]] = None,
               request: Optional[Dict[str, Any]] = None,
               preferred_node: Optional[str] = None,
               impl_name: Optional[str] = None,
               retry=None,
               deadline: Optional[float] = None) -> Generator:
        """Invoke a function from ``client_node``; returns its result.

        ``retry`` (a :class:`~repro.core.retry.RetryPolicy`) retries
        transient infrastructure failures (safe: functions hold no
        implicit state), with optional jittered backoff, retry budgets,
        and hedged duplicates; ``None`` tries once. ``deadline``
        (relative seconds) bounds the whole call: the budget shrinks
        through nested invokes, storage operations, and network waits,
        and :class:`~repro.core.errors.DeadlineExceededError` is raised
        at expiry rather than blocking past it.
        """
        result = yield from self.scheduler.invoke(
            client_node, fn_ref, args or {}, request or {},
            preferred_node=preferred_node, impl_name=impl_name,
            retry=retry, deadline=deadline)
        return result

    # The syscall surface calls this (nested invocation).
    op_invoke = invoke

    def invoke_many(self, client_node: str, fn_ref: Reference,
                    args: Optional[Dict[str, Reference]] = None,
                    requests: Optional[List[Dict[str, Any]]] = None,
                    preferred_node: Optional[str] = None,
                    impl_name: Optional[str] = None,
                    retry=None,
                    deadline: Optional[float] = None) -> Generator:
        """Invoke a batch of requests serially; returns their results.

        Resolves the function reference once and validates every
        request up front, then runs each request through the same
        per-invoke path as :meth:`invoke` — under a pinned seed the
        outcomes are byte-identical to calling :meth:`invoke` in a
        loop (``repro.bench.regress --only throughput`` pins this).
        Use it for invoke storms where per-call resolution overhead
        matters; see :meth:`FunctionScheduler.invoke_many
        <repro.core.scheduler.FunctionScheduler.invoke_many>` for the
        retry/deadline semantics.
        """
        results = yield from self.scheduler.invoke_many(
            client_node, fn_ref, args or {}, list(requests or ()),
            preferred_node=preferred_node, impl_name=impl_name,
            retry=retry, deadline=deadline)
        return results

    def submit_graph(self, client_node: str, graph: TaskGraph,
                     ephemeral_intermediates: Optional[bool] = None
                     ) -> Generator:
        """Run a task graph; returns a :class:`GraphResult`.

        Intermediates default to *ephemeral* under graph-aware placement
        (the §4.1 fast path) and to replicated storage otherwise (the
        naive implementation the paper contrasts against).
        """
        sim = self.sim
        t0 = sim.now
        if ephemeral_intermediates is None:
            ephemeral_intermediates = isinstance(self.policy,
                                                 ColocatePlacement)
        graph_span = self.tracer.span(
            "graph", stages=len(graph.stages), client=client_node,
            ephemeral_intermediates=ephemeral_intermediates)
        with graph_span:
            result = yield from self._submit_graph(
                client_node, graph, ephemeral_intermediates, t0)
        return result

    def _submit_graph(self, client_node: str, graph: TaskGraph,
                      ephemeral_intermediates: bool,
                      t0: float) -> Generator:
        sim = self.sim
        # Ephemeral intermediates live in memory next to their producer;
        # the naive alternative bounces them through reliable remote
        # storage (which must be linearizable for read-after-write).
        consistency = (Consistency.EVENTUAL if ephemeral_intermediates
                       else Consistency.LINEARIZABLE)
        intermediate_refs = {
            spec.name: self.create_object(
                kind=ObjectKind.REGULAR,
                consistency=consistency,
                ephemeral=ephemeral_intermediates)
            for spec in graph.intermediates()}
        anchor = self._graph_anchor(graph) if ephemeral_intermediates \
            else None
        placements: Dict[str, str] = {}
        results: Dict[str, Any] = {}
        for stage_name in graph.topo_order():
            stage = graph.stage(stage_name)
            args = {
                arg: (intermediate_refs[binding.name]
                      if isinstance(binding, Intermediate) else binding)
                for arg, binding in stage.args.items()}
            upstream = graph.upstream_of(stage_name)
            preferred = placements[upstream[-1]] if upstream else anchor
            results[stage_name] = yield from self.scheduler.invoke(
                client_node, stage.fn_ref, args, stage.request,
                preferred_node=preferred, impl_name=stage.impl_name)
            placements[stage_name] = \
                self.scheduler.last_invocation_here().executor_node
        return GraphResult(results=results, latency=sim.now - t0,
                           placements=placements,
                           intermediate_refs=intermediate_refs)

    def _graph_anchor(self, graph: TaskGraph) -> Optional[str]:
        """Pick a node that can host the graph's most constrained stage.

        §4.1: "the system can schedule the first CPU function on a
        physical server that also contains a GPU." If any stage needs an
        accelerator, anchor the whole chain on a machine that has one.
        """
        needed: List[str] = []
        for stage in graph.stages:
            fn_obj = self.table.get(stage.fn_ref.object_id)
            fn_def = fn_obj.meta if fn_obj is not None else None
            if not isinstance(fn_def, FunctionDef):
                continue
            impls = ([fn_def.impl_named(stage.impl_name)]
                     if stage.impl_name else fn_def.impls)
            for impl in impls:
                kind = impl.platform.device_kind
                if kind != "cpu" and kind not in needed:
                    needed.append(kind)
        for kind in needed:
            nodes = self.topology.nodes_with_device(kind)
            if nodes:
                return min(
                    nodes,
                    key=lambda n: (n.allocated.dominant_share(n.capacity),
                                   n.node_id)).node_id
        return None

    # ------------------------------------------------------------------
    # GC & internals
    # ------------------------------------------------------------------
    def collect_garbage(self) -> Generator:
        """Run one mark/sweep; returns :class:`GCStats`."""
        stats: GCStats = yield from self.gc.collect()
        return stats

    def drop_transient_state(self, object_id: str) -> None:
        """Forget FIFO/socket queues of a collected object."""
        self._fifos.pop(object_id, None)
        self._sockets.pop(object_id, None)

    def preload(self, ref: Reference, payload: SizedPayload) -> None:
        """Bootstrap helper: install content with no simulated cost.

        For experiment setup only (e.g. model weights that exist before
        the measured window opens); the data lands on every replica.
        """
        obj = self._object(ref).require_kind(ObjectKind.REGULAR)
        if obj.ephemeral:
            raise ValueError("cannot preload an ephemeral object")
        record = Record(version=(1, "preload"), nbytes=payload.nbytes,
                        meta=payload.meta, timestamp=self.sim.now)
        for store in self.data.store.replicas.values():
            store._records[obj.object_id] = record
            store.bytes_stored += record.nbytes
        obj.size = payload.nbytes

    def external_send(self, socket_ref: Reference,
                      payload: SizedPayload) -> None:
        """Model the outside world pushing bytes into a socket object."""
        obj = self._object(socket_ref).require_kind(ObjectKind.SOCKET)
        c2s, _s2c = self._sockets[obj.object_id]
        c2s.put(payload)

    def external_recv(self, socket_ref: Reference) -> Generator:
        """Model the outside world awaiting the socket's response."""
        obj = self._object(socket_ref).require_kind(ObjectKind.SOCKET)
        _c2s, s2c = self._sockets[obj.object_id]
        queued = yield s2c.get()
        item, _origin = _unwrap(queued)
        return item

    def _authorize(self, ref: Reference, right: Right) -> Generator:
        """Constant-time capability check (the stateful-API payoff)."""
        yield self.sim.timeout(CAPABILITY_CHECK_TIME)
        self.refs.check(ref, right)

    def _object(self, ref: Reference) -> PCSIObject:
        obj = self.table.get(ref.object_id)
        if obj is None:
            raise ObjectNotFoundError(ref.object_id)
        return obj

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def client_node(self) -> str:
        """A CPU-only node suitable for external clients (deterministic)."""
        return self.topology.nodes[-1].node_id

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)

    def run_process(self, generator, limit: Optional[float] = None):
        """Spawn a process and run until it completes; returns its value."""
        return self.sim.run_until_event(self.sim.spawn(generator),
                                        limit=limit)
