"""Per-layer tracing from outside the program: wrappers, fold, memory.

The traced run installs wrappers around each layer's entry points (the
functions another layer calls into) at runtime, from this file; nothing
under ``src/`` knows about them. Every call of a wrapped function is an
*activation* on one host-time stack:

* a plain function is one activation;
* a generator (every latency-bearing PCSI call is one) is charged for
  **every resumption**: each ``send``/``throw`` into it is one
  activation, so time the generator spends suspended in simulated time
  is never charged to it;
* a process the simulator spawns is charged, for its own code, to the
  layer that spawned it (a quorum fan-out is storage work even though
  the engine resumes it).

A layer's self time is the duration of its activations minus the part
covered by their child activations. The timed window itself is one
``other`` activation at the bottom of the stack, so benchmark glue and
anything no layer claims land in ``other``, and the self times of all
layers plus ``other`` add up to the window's wall time exactly.

The wrappers only observe: they add no simulator events and hold no
reference to yielded events (the engine recycles events by refcount),
so a traced run must reproduce the untraced run's outcomes exactly.

Layer names follow the modules (``LAYER_MODULES``); the same map groups
tracemalloc statistics by source file for retained bytes.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer -> the ``repro`` modules (or packages) it owns.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "engine": ("sim.engine", "sim.resources"),
    "scheduler": ("core.scheduler", "core.invoke", "core.retry",
                  "sim.deadline"),
    "placement": ("core.placement", "core.optimizer"),
    "faas": ("faas",),
    "network": ("cluster.network", "cluster.latency"),
    "storage": ("core.consistency", "storage"),
    "kernel": ("core.system", "core.objects", "core.references",
               "core.namespace", "security"),
    "trace": ("sim.trace",),
    "metrics": ("sim.metrics", "sim.metrics_registry", "sim.sketch"),
    "attribution": ("bench.attribution", "bench.critical_path"),
    "health": ("cluster.health",),
    "gateway": ("net.gateway",),
}
LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)
#: Where time and bytes no layer claims are charged.
OTHER = "other"
#: Where the traced run's own wrappers are charged.
PROBE = "probe"

#: Layer -> ``"module:Class.method"`` entry points to wrap.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "engine": (
        "sim.engine:Simulator.run", "sim.engine:Simulator.run_until_event",
        "sim.engine:Simulator.timeout", "sim.engine:Simulator.event",
        "sim.engine:Simulator.all_of", "sim.engine:Simulator.any_of",
        "sim.resources:Resource.acquire", "sim.resources:Resource.release",
        "sim.resources:Resource.cancel", "sim.resources:Store.put",
        "sim.resources:Store.get", "sim.resources:Channel.put",
        "sim.resources:Channel.get", "sim.resources:Container.put",
        "sim.resources:Container.take",
    ),
    "scheduler": (
        "core.scheduler:FunctionScheduler.invoke",
        "core.scheduler:FunctionScheduler.invoke_many",
        "core.scheduler:FunctionScheduler._attempt",
        "core.invoke:FunctionContext.read",
        "core.invoke:FunctionContext.write",
        "core.invoke:FunctionContext.append",
        "core.invoke:FunctionContext.fifo_put",
        "core.invoke:FunctionContext.fifo_get",
        "core.invoke:FunctionContext.socket_send",
        "core.invoke:FunctionContext.socket_recv",
        "core.invoke:FunctionContext.resolve",
        "core.invoke:FunctionContext.device",
        "core.invoke:FunctionContext.compute",
        "core.invoke:FunctionContext.invoke",
        "core.invoke:FunctionContext.invoke_async",
    ),
    "placement": (
        "core.placement:PlacementPolicy.candidates",
        "core.placement:NaivePlacement.choose",
        "core.placement:ColocatePlacement.choose",
        "core.placement:ScavengePlacement.choose",
        "core.placement:SpreadPlacement.choose",
        "core.placement:ObservedPlacement.choose",
        "core.optimizer:ImplOptimizer.choose",
    ),
    "faas": (
        "faas.autoscale:WarmPool.acquire", "faas.autoscale:WarmPool.release",
        "faas.autoscale:WarmPool.prewarm", "faas.autoscale:WarmPool.shrink",
        "faas.autoscale:WarmPool.drain", "faas.platforms:Executor.provision",
        "faas.platforms:Executor.compute", "faas.platforms:Executor.shutdown",
    ),
    "network": (
        "cluster.network:Network.transfer",
        "cluster.network:Network.round_trip",
        "cluster.network:Network.send", "cluster.network:Network.rtt",
    ),
    "storage": (
        "core.consistency:DataLayer.read", "core.consistency:DataLayer.write",
        "core.consistency:DataLayer.read_range",
        "core.consistency:DataLayer.read_vectored",
        "core.consistency:DataLayer.purge",
    ),
    "kernel": tuple(
        f"core.system:PCSICloud.{name}" for name in (
            "create_object", "mkdir", "create_root", "create_fifo",
            "create_socket", "create_device", "define_function",
            "function_def", "transition", "link", "unlink", "listdir",
            "mount_union", "resolve", "op_read", "op_write",
            "op_read_range", "op_readv", "op_fifo_put", "op_fifo_get",
            "op_socket_send", "op_socket_recv", "op_device", "op_resolve",
            "op_copy_up", "invoke", "op_invoke", "invoke_many",
            "submit_graph", "collect_garbage", "preload", "external_send",
            "external_recv")) + (
        "core.references:ReferenceManager.mint",
        "core.references:ReferenceManager.check",
        "core.references:ReferenceManager.revoke",
        "core.references:ReferenceManager.pin",
        "core.references:ReferenceManager.unpin",
        "core.namespace:NamespaceManager.resolve",
        "core.namespace:NamespaceManager.link",
        "core.namespace:NamespaceManager.unlink",
        "core.namespace:NamespaceManager.list_dir",
    ),
    "trace": (
        "sim.trace:Tracer.span", "sim.trace:Tracer.start_span",
        "sim.trace:Tracer.end_span", "sim.trace:Tracer.record",
        "sim.trace:Tracer.exemplar_root_id",
        "sim.trace:_SpanContext.__enter__", "sim.trace:_SpanContext.__exit__",
    ),
    "metrics": (
        "sim.metrics_registry:LabeledMetricsRegistry.counter",
        "sim.metrics_registry:LabeledMetricsRegistry.histogram",
        "sim.metrics_registry:LabeledMetricsRegistry.gauge",
        "sim.metrics_registry:LabeledCounter.add",
        "sim.metrics_registry:LabeledHistogram.observe",
        "sim.metrics_registry:LabeledGauge.set",
        "sim.metrics:Counter.add", "sim.metrics:Histogram.observe",
        "sim.metrics:TimeWeightedGauge.set",
        "sim.metrics:TimeWeightedGauge.add",
        "sim.sketch:QuantileSketch.insert",
    ),
    "attribution": tuple(
        f"bench.attribution:LatencyAttributor.{name}" for name in (
            "observe_root", "observe_invoke", "samples", "vector",
            "warm_latency", "tail_latency", "cold_overhead",
            "node_class_latency")),
    "health": tuple(
        f"cluster.health:HealthPlane.{name}" for name in (
            "start", "notify_activity", "confirm_dead", "avoid",
            "node_class", "allow_dispatch", "dispatch_allowed",
            "all_breakers_open", "report_outcome", "idempotency_key",
            "register_dispatch", "settle_dispatch")) + (
        "cluster.health:CompletionLog.lookup",
        "cluster.health:CompletionLog.record",
    ),
    "gateway": (
        "net.gateway:AdmissionGateway.submit",
        "net.gateway:AdmissionGateway.register_tenant",
        "net.gateway:AdmissionGateway.estimated_service_time",
        "net.gateway:AdmissionGateway._acquire_slot",
        "net.gateway:NoAdmission.submit",
    ),
}

#: Counter -> entry points each of whose calls adds one.
COUNTED: Dict[str, Tuple[str, ...]] = {
    "scheduler.invokes": ("core.scheduler:FunctionScheduler.invoke",),
    "scheduler.attempts": ("core.scheduler:FunctionScheduler._attempt",),
    "faas.acquires": ("faas.autoscale:WarmPool.acquire",),
    "faas.cold_starts": ("faas.platforms:Executor.provision",),
    "network.transfers": ("cluster.network:Network.transfer",),
    "storage.reads": ("core.consistency:DataLayer.read",
                      "core.consistency:DataLayer.read_range",
                      "core.consistency:DataLayer.read_vectored"),
    "storage.writes": ("core.consistency:DataLayer.write",),
    "kernel.capability_checks": ("core.references:ReferenceManager.check",),
    "trace.spans": ("sim.trace:_SpanContext.__enter__",
                    "sim.trace:Tracer.start_span"),
    "attribution.roots": ("bench.attribution:LatencyAttributor.observe_root",),
}
#: Counter -> (entry point, argument) whose value each call adds.
ARG_TALLIED: Dict[str, Tuple[str, str]] = {
    "network.bytes": ("cluster.network:Network.transfer", "nbytes"),
}
#: Simulated-time total -> generator entry points whose simulated
#: duration (creation to completion) each call adds. None of these
#: entries calls another of its own total, so nothing counts twice.
SIM_TIMED: Dict[str, Tuple[str, ...]] = {
    "faas.sim_wait": ("faas.autoscale:WarmPool.acquire",),
    "network.sim": ("cluster.network:Network.transfer",),
    "storage.sim": ("core.consistency:DataLayer.read",
                    "core.consistency:DataLayer.write",
                    "core.consistency:DataLayer.read_range",
                    "core.consistency:DataLayer.read_vectored",
                    "core.consistency:DataLayer.purge"),
    "gateway.sim_queue": ("net.gateway:AdmissionGateway._acquire_slot",),
}
#: The simulator method that starts processes (charged as described).
SPAWN = "sim.engine:Simulator.spawn"


class _Call:
    """One logical call of a generator entry point, creation to end."""

    __slots__ = ("span_id", "parent", "entry", "layer", "host0", "sim0",
                 "sim_total")

    def __init__(self, span_id: int, parent: int, entry: str, layer: str,
                 host0: float, sim0: float, sim_total: Optional[str]):
        self.span_id = span_id
        self.parent = parent
        self.entry = entry
        self.layer = layer
        self.host0 = host0
        self.sim0 = sim0
        self.sim_total = sim_total


class LayerTrace:
    """The activation stack and its online fold into per-layer totals.

    ``clock`` is the host clock (seconds); tests pass a fake one. Set
    ``sim`` to the simulator whose clock stamps simulated durations.

    A wrapper's own work between its first and last clock reads is
    charged to ``probe``, not to the layer it wraps nor to its caller:
    an activation's self time is only the interval around the wrapped
    call, minus its children, and the caller's child time covers the
    whole wrapper. What no clock read brackets (entering and leaving a
    wrapper) stays in the caller's self time. Either way
    ``sum(self_s.values())`` is the wall time of the bottom activation.

    Finished calls are kept as spans, the first ``span_cap`` of them:
    ``(span_id, parent_id, entry, host_start, host_end, sim_start,
    sim_end)``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = 50_000):
        self.clock = clock
        self.sim = None
        self.span_cap = span_cap
        #: Open activations: ``[child_s, layer, span_id, start]``.
        self.stack: List[list] = []
        self.ids = itertools.count(1)
        self.self_s: Dict[str, float] = dict.fromkeys(
            LAYERS + (OTHER, PROBE), 0.0)
        #: Calls into each layer from outside it.
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS + (OTHER,), 0)
        self.counts: Dict[str, float] = dict.fromkeys(
            tuple(COUNTED) + tuple(ARG_TALLIED), 0)
        self.sim_s: Dict[str, float] = dict.fromkeys(SIM_TIMED, 0.0)
        self.spans: List[tuple] = []
        #: Duration of the bottom activation, once closed.
        self.window_s = 0.0

    def reset(self) -> None:
        """Zero every total in place (the stack must be empty)."""
        if self.stack:
            raise RuntimeError("reset inside an open activation")
        for totals in (self.self_s, self.calls, self.counts, self.sim_s):
            for key in totals:
                totals[key] = 0
        self.spans.clear()
        self.window_s = 0.0

    # -- the fold ------------------------------------------------------
    def enter(self, layer: str, span_id: int = 0) -> None:
        """Open an activation of ``layer`` (the window, or in tests)."""
        self.stack.append([0.0, layer, span_id, self.clock()])

    def exit(self) -> float:
        """Close the innermost :meth:`enter`; returns its duration."""
        stack = self.stack
        child, layer, _, start = stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        if stack:
            stack[-1][0] += duration
        return duration

    def account(self, frame: list, t_in: float, t0: float,
                t1: float) -> None:
        """Close a wrapper's activation ``frame``: the wrapped call ran
        from ``t0`` to ``t1``; the wrapper itself from ``t_in`` to now."""
        stack = self.stack
        stack.pop()
        self_s = self.self_s
        self_s[frame[1]] += t1 - t0 - frame[0]
        t_out = self.clock()
        self_s[PROBE] += (t0 - t_in) + (t_out - t1)
        if stack:
            stack[-1][0] += t_out - t_in

    def probe_only(self, t_in: float) -> None:
        """Charge a wrapper that ran no activation (since ``t_in``)."""
        spent = self.clock() - t_in
        self.self_s[PROBE] += spent
        if self.stack:
            self.stack[-1][0] += spent

    @property
    def depth(self) -> int:
        return len(self.stack)

    def sim_now(self) -> float:
        sim = self.sim
        return sim.now if sim is not None else 0.0

    def open_call(self, entry: str, layer: str, t_in: float,
                  sim_total: Optional[str]) -> _Call:
        """A generator call is created: count it, link its parent."""
        stack = self.stack
        top = stack[-1] if stack else None
        if top is None or top[1] != layer:
            self.calls[layer] += 1
        timed = sim_total is not None or len(self.spans) < self.span_cap
        return _Call(next(self.ids), top[2] if top else 0, entry, layer,
                     t_in, self.sim_now() if timed else 0.0, sim_total)

    def close_call(self, call: _Call, t1: float) -> None:
        """A generator call finished (returned or raised) at ``t1``."""
        sim_total = call.sim_total
        if sim_total is None and len(self.spans) >= self.span_cap:
            return
        sim1 = self.sim_now()
        if sim_total is not None:
            self.sim_s[sim_total] += sim1 - call.sim0
        if len(self.spans) < self.span_cap:
            self.spans.append((call.span_id, call.parent, call.entry,
                               call.host0, t1, call.sim0, sim1))

    def generator(self, call: _Call, gen) -> Iterator:
        """Drive ``gen``, charging every resumption to ``call.layer``.

        A generator that forwards ``send``/``throw``/``close``; it keeps
        no reference to the values ``gen`` yields while suspended.
        """
        clock = self.clock
        stack = self.stack
        layer, span_id = call.layer, call.span_id
        box: list = []
        value = error = None
        while True:
            t_in = clock()
            frame = [0.0, layer, span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if error is None:
                    box.append(gen.send(value))
                else:
                    box.append(gen.throw(error))
            except StopIteration as stop:
                t1 = clock()
                self.close_call(call, t1)
                self.account(frame, t_in, t0, t1)
                return stop.value
            except BaseException:
                t1 = clock()
                self.close_call(call, t1)
                self.account(frame, t_in, t0, t1)
                raise
            self.account(frame, t_in, t0, clock())
            value = error = None
            try:
                value = yield box.pop()
            except GeneratorExit:
                self.enter(layer, span_id)
                try:
                    gen.close()
                finally:
                    self.exit()
                raise
            except BaseException as exc:  # noqa: BLE001 - thrown into gen
                error = exc


_GENERATOR_CODE = LayerTrace.generator.__code__


def _resolve(entry: str):
    """``"module:Class.method"`` -> (class, method name, function)."""
    module_name, qualname = entry.split(":")
    class_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(f"repro.{module_name}"),
                  class_name)
    fn = cls.__dict__.get(method)
    if not inspect.isfunction(fn):
        raise LookupError(f"{entry} is not a function defined on "
                          f"{class_name}")
    return cls, method, fn


def _index(table: Dict[str, Tuple[str, ...]]) -> Dict[str, str]:
    return {entry: key for key, entries in table.items()
            for entry in entries}


def _wrap(trace: LayerTrace, entry: str, layer: str, fn):
    """The traced stand-in for entry point ``fn`` of ``layer``."""
    counted = _index(COUNTED).get(entry)
    sim_total = _index(SIM_TIMED).get(entry)
    tallied = [(key, list(inspect.signature(fn).parameters).index(arg),
                arg)
               for key, (tally_entry, arg) in ARG_TALLIED.items()
               if tally_entry == entry]
    clock, stack, calls = trace.clock, trace.stack, trace.calls
    counts, spans, ids = trace.counts, trace.spans, trace.ids
    name = fn.__name__

    def note(args, kwargs) -> None:
        if counted is not None:
            counts[counted] += 1
        for key, position, arg in tallied:
            counts[key] += args[position] if len(args) > position \
                else kwargs.get(arg, 0)

    if inspect.isgeneratorfunction(fn):
        def traced(*args, **kwargs):
            t_in = clock()
            note(args, kwargs)
            call = trace.open_call(entry, layer, t_in, sim_total)
            wrapped = trace.generator(call, fn(*args, **kwargs))
            wrapped.__name__ = name     # a spawned process is named after it
            trace.probe_only(t_in)
            return wrapped
    else:
        def traced(*args, **kwargs):
            t_in = clock()
            note(args, kwargs)
            top = stack[-1] if stack else None
            if top is None or top[1] != layer:
                calls[layer] += 1
            span_id = next(ids)
            frame = [0.0, layer, span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if len(spans) < trace.span_cap:
                    now = trace.sim_now()
                    spans.append((span_id, top[2] if top else 0, entry,
                                  t0, t1, now, now))
                trace.account(frame, t_in, t0, t1)
    traced.__wrapped__ = fn
    traced.__name__ = name
    return traced


def _wrap_spawn(trace: LayerTrace, entry: str, spawn):
    """Charge a spawned process's own code to the spawning layer."""
    clock, stack = trace.clock, trace.stack

    def traced_spawn(sim, generator, *args, **kwargs):
        t_in = clock()
        if getattr(generator, "gi_code", None) is not _GENERATOR_CODE:
            layer = stack[-1][1] if stack else OTHER
            call = trace.open_call(entry, layer, t_in, None)
            wrapped = trace.generator(call, generator)
            wrapped.__name__ = getattr(generator, "__name__", "Process")
            generator = wrapped
        frame = [0.0, "engine", 0, 0.0]
        stack.append(frame)
        t0 = clock()
        try:
            return spawn(sim, generator, *args, **kwargs)
        finally:
            trace.account(frame, t_in, t0, clock())
    traced_spawn.__wrapped__ = spawn
    return traced_spawn


class installed:
    """Context manager: every entry point wrapped for ``trace``.

    Install before the cloud is built: objects that capture bound
    methods at construction (tracer root listeners, health loops) then
    capture the wrappers. Leaving restores every original function.
    """

    def __init__(self, trace: LayerTrace):
        self.trace = trace
        self._originals: List[Tuple[type, str, Any]] = []

    def __enter__(self) -> LayerTrace:
        try:
            for layer, entries in ENTRY_POINTS.items():
                for entry in entries:
                    cls, method, fn = _resolve(entry)
                    self._patch(cls, method, fn,
                                _wrap(self.trace, entry, layer, fn))
            cls, method, fn = _resolve(SPAWN)
            self._patch(cls, method, fn, _wrap_spawn(self.trace, SPAWN, fn))
        except BaseException:
            self._restore()
            raise
        return self.trace

    def _patch(self, cls: type, method: str, original, wrapper) -> None:
        self._originals.append((cls, method, original))
        setattr(cls, method, wrapper)

    def _restore(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def __exit__(self, *exc_info) -> bool:
        self._restore()
        return False


# ------------------------------------------------------------------ memory
def layer_of_file(filename: str) -> str:
    """The layer owning a source file (``other`` outside every layer)."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return OTHER
    module = path[at + len(marker):-3].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[:-len(".__init__")]
    for layer, owned in LAYER_MODULES.items():
        for prefix in owned:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return OTHER


def retained_by_layer(before, after) -> Dict[str, int]:
    """Bytes retained between two tracemalloc snapshots, per layer."""
    totals = dict.fromkeys(LAYERS + (OTHER,), 0)
    for stat in after.compare_to(before, "filename"):
        frame = stat.traceback[0]
        totals[layer_of_file(frame.filename)] += stat.size_diff
    return totals
