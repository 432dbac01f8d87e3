"""The function scheduler: pools, dispatch, execution, metering.

One :class:`WarmPool` exists per (function, implementation) pair, so
every implementation scales independently (§4.2: "preprocessing
functions can be scaled independently of the GPU-enabled model
functions"). The scheduler dispatches an invocation by asking the
optimizer for an implementation, acquiring an executor (warm or cold)
from the chosen pool — honoring co-location hints — running the body
through its :class:`~repro.core.invoke.FunctionContext`, and metering
pay-per-use costs.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Generator, Iterator, Optional, Tuple

from ..cluster.health import CircuitOpenError, InvokeOrphanedError
from ..cluster.network import NetworkUnreachableError
from ..faas.autoscale import DEFAULT_KEEP_ALIVE, PlacementFailedError, WarmPool
from ..faas.platforms import ExecutorLostError
from ..net.marshal import estimate_size
from ..security.capabilities import Right
from ..sim.deadline import (
    DeadlineExceededError,
    DeadlineScope,
    current_deadline,
)
from ..sim.metrics_registry import Tally
from ..storage.replication import QuorumUnavailableError
from .errors import InvocationError, ObjectTypeError
from .functions import FunctionDef, FunctionImpl
from .invoke import FunctionContext, Invocation, default_body, validate_request
from .objects import ObjectKind
from .optimizer import ImplOptimizer
from .placement import PlacementPolicy
from .references import Reference
from .retry import (
    DEFAULT_BASE_RTT_MULTIPLE,
    NO_RETRY,
    RetryPolicy,
    race_first_success,
)

#: Wire size of a dispatch request/ack to the control plane.
DISPATCH_MSG_BYTES = 256

#: Process-context key under which :meth:`FunctionScheduler.invoke`
#: leaves the :class:`Invocation` it just completed, for its caller.
_LAST_INVOCATION = "scheduler.last_invocation"


class FunctionScheduler:
    """Executes invocations for a PCSI kernel."""

    def __init__(self, kernel, policy: PlacementPolicy,
                 optimizer: ImplOptimizer,
                 keep_alive: float = DEFAULT_KEEP_ALIVE):
        self.kernel = kernel
        self.policy = policy
        self.optimizer = optimizer
        self.keep_alive = keep_alive
        self.control_node = kernel.topology.nodes[0].node_id
        self._pools: Dict[Tuple[str, str], WarmPool] = {}
        self.history: list = []
        #: Attempts placed per (fn, impl): ``scheduler.placement``.
        self.placements: Dict[Tuple[str, str], int] = {}
        kernel.metrics.add_collector(("scheduler.placement",),
                                     self._collect_metrics)

    # -- pools ------------------------------------------------------------
    def pool_for(self, fn_def: FunctionDef, impl: FunctionImpl) -> WarmPool:
        """Get or create the warm pool for one implementation."""
        key = (fn_def.name, impl.name)
        if key not in self._pools:
            pool = WarmPool(
                self.kernel.sim, name=f"{fn_def.name}/{impl.name}",
                platform=impl.platform, resources=impl.resources,
                placer=self.policy.placer(), keep_alive=self.keep_alive,
                metrics=self.kernel.metrics, tracer=self.kernel.tracer)
            pool.health = self.kernel.health
            self.kernel.autoscaler.register(pool)
            self._pools[key] = pool
        return self._pools[key]

    def pools_by_impl(self, fn_def: FunctionDef) -> Dict[str, WarmPool]:
        """Existing pools keyed by impl name (for the optimizer)."""
        return {impl.name: self._pools[(fn_def.name, impl.name)]
                for impl in fn_def.impls
                if (fn_def.name, impl.name) in self._pools}

    # -- invocation -----------------------------------------------------------
    #: Failures that are safe to retry: because PCSI functions carry
    #: no implicit state (§3.1), re-executing an invocation is always
    #: semantically safe (at-least-once), so transient infrastructure
    #: failures need not surface to callers.
    RETRIABLE = (NetworkUnreachableError, QuorumUnavailableError,
                 PlacementFailedError, ExecutorLostError,
                 CircuitOpenError)

    def invoke(self, client_node: str, fn_ref: Reference,
               args: Dict[str, Reference], request: Dict[str, Any],
               preferred_node: Optional[str] = None,
               impl_name: Optional[str] = None,
               retry: Optional[RetryPolicy] = None,
               deadline: Optional[float] = None) -> Generator:
        """Run one invocation end to end; returns the body's result.

        ``retry`` (a :class:`~repro.core.retry.RetryPolicy`) retries
        transient infrastructure failures (unreachable replicas, lost
        quorums, placement races) with backoff, optionally jittered,
        budgeted, or hedged; application exceptions always propagate.
        ``None`` tries once.

        ``deadline`` is a *relative* time budget in seconds. It
        propagates through the function context into nested invokes,
        storage operations, and network waits (each shrinks the same
        budget), and the call is guaranteed to produce an outcome — a
        result or an exception — within the budget:
        :class:`DeadlineExceededError` is raised at expiry and the
        in-flight work is cancelled, never left to block the caller.
        """
        policy = NO_RETRY if retry is None else retry
        validate_request(request)
        fn_def = self._resolve_function(fn_ref)
        inv = yield from self._invoke_resolved(
            client_node, fn_ref, fn_def, args, request,
            preferred_node, impl_name, policy, deadline)
        self.kernel.sim.active_process.context[_LAST_INVOCATION] = inv
        return inv.result

    def last_invocation_here(self) -> Invocation:
        """The invocation of the running process's latest :meth:`invoke`.

        Unlike ``history[-1]`` it is this caller's own: overlapping
        requests append to :attr:`history` while an invoke's result is
        still in flight. A spawned process starts with its spawner's.
        """
        return self.kernel.sim.active_process.context[_LAST_INVOCATION]

    def invoke_many(self, client_node: str, fn_ref: Reference,
                    args: Dict[str, Reference],
                    requests: list,
                    preferred_node: Optional[str] = None,
                    impl_name: Optional[str] = None,
                    retry: Optional[RetryPolicy] = None,
                    deadline: Optional[float] = None) -> Generator:
        """Run a batch of invocations serially; returns their results.

        The batched entry point for invoke storms: the function
        reference is checked and resolved *once* and every request is
        validated up front (invalid input fails the batch before any
        side effects), then each request runs through the identical
        per-invoke path as :meth:`invoke` — same spans, same dispatch
        round-trip, same retry/deadline machinery. Under a pinned seed
        the per-invoke outcomes are byte-identical to a serial
        ``invoke`` loop (the throughput gate pins this); only the
        per-call resolution overhead is removed.

        ``retry`` (when given) is shared across the batch, so its
        retry budget governs the storm as a whole, exactly as it would
        if the caller looped over :meth:`invoke` passing the same
        policy. ``deadline`` applies per request, not to the batch.
        """
        policy = NO_RETRY if retry is None else retry
        fn_def = self._resolve_function(fn_ref)
        for request in requests:
            validate_request(request)
        results = []
        for request in requests:
            inv = yield from self._invoke_resolved(
                client_node, fn_ref, fn_def, args, request,
                preferred_node, impl_name, policy, deadline)
            results.append(inv.result)
        return results

    def _resolve_function(self, fn_ref: Reference) -> FunctionDef:
        """Capability-check ``fn_ref`` and return its FunctionDef."""
        kernel = self.kernel
        kernel.refs.check(fn_ref, Right.EXECUTE)
        fn_obj = kernel.table.get(fn_ref.object_id)
        fn_def = fn_obj.meta if fn_obj is not None else None
        if not isinstance(fn_def, FunctionDef):
            raise ObjectTypeError(
                f"reference {fn_ref.object_id} is not a function object")
        return fn_def

    def _invoke_resolved(self, client_node: str, fn_ref: Reference,
                         fn_def: FunctionDef, args: Dict[str, Reference],
                         request: Dict[str, Any],
                         preferred_node: Optional[str],
                         impl_name: Optional[str],
                         policy: RetryPolicy,
                         deadline: Optional[float]) -> Generator:
        """One invocation, after reference resolution and validation;
        returns the :class:`Invocation` of the attempt that produced the
        result.

        Without a deadline the request path runs inline in the
        caller's process. With one, the same path — dispatch included —
        runs as its own process (inheriting the deadline and trace
        context) raced against the expiry clock: a hard client-side
        guarantee that the caller unblocks at the deadline even if some
        wait below failed to observe the budget cooperatively.
        """
        kernel = self.kernel
        sim = kernel.sim
        # Root span of the whole request path: everything the invoke
        # touches (dispatch, placement, cold start, execution, storage,
        # transfers) nests under it via context propagation.
        with kernel.tracer.span("invoke", fn=fn_def.name,
                                client=client_node) as root:
            path = self._request_path(client_node, fn_ref, fn_def, args,
                                      request, preferred_node, impl_name,
                                      root, policy)
            if deadline is None:
                inv = yield from path
                return inv

            root.set(deadline_s=deadline)
            with DeadlineScope(sim, deadline) as bound:
                work = sim.spawn(path, name=f"invoke:{fn_def.name}")
                expiry = sim.timeout(max(bound.remaining(sim.now), 0.0))
                yield sim.any_of([work, expiry])
                if work.triggered:
                    if work.ok:
                        return work.value
                    raise work.value
                work.interrupt("deadline")
                # Attribute the expiry: if the node this invoke landed
                # on died under it, the trace should say "node-crash",
                # not a generic timeout, so recovery exemplars link to
                # the crashing node's trace. (_NullSpan's shared
                # attributes dict stays empty; .get is safe on it.)
                dead_node = root.attributes.get("node")
                if dead_node is not None:
                    try:
                        alive = kernel.topology.node(dead_node).alive
                    except KeyError:
                        alive = True
                    if not alive:
                        root.set(cause="node-crash", crashed_node=dead_node)
                kernel.metrics.counter("invoke.deadline_exceeded",
                                       fn=fn_def.name).add(1)
                raise DeadlineExceededError(
                    f"{fn_def.name}: no outcome within the {deadline}s "
                    f"deadline", bound)

    def _request_path(self, client_node: str, fn_ref: Reference,
                      fn_def: FunctionDef, args: Dict[str, Reference],
                      request: Dict[str, Any],
                      preferred_node: Optional[str],
                      impl_name: Optional[str], root,
                      policy: RetryPolicy) -> Generator:
        """Dispatch round trip, then the hedged or plain retry chain.

        This is also where crash-safe recovery lives: the invoke gets
        an idempotency key from the health plane (stable across every
        retry, hedge arm, and re-dispatch, so the completion log can
        deduplicate), and an attempt that raises
        :class:`InvokeOrphanedError` — its host confirmed dead
        mid-flight — is re-dispatched to a healthy node up to
        ``max_recoveries`` times. Recovery is platform-owned: it does
        not consume the caller's retry budget or attempt count. Without
        a health plane nothing is ever orphaned and the chain runs once.
        """
        kernel = self.kernel
        tracer = kernel.tracer
        health = kernel.health
        # Tell the control plane, which queues the invocation.
        yield from kernel.network.round_trip(
            client_node, self.control_node, DISPATCH_MSG_BYTES,
            DISPATCH_MSG_BYTES, purpose="dispatch")
        chain = self._run_hedged if policy.hedge_delay is not None \
            else self._retry_loop
        idem_key = health.idempotency_key(fn_def.name)
        recoveries = 0
        last_cause = "node-crash"
        try:
            while True:
                try:
                    inv = yield from chain(
                        client_node, fn_ref, fn_def, args, request,
                        preferred_node, impl_name, root, policy, idem_key)
                except InvokeOrphanedError as exc:
                    last_cause = exc.cause
                    if recoveries == 0:
                        health.orphaned += 1
                    kernel.metrics.counter("invoke.orphaned", fn=fn_def.name,
                                           cause=exc.cause).add(1)
                    if recoveries >= health.config.max_recoveries:
                        raise
                    recoveries += 1
                    with tracer.span("invoke.recover", fn=fn_def.name,
                                     node=exc.node_id, cause=exc.cause,
                                     n=recoveries):
                        pass
                    # Re-dispatch immediately, dropping the co-location
                    # hint: the preferred node is the one that just died.
                    preferred_node = None
                    continue
                except self.RETRIABLE as exc:
                    # A transient transport error while re-dispatching a
                    # recovered invoke. Recovery is platform-owned, so it
                    # must not depend on the caller's retry budget (a
                    # batch invoke typically has none): back off briefly —
                    # the fault that orphaned the invoke may still be
                    # partitioning the path — and re-dispatch, consuming
                    # recovery budget rather than attempt count.
                    if recoveries == 0 \
                            or recoveries >= health.config.max_recoveries:
                        raise
                    recoveries += 1
                    with tracer.span("invoke.recover", fn=fn_def.name,
                                     node=None,
                                     cause=type(exc).__name__,
                                     n=recoveries):
                        pass
                    yield kernel.sim.timeout(
                        kernel.profile.network_rtt
                        * DEFAULT_BASE_RTT_MULTIPLE * (2 ** recoveries))
                    continue
                if recoveries:
                    health.recovered += 1
                    kernel.metrics.counter("invoke.recovered", fn=fn_def.name,
                                           cause=last_cause).add(1)
                    root.set(recovered=recoveries, recovery_cause=last_cause)
                return inv
        finally:
            # Every dispatch of this invoke has settled (a losing
            # hedge arm is interrupted before the chain returns), so
            # no re-dispatch can consult its completion again.
            health.forget_invoke(idem_key)

    def _retry_loop(self, client_node: str, fn_ref: Reference,
                    fn_def: FunctionDef, args: Dict[str, Reference],
                    request: Dict[str, Any],
                    preferred_node: Optional[str],
                    impl_name: Optional[str], root,
                    policy: RetryPolicy,
                    idem_key: Optional[str]) -> Generator:
        """Attempt until success, exhaustion, veto, or deadline.

        A legacy policy (no jitter, no budget, no deadline) reproduces
        the original inline loop event for event: the n-th backoff is
        the uncapped base for n=1 and ``min(base * 2**(n-1), 1.0)``
        after, with the base defaulting to four profile RTTs.

        The loop also fails fast when every circuit breaker of the
        health plane refuses the function: there is no healthy target
        to retry against, so the failure surfaces immediately instead
        of backing off into an open breaker.
        """
        kernel = self.kernel
        sim = kernel.sim
        tracer = kernel.tracer
        policy.note_request()
        attempt = 0
        base = policy.base_backoff if policy.base_backoff is not None \
            else kernel.profile.network_rtt * DEFAULT_BASE_RTT_MULTIPLE
        while True:
            attempt += 1
            try:
                with tracer.span("attempt", n=attempt,
                                 preferred=preferred_node):
                    inv = yield from self._attempt(
                        client_node, fn_ref, fn_def, args, request,
                        preferred_node, impl_name, root,
                        idem_key=idem_key)
                return inv
            except self.RETRIABLE as exc:
                if attempt >= policy.max_attempts:
                    raise
                if not kernel.health.dispatch_allowed(fn_def.name):
                    # Every breaker for this function is open: retrying
                    # would only hammer targets already known bad.
                    kernel.metrics.counter("invoke.breaker_failfast",
                                           fn=fn_def.name).add(1)
                    raise
                deadline = current_deadline(sim)
                if deadline is not None and deadline.expired(sim.now):
                    raise DeadlineExceededError(
                        f"{fn_def.name}: deadline expired after a "
                        f"retriable {type(exc).__name__}",
                        deadline) from exc
                if not policy.allow_retry():
                    # Budget dry: surface the failure rather than add
                    # to the storm.
                    kernel.metrics.counter(
                        "invoke.retry_vetoed", fn=fn_def.name,
                        cause=type(exc).__name__).add(1)
                    raise
                delay = policy.next_delay(attempt, base)
                if deadline is not None \
                        and deadline.remaining(sim.now) <= delay:
                    # Sleeping out the backoff would blow the budget;
                    # fail promptly instead of blocking past it.
                    raise DeadlineExceededError(
                        f"{fn_def.name}: backoff of {delay:.3f}s exceeds "
                        f"the remaining deadline budget",
                        deadline) from exc
                # Labeled child rolls up into the bare "invoke.retries"
                # aggregate.
                kernel.metrics.counter(
                    "invoke.retries", fn=fn_def.name,
                    cause=type(exc).__name__).add(1)
                with tracer.span("retry.backoff", attempt=attempt,
                                 cause=type(exc).__name__):
                    yield sim.timeout(delay)

    def _hedge_count(self, fn_name: str, event: str) -> None:
        """One ``invoke.hedge.*`` event, labeled by function."""
        self.kernel.metrics.counter(f"invoke.hedge.{event}",
                                    fn=fn_name).add(1)

    def _hedge_delay(self, fn_def: FunctionDef,
                     policy: RetryPolicy) -> float:
        """The hedge arming delay for this invocation.

        ``hedge_mode="fixed"`` returns ``policy.hedge_delay`` untouched
        (no attributor reads — byte-identical to the pre-adaptive
        scheduler). ``"adaptive"`` arms at the observed
        ``hedge_quantile`` warm latency of this function — merged
        across impls and node classes via the attributor's quantile
        sketches — falling back to the fixed delay until
        ``hedge_min_samples`` observations (the attributor's
        ``min_samples`` when unset) — always, under ``NO_ATTRIBUTION``.
        """
        if policy.hedge_mode != "adaptive":
            return policy.hedge_delay
        attributor = self.kernel.attributor
        need = policy.hedge_min_samples
        if need is None:
            need = attributor.min_samples
        if attributor.samples(fn_def.name) < need:
            return policy.hedge_delay
        tail = attributor.tail_latency(fn_def.name,
                                       q=policy.hedge_quantile)
        if tail is None or tail <= 0:
            return policy.hedge_delay
        return tail

    def _run_hedged(self, client_node: str, fn_ref: Reference,
                    fn_def: FunctionDef, args: Dict[str, Reference],
                    request: Dict[str, Any],
                    preferred_node: Optional[str],
                    impl_name: Optional[str], root,
                    policy: RetryPolicy,
                    idem_key: Optional[str]) -> Generator:
        """Primary attempt chain plus a delayed speculative duplicate.

        The primary runs as its own process. If it produces no outcome
        within the resolved hedge delay (:meth:`_hedge_delay` — the
        fixed ``policy.hedge_delay``, or the observed tail quantile in
        adaptive mode), a secondary chain is dispatched
        (without the co-location hint, so placement anti-affinity can
        route it around a slow machine) and the first chain to
        *succeed* wins; the loser is interrupted and its sandbox
        reclaimed through the normal release path. Both chains failing
        propagates the earliest failure.
        """
        kernel = self.kernel
        sim = kernel.sim
        tracer = kernel.tracer

        def arm(arm_preferred: Optional[str]) -> Generator:
            # Both arms share one idempotency key: whichever finishes
            # second finds the first's completion in the dedup log.
            inv = yield from self._retry_loop(
                client_node, fn_ref, fn_def, args, request,
                arm_preferred, impl_name, root, policy,
                idem_key=idem_key)
            return inv

        delay = self._hedge_delay(fn_def, policy)
        with tracer.span("hedge", fn=fn_def.name,
                         delay=delay) as hspan:
            primary = sim.spawn(arm(preferred_node),
                                name=f"hedge:primary:{fn_def.name}")
            trigger = sim.timeout(delay)
            # A failing primary fails the any_of, which re-raises here —
            # exactly the unhedged semantics.
            yield sim.any_of([primary, trigger])
            if primary.triggered:
                if primary.ok:
                    hspan.set(hedged=False)
                    return primary.value
                raise primary.value
            self._hedge_count(fn_def.name, "launched")
            secondary = sim.spawn(arm(None),
                                  name=f"hedge:secondary:{fn_def.name}")
            winner = yield from race_first_success(sim,
                                                   [primary, secondary])
            loser = secondary if winner is primary else primary
            if loser.is_alive:
                loser.interrupt("hedge-lost")
                self._hedge_count(fn_def.name, "cancelled")
            if winner is secondary:
                self._hedge_count(fn_def.name, "won")
            hspan.set(hedged=True,
                      winner="secondary" if winner is secondary
                      else "primary")
            return winner.value

    def _attempt(self, client_node: str, fn_ref: Reference,
                 fn_def: FunctionDef, args: Dict[str, Reference],
                 request: Dict[str, Any], preferred_node: Optional[str],
                 impl_name: Optional[str], root_span,
                 idem_key: Optional[str]) -> Generator:
        kernel = self.kernel
        sim = kernel.sim
        tracer = kernel.tracer
        health = kernel.health
        if impl_name is not None:
            impl = fn_def.impl_named(impl_name)
        else:
            impl = self.optimizer.choose(fn_def, self.pools_by_impl(fn_def))
        pool = self.pool_for(fn_def, impl)
        placements = self.placements
        key = (fn_def.name, impl.name)
        placements[key] = placements.get(key, 0) + 1

        inv = Invocation(fn_name=fn_def.name, impl_name=impl.name,
                         args=dict(args), request=dict(request),
                         submitted_at=sim.now, client_node=client_node)
        size_before = pool.cold_starts
        executor = yield from pool.acquire(preferred_node=preferred_node)
        inv.cold_start = pool.cold_starts > size_before
        inv.executor_node = executor.node.node_id
        inv.started_at = sim.now
        root_span.set(impl=impl.name, node=inv.executor_node,
                      cold=inv.cold_start)

        if not health.allow_dispatch(fn_def.name, inv.executor_node):
            # The (fn, node class) breaker refused this dispatch: hand
            # the sandbox back and let the retry loop decide whether
            # another class can serve, or fail fast if all are open.
            pool.release(executor)
            raise CircuitOpenError(fn_def.name,
                                   health.node_class(inv.executor_node))

        for ref in args.values():
            kernel.refs.pin(ref.object_id)
        kernel.refs.pin(fn_ref.object_id)
        try:
            body = fn_def.body
            if body is None:
                body = partial(default_body, fn_def)
            ctx = FunctionContext(kernel, inv, executor, impl)
            with tracer.span("execute", fn=fn_def.name, impl=impl.name,
                             node=inv.executor_node, cold=inv.cold_start):
                result = yield from health.run_body(fn_def.name, body, ctx,
                                                    inv, idem_key)
        finally:
            for ref in args.values():
                kernel.refs.unpin(ref.object_id)
            kernel.refs.unpin(fn_ref.object_id)
            pool.release(executor)

        inv.finished_at = sim.now
        inv.result = result
        self.history.append(inv)

        # Pay-per-use metering (§2.4 / §4.2).
        memory_gb = impl.resources.memory / 1024 ** 3
        gpus = (impl.resources.accelerators.get("gpu", 0)
                + impl.resources.accelerators.get("npu", 0))
        kernel.meter.invocation(inv.service_time, memory_gb, gpus=gpus)
        # Exemplar: the id of the sampled root span tree this latency
        # came from (None when untraced/undecided), so a p99 bucket can
        # be opened back into a concrete trace.
        kernel.metrics.histogram(
            "invoke.latency", fn=fn_def.name, impl=impl.name,
            cold=inv.cold_start).observe(
                inv.latency, exemplar=tracer.exemplar_root_id(root_span))

        # The (small) result travels back to the caller.
        result_size = DISPATCH_MSG_BYTES
        try:
            result_size += estimate_size(result)
        except TypeError:
            pass  # opaque results modeled as control-message sized
        yield from kernel.network.transfer(executor.node.node_id,
                                           client_node, result_size,
                                           purpose="invoke-result")
        return inv

    # -- introspection -------------------------------------------------------------
    def _collect_metrics(self) -> Iterator[Tally]:
        """Report the placement tallies (the registry's collector)."""
        for (fn, impl), count in self.placements.items():
            yield "scheduler.placement", (("fn", fn), ("impl", impl)), count

    def last_invocation(self, fn_name: str) -> Invocation:
        """Most recent invocation of a function (placement hints)."""
        for inv in reversed(self.history):
            if inv.fn_name == fn_name:
                return inv
        raise InvocationError(f"no invocation of {fn_name!r} yet")

    def cold_start_count(self) -> int:
        """Total cold starts across all pools."""
        return sum(p.cold_starts for p in self._pools.values())

    def pool_sizes(self) -> Dict[str, int]:
        """Live executors per pool."""
        return {f"{fn}/{impl}": pool.size
                for (fn, impl), pool in sorted(self._pools.items())}

    def pool_peaks(self) -> Dict[str, int]:
        """Peak concurrent executors per pool over the whole run."""
        return {f"{fn}/{impl}": pool.peak_size
                for (fn, impl), pool in sorted(self._pools.items())}
