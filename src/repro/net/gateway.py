"""The admission gateway: the cloud's front door under overload.

The paper's position is that the cloud's entry point should be a
first-class system interface, not an SDK bolted onto a scheduler — and
a first-class front door must survive the traffic of millions of
users. This module is the overload-control half of that story: an
:class:`AdmissionGateway` sits between open-loop multi-tenant arrivals
(:mod:`repro.workloads.arrivals`) and the
:class:`~repro.core.scheduler.FunctionScheduler`, and decides *before*
any executor is touched whether a request should run at all.

Three mechanisms compose, in order:

* **per-tenant token buckets** (:class:`TokenBucket`) cap each
  tenant's sustained admission rate at ``rate`` with a ``burst``
  allowance — an aggressive tenant is throttled at the door instead of
  starving everyone behind a shared queue;
* **weighted fair queueing** (:class:`WeightedFairQueue`) orders the
  wait for a bounded number of dispatch slots by virtual finish time,
  so under saturation each backlogged tenant's share of the scheduler
  is proportional to its weight, not to its arrival count; and
* **deadline-aware shedding**: a request whose remaining
  :class:`~repro.sim.deadline.Deadline` budget is smaller than the
  estimated service time — observed via the kernel's
  :class:`~repro.bench.attribution.LatencyAttributor` once it holds
  enough samples, a static configured estimate otherwise — is rejected
  *early* (at submit, and again after its queue wait), because running
  it would burn an executor on work that is already doomed.

Rejections are explicit and prompt (§2.2): :class:`ThrottledError` and
:class:`ShedError` carry the tenant and cause, and every decision is
metered (``gateway.admitted/shed/throttled{tenant,cause}``) and traced
(``gateway.admit`` spans).

:class:`NoAdmission` is the pass-through configuration: a front door
that admits everything by delegating straight to the scheduler. It
adds no events, spans, or metrics, so a run through it is
byte-identical to the seed ``FunctionScheduler.invoke`` path — the
overload gate pins that identity the way PR 5 pinned ``static`` mode.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from ..sim.metrics_registry import Tally


#: Tolerance for float drift in token accounting: a bucket refilled to
#: within an ulp of a whole token still honors the take.
_TOKEN_EPS = 1e-9


class AdmissionError(Exception):
    """A request was rejected at the front door (never dispatched)."""

    def __init__(self, tenant: str, cause: str, message: str):
        super().__init__(message)
        self.tenant = tenant
        self.cause = cause


class ThrottledError(AdmissionError):
    """The tenant's token bucket is empty: sustained rate exceeded."""


class ShedError(AdmissionError):
    """The gateway dropped the request to protect the backend
    (queue full, or the deadline budget cannot cover the estimated
    service time)."""


class TokenBucket:
    """A deterministic token bucket over simulated time.

    Tokens refill continuously at ``rate`` per second up to ``burst``;
    refill is computed lazily from the elapsed virtual time, so the
    bucket schedules no events of its own. Over any window ``[s, t]``
    the bucket admits at most ``rate * (t - s) + burst`` requests —
    the property test pins exactly that bound for arbitrary arrival
    patterns.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        if rate <= 0:
            raise ValueError("token rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now

    def available(self, now: float) -> float:
        """Tokens available at ``now`` (after lazy refill)."""
        self._refill(now)
        return self._tokens

    def try_take(self, now: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; False (and no debit) otherwise."""
        if tokens <= 0:
            raise ValueError("must take a positive number of tokens")
        self._refill(now)
        if self._tokens + _TOKEN_EPS >= tokens:
            self._tokens -= tokens
            return True
        return False


class WeightedFairQueue:
    """Virtual-time weighted fair queueing across tenants.

    Each pushed item gets a virtual finish tag ``max(V, F_tenant) +
    cost / weight``; :meth:`pop` serves the smallest tag and advances
    the virtual clock to it. Under saturation each backlogged tenant
    is served in proportion to its weight (within one request of the
    ideal — the property test pins the bound), and the queue is
    work-conserving: :meth:`pop` returns an item whenever one is live.

    Entries can be cancelled in place (a queued caller that gave up);
    dead entries are skipped lazily at pop time and never count toward
    :func:`len`.
    """

    def __init__(self):
        self._heap: List[list] = []
        self._seq = 0
        self._vtime = 0.0
        self._finish: Dict[str, float] = {}
        self._live = 0

    def push(self, tenant: str, weight: float, item: Any,
             cost: float = 1.0) -> list:
        """Queue ``item`` for ``tenant``; returns a cancellation handle."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if cost <= 0:
            raise ValueError("cost must be positive")
        start = max(self._vtime, self._finish.get(tenant, 0.0))
        finish = start + cost / weight
        self._finish[tenant] = finish
        entry = [finish, self._seq, tenant, item, True]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: list) -> bool:
        """Remove a queued entry in place; False if already served."""
        if entry[4]:
            entry[4] = False
            self._live -= 1
            return True
        return False

    def pop(self):
        """Serve the earliest-finishing live entry as ``(tenant, item)``,
        or ``None`` when nothing live is queued."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[4]:
                entry[4] = False
                self._live -= 1
                self._vtime = entry[0]
                return entry[2], entry[3]
        return None

    def __len__(self) -> int:
        return self._live


@dataclass(frozen=True)
class GatewayConfig:
    """Admission policy knobs for one :class:`AdmissionGateway`.

    ``rate_per_tenant``/``burst`` parameterize the default token
    bucket (tenants can override via ``register_tenant``).
    ``max_concurrency`` bounds requests concurrently dispatched into
    the scheduler; excess arrivals wait in the WFQ up to ``max_queue``
    deep, beyond which they are shed. ``default_estimate_s`` seeds the
    service-time estimate used for deadline shedding until the
    kernel's attributor has ``min_samples`` observations;
    ``estimate_margin`` scales the estimate (>1 sheds more eagerly).
    """

    rate_per_tenant: float = 100.0
    burst: float = 20.0
    max_concurrency: int = 64
    max_queue: int = 256
    default_estimate_s: Optional[float] = None
    estimate_margin: float = 1.0

    def __post_init__(self):
        if self.rate_per_tenant <= 0:
            raise ValueError("rate_per_tenant must be positive")
        if self.burst < 1:
            raise ValueError("burst must allow at least one token")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.default_estimate_s is not None \
                and self.default_estimate_s <= 0:
            raise ValueError("default_estimate_s must be positive")
        if self.estimate_margin <= 0:
            raise ValueError("estimate_margin must be positive")


class _TenantState:
    """Per-tenant admission state: one bucket and one WFQ weight."""

    __slots__ = ("tenant", "weight", "bucket")

    def __init__(self, tenant: str, weight: float, bucket: TokenBucket):
        self.tenant = tenant
        self.weight = weight
        self.bucket = bucket


class NoAdmission:
    """Pass-through front door: every request goes straight in.

    ``submit`` delegates to ``scheduler.invoke`` via generator
    delegation — no extra simulation events, spans, or metrics — so
    runs through it are byte-identical to calling the scheduler
    directly. The overload gate pins that identity; it is the control
    arm every admission policy is measured against.
    """

    def __init__(self, kernel):
        self.kernel = kernel

    def submit(self, client_node: str, fn_ref, args=None, request=None, *,
               tenant: Optional[str] = None,
               deadline: Optional[float] = None,
               preferred_node: Optional[str] = None,
               impl_name: Optional[str] = None,
               retry=None) -> Generator:
        """Run one request with no admission control at all."""
        result = yield from self.kernel.scheduler.invoke(
            client_node, fn_ref, args or {}, request or {},
            preferred_node=preferred_node, impl_name=impl_name,
            retry=retry, deadline=deadline)
        return result


class AdmissionGateway:
    """Rate limits, fair queueing, and load shedding for a PCSI kernel.

    Construct with the kernel (a :class:`~repro.core.system.PCSICloud`)
    and a :class:`GatewayConfig`; pass requests through :meth:`submit`
    instead of ``cloud.invoke``. Tenants are materialized lazily with
    the config defaults on first submit, or explicitly (with overrides)
    via :meth:`register_tenant`.
    """

    def __init__(self, kernel, config: GatewayConfig):
        self.kernel = kernel
        self.config = config
        self._tenants: Dict[str, _TenantState] = {}
        self._wfq = WeightedFairQueue()
        self._busy = 0
        # Totals (cheap aggregates the experiments read directly), and
        # the per-(event, tenant, cause) tallies behind the registry's
        # ``gateway.{admitted,throttled,shed}`` counters.
        self.admitted = 0
        self.throttled = 0
        self.shed = 0
        self._counts: Dict[Tuple[str, str, Optional[str]], int] = {}
        kernel.metrics.add_collector(
            ("gateway.admitted", "gateway.throttled", "gateway.shed"),
            self._collect_metrics)

    # -- tenants ---------------------------------------------------------
    def register_tenant(self, tenant: str, rate: Optional[float] = None,
                        burst: Optional[float] = None,
                        weight: float = 1.0) -> None:
        """Declare a tenant up front (optionally overriding defaults)."""
        if tenant in self._tenants:
            raise ValueError(f"tenant {tenant!r} already registered")
        if weight <= 0:
            raise ValueError("weight must be positive")
        cfg = self.config
        self._tenants[tenant] = _TenantState(
            tenant, weight,
            TokenBucket(rate if rate is not None else cfg.rate_per_tenant,
                        burst if burst is not None else cfg.burst,
                        now=self.kernel.sim.now))

    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            cfg = self.config
            state = self._tenants[tenant] = _TenantState(
                tenant, 1.0, TokenBucket(cfg.rate_per_tenant, cfg.burst,
                                         now=self.kernel.sim.now))
        return state

    @property
    def tenants(self) -> List[str]:
        """Tenants seen so far (sorted)."""
        return sorted(self._tenants)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a dispatch slot right now."""
        return len(self._wfq)

    # -- telemetry -------------------------------------------------------
    def _count(self, event: str, tenant: str,
               cause: Optional[str] = None) -> None:
        """Tally one ``gateway.*`` decision, by tenant and cause."""
        counts = self._counts
        key = (event, tenant, cause)
        counts[key] = counts.get(key, 0) + 1

    def _collect_metrics(self) -> Iterator[Tally]:
        """Report the decision tallies (the registry's collector)."""
        for (event, tenant, cause), count in self._counts.items():
            labels = (("tenant", tenant),) if cause is None \
                else (("cause", cause), ("tenant", tenant))
            yield f"gateway.{event}", labels, count

    def _track_queue_depth(self) -> None:
        self.kernel.metrics.gauge("gateway.queue_depth").set(
            len(self._wfq), self.kernel.sim.now)

    # -- estimates -------------------------------------------------------
    def estimated_service_time(self, fn_name: Optional[str]
                               ) -> Optional[float]:
        """Expected service time for one request of ``fn_name``.

        Prefers the attributor's observed warm-path EMA (merged across
        impls and node classes) once it has ``min_samples``
        observations for the function; falls back to the configured
        static estimate, or ``None`` (no deadline shedding) when
        neither source knows anything.
        """
        att = self.kernel.attributor
        if fn_name is not None and att.samples(fn=fn_name) >= att.min_samples:
            warm = att.warm_latency(fn_name, None)
            if warm is not None:
                return warm
        return self.config.default_estimate_s

    def _fn_name(self, fn_ref) -> Optional[str]:
        """Best-effort function name behind a reference (for estimates;
        the scheduler still performs the real capability checks)."""
        obj = self.kernel.table.get(fn_ref.object_id)
        return getattr(getattr(obj, "meta", None), "name", None)

    # -- admission -------------------------------------------------------
    def submit(self, client_node: str, fn_ref, args=None, request=None, *,
               tenant: str, deadline: Optional[float] = None,
               preferred_node: Optional[str] = None,
               impl_name: Optional[str] = None,
               retry=None) -> Generator:
        """Admit-or-reject one request, then run it to completion.

        Returns the function result. Raises :class:`ThrottledError`
        when the tenant's bucket is dry, :class:`ShedError` when the
        wait queue is full or the ``deadline`` budget (checked at
        submit and again after any queue wait) cannot cover the
        estimated service time. ``deadline`` is relative seconds, as in
        :meth:`~repro.core.system.PCSICloud.invoke`; the budget that
        remains after queueing is what the scheduler enforces.
        """
        sim = self.kernel.sim
        tracer = self.kernel.tracer
        state = self._tenant(tenant)
        fn_name = self._fn_name(fn_ref)
        with tracer.span("gateway.admit", tenant=tenant,
                         fn=fn_name) as span:
            if not state.bucket.try_take(sim.now):
                self.throttled += 1
                self._count("throttled", tenant, "rate")
                span.set(outcome="throttled")
                raise ThrottledError(
                    tenant, "rate",
                    f"tenant {tenant!r} exceeded "
                    f"{state.bucket.rate:.3g} req/s "
                    f"(burst {state.bucket.burst:.3g})")
            if fn_name is not None \
                    and self.kernel.health.all_breakers_open(fn_name):
                # Every (fn, node class) breaker is open: the backend
                # cannot serve this function right now, so shed at the
                # front door instead of queueing doomed work.
                self._shed(tenant, "circuit_open", span)
                raise ShedError(
                    tenant, "circuit_open",
                    f"all circuit breakers for {fn_name!r} are open")
            # Only a deadline is checked against the estimate.
            estimate = None if deadline is None \
                else self.estimated_service_time(fn_name)
            if estimate is not None \
                    and deadline < self.config.estimate_margin * estimate:
                self._shed(tenant, "deadline", span)
                raise ShedError(
                    tenant, "deadline",
                    f"{deadline:.4f}s budget cannot cover the "
                    f"~{estimate:.4f}s estimated service time")
            if len(self._wfq) >= self.config.max_queue \
                    and self._busy >= self.config.max_concurrency:
                self._shed(tenant, "queue_full", span)
                raise ShedError(
                    tenant, "queue_full",
                    f"gateway queue is at its {self.config.max_queue}"
                    "-deep cap")
            submitted = sim.now
            yield from self._acquire_slot(tenant, state, span)
            # Slot held from here: every exit must release it.
            try:
                remaining = deadline
                if deadline is not None:
                    remaining = deadline - (sim.now - submitted)
                    if remaining <= 0 or (
                            estimate is not None and remaining
                            < self.config.estimate_margin * estimate):
                        # The queue wait burned the budget: reject now
                        # rather than hand the scheduler doomed work.
                        self._shed(tenant, "deadline", span)
                        raise ShedError(
                            tenant, "deadline",
                            f"{max(remaining, 0.0):.4f}s left after "
                            "queueing cannot cover the estimated "
                            "service time")
                self.admitted += 1
                self._count("admitted", tenant)
                span.set(outcome="admitted")
                result = yield from self.kernel.scheduler.invoke(
                    client_node, fn_ref, args or {}, request or {},
                    preferred_node=preferred_node, impl_name=impl_name,
                    retry=retry, deadline=remaining)
                return result
            finally:
                self._release_slot()

    def _shed(self, tenant: str, cause: str, span) -> None:
        self.shed += 1
        self._count("shed", tenant, cause)
        span.set(outcome="shed", cause=cause)

    def _acquire_slot(self, tenant: str, state: _TenantState,
                      span) -> Generator:
        """Wait (WFQ order) for one of the bounded dispatch slots."""
        sim = self.kernel.sim
        if self._busy < self.config.max_concurrency \
                and not len(self._wfq):
            self._busy += 1
            return
        waiter = sim.event(name=f"gateway:{tenant}")
        entry = self._wfq.push(tenant, state.weight, waiter)
        self._track_queue_depth()
        span.set(queued=True)
        try:
            with self.kernel.tracer.span("gateway.queue", tenant=tenant):
                yield waiter
        except BaseException:
            # Caller died waiting (interrupt/deadline). If the slot
            # was already handed over, pass it on; otherwise just
            # withdraw from the queue.
            if not self._wfq.cancel(entry):
                self._release_slot()
            self._track_queue_depth()
            raise
        # The releasing request transferred its slot to us directly:
        # _busy is unchanged by design.

    def _release_slot(self) -> None:
        """Hand the slot to the next queued request, else free it."""
        nxt = self._wfq.pop()
        if nxt is None:
            self._busy -= 1
            return
        _tenant, waiter = nxt
        self._track_queue_depth()
        waiter.succeed()
