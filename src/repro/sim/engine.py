"""Deterministic discrete-event simulation kernel.

This module is the substrate for every experiment in the repository. It
implements a small, simpy-like engine: *processes* are Python generators
that ``yield`` :class:`Event` objects to suspend themselves until the
event fires. Virtual time is a float number of seconds; helper constants
(:data:`NS`, :data:`US`, :data:`MS`, :data:`SECOND`) make latency tables
readable (``yield sim.timeout(200 * US)``).

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a
simulation is a pure function of its inputs and RNG seeds.

Hot-path design (see docs/INTERNALS.md, "engine hot path"): the
schedule is two stores. Same-instant schedules (kicks, succeed/fail,
zero-delay timeouts) go to a FIFO deque, whose order is already
scheduling order; everything else, priority-0 interrupt kicks
included, goes to one heap of ``(time, priority, seq, event)``. Each
pop takes the smaller of the two heads. Timeout and internal kick
events are recycled through freelists once their callbacks have run
and no outside reference survives, so steady-state runs approach zero
allocation per event. None of this is observable: the event order is
that of a single global heap.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(1.5)
...     log.append(sim.now)
>>> _ = sim.spawn(proc(sim))
>>> sim.run()
>>> log
[1.5]
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional

#: One nanosecond, in simulation seconds.
NS = 1e-9
#: One microsecond, in simulation seconds.
US = 1e-6
#: One millisecond, in simulation seconds.
MS = 1e-3
#: One second, in simulation seconds.
SECOND = 1.0
#: One minute, in simulation seconds.
MINUTE = 60.0
#: One hour, in simulation seconds.
HOUR = 3600.0

#: Sentinel state values for :class:`Event`.
PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

#: Freelist bound per event class (beyond this, retired events are left
#: to the garbage collector).
_POOL_LIMIT = 4096


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party supplies a ``cause`` describing why.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called (which schedules its callbacks), and is
    *processed* once the simulator has run those callbacks.

    ``callbacks`` is a plain list and part of the public API (waiters
    append bound methods). The kernel clears it in place after
    dispatch; appending to an already-*processed* event's list is a
    no-op by contract (nothing will ever run it).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = PENDING
        self.name = name

    # -- introspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's payload (or exception, if it failed)."""
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        # Inline of sim._schedule(self): a zero-delay priority-1
        # schedule always lands on the immediate queue.
        sim = self.sim
        sim._seq += 1
        sim._pending += 1
        sim._immediate.append((sim._now, 1, sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        sim = self.sim
        sim._seq += 1
        sim._pending += 1
        sim._immediate.append((sim._now, 1, sim._seq, self))
        return self

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        return f"<{label} state={self._state}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation.

    The ``name`` is computed lazily from the delay: timeouts are the
    dominant event class and the eager f-string was a measurable cost.
    Instances are recycled through :attr:`Simulator._timeout_pool` once
    processed and unreferenced (see :meth:`Simulator.timeout`).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ (the ``name`` slot stays unset: the
        # class property below shadows it).
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self.delay = delay
        sim._schedule(self, delay=delay)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"Timeout({self.delay})"


class _Kick(Event):
    """Internal trigger the kernel uses to (re)start a process.

    Kicks are engine-owned — no user code ever sees one — so they are
    always safe to pool. ``reason`` tags what the kick was for (init /
    replay / interrupt), purely for debugging output.
    """

    __slots__ = ("reason",)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"kick:{self.reason}"


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` instances. When a yielded event
    succeeds, its value is sent back into the generator; when it fails,
    the exception is thrown into the generator (and propagates out of
    the process if uncaught).

    Each process carries a ``context`` dict, inherited (shallow-copied)
    from the process that spawned it. The tracer stores the current
    span there, which is what lets trace context flow across ``spawn``
    boundaries (quorum fan-out, async invokes) while interleaved
    processes keep their contexts separate. ``inherit_context=False``
    detaches a background process (reapers, anti-entropy) from its
    spawner's trace context.
    """

    __slots__ = ("_generator", "_waiting_on", "context", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 inherit_context: bool = True):
        # Inlined Event.__init__ — spawn is hot in fan-out workloads.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._state = PENDING
        self.name = name or getattr(generator, "__name__", "Process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: The bound ``_resume`` method, created once: attribute access
        #: on a method otherwise allocates a fresh bound-method object
        #: per yield, which is one allocation per event at steady state.
        self._resume_cb = self._resume
        creator = sim.active_process
        self.context: dict = dict(creator.context) \
            if inherit_context and creator is not None else {}
        # Bootstrap: resume the process at the current instant.
        sim._kick("init", True, None, self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        target = self._waiting_on
        if target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._waiting_on = None
        self.sim._kick("interrupt", False, Interrupt(cause), self._resume_cb,
                       priority=0)

    def _resume(self, trigger: Event) -> None:
        if self._state != PENDING:
            # Stale kick: the process was interrupted (and finished
            # unwinding) between this trigger being scheduled and
            # processed. Resuming a finished generator would corrupt
            # the event state; the kick is simply obsolete.
            return
        self._waiting_on = None
        sim = self.sim
        prev_active = sim.active_process
        sim.active_process = self
        try:
            try:
                if trigger._ok:
                    target = self._generator.send(trigger._value)
                else:
                    target = self._generator.throw(trigger._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                self.fail(exc)
                return
        finally:
            sim.active_process = prev_active
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (e.g. sim.timeout(...))"
            )
        if target._state == PROCESSED:
            # The event already fired; resume immediately (this tick).
            sim._kick("replay", target._ok, target._value, self._resume_cb)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)


class Condition(Event):
    """Base for :func:`AllOf` / :func:`AnyOf` composite events."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        #: Children whose completion this condition has not yet
        #: observed. Counting makes wide joins O(n) total instead of
        #: the O(n^2) of re-scanning every child per completion.
        self._pending_count = len(self.events)
        observe = self._observe
        for ev in self.events:
            if ev._state == PROCESSED:
                observe(ev)
            else:
                ev.callbacks.append(observe)
        self._check_untriggered()

    def _check_untriggered(self) -> None:
        raise NotImplementedError

    def _observe(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every child event has fired; value is the list of values.

    If any child fails, the condition fails with that child's exception.
    """

    name = "AllOf"

    def _check_untriggered(self) -> None:
        if self._state == PENDING and self._pending_count == 0:
            self.succeed([e._value for e in self.events])

    def _observe(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(Condition):
    """Fires when the first child event fires; value is that child's value."""

    name = "AnyOf"

    def _check_untriggered(self) -> None:
        if self._state != PENDING:
            # A processed child already triggered us via _observe
            # during __init__.
            return
        for ev in self.events:
            if ev._state == PROCESSED:
                if ev._ok:
                    self.succeed(ev._value)
                else:
                    self.fail(ev._value)
                return

    def _observe(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if ev._ok:
            self.succeed(ev._value)
        else:
            self.fail(ev._value)


class Simulator:
    """The event loop: a priority queue of (time, priority, seq, event).

    Two stores (behaviorally invisible — see module docstring):

    * ``_immediate`` — FIFO deque of priority-1 entries at the current
      instant; append order is seq order, so its head is its minimum.
    * ``_heap`` — heap of every other entry (later times, and
      priority-0 interrupt kicks at the current instant).

    A pop takes ``_heap[0]`` when it compares below ``_immediate[0]``,
    else the deque's head.
    """

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._active_processes = 0
        #: The process whose generator is executing right now (None
        #: between resumptions). Trace context is keyed off this.
        self.active_process: Optional[Process] = None
        # -- schedule -------------------------------------------------
        self._pending = 0
        self._immediate: deque = deque()
        self._heap: List = []
        # -- freelists ------------------------------------------------
        self._timeout_pool: List[Timeout] = []
        self._kick_pool: List[_Kick] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- factory helpers ---------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now.

        Recycles a pooled :class:`Timeout` when one is available; the
        pool only ever receives instances whose callbacks have run and
        to which no outside reference survived, so a recycled timeout
        is indistinguishable from a fresh one.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            ev = pool.pop()
            ev._value = value
            ev._ok = True
            ev._state = TRIGGERED
            ev.delay = delay
            # Inline of _schedule(ev, delay) — the hottest
            # allocation-free path in the kernel.
            self._seq += 1
            self._pending += 1
            if delay == 0.0:
                self._immediate.append((self._now, 1, self._seq, ev))
            else:
                heappush(self._heap, (self._now + delay, 1, self._seq, ev))
            return ev
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event firing at absolute virtual time ``when``.

        ``timeout(when - now)`` would re-add the delay to ``now``, and
        ``now + (when - now)`` need not round back to ``when``; this
        schedules at ``when`` itself, so a deadline stamped as
        ``t + d`` fires bit-identically to a ``timeout(d)`` armed at
        ``t``. Raises ``ValueError`` for a time in the past.
        """
        now = self._now
        if when < now:
            raise ValueError(f"timeout_at({when}) is in the past "
                             f"(now={now})")
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
        else:
            ev = Timeout.__new__(Timeout)
            ev.sim = self
            ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._state = TRIGGERED
        ev.delay = when - now
        self._seq += 1
        self._pending += 1
        if when == now:
            self._immediate.append((now, 1, self._seq, ev))
        else:
            heappush(self._heap, (when, 1, self._seq, ev))
        return ev

    def _kick(self, reason: str, ok: bool, value: Any,
              resume: Callable[[Event], None], priority: int = 1) -> None:
        """Schedule an internal (pooled) trigger that calls ``resume``."""
        pool = self._kick_pool
        if pool:
            ev = pool.pop()
        else:
            ev = _Kick.__new__(_Kick)
            ev.sim = self
            ev.callbacks = []
        ev.reason = reason
        ev._ok = ok
        ev._value = value
        ev._state = TRIGGERED
        ev.callbacks.append(resume)
        self._seq += 1
        self._pending += 1
        if priority == 1:
            self._immediate.append((self._now, 1, self._seq, ev))
        else:
            # Priority-0 interrupt kicks must order ahead of
            # same-instant priority-1 work: the heap sorts it.
            heappush(self._heap, (self._now, priority, self._seq, ev))

    def spawn(self, generator: Generator, name: str = "",
              inherit_context: bool = True) -> Process:
        """Run ``generator`` as a concurrent process.

        The new process inherits the spawner's context (trace spans)
        unless ``inherit_context=False`` detaches it — use that for
        background work (reapers, anti-entropy, fire-and-forget sends)
        that should not be parented to whatever span happened to be
        open at spawn time.
        """
        return Process(self, generator, name=name,
                       inherit_context=inherit_context)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once all ``events`` fire."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing once any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._seq += 1
        self._pending += 1
        if delay == 0.0 and priority == 1:
            # Same-instant schedule (kicks, succeed/fail, joins): a
            # FIFO append. Deque order IS seq order, and every heap
            # entry at a later time sorts after it, so pops only ever
            # compare the two heads.
            self._immediate.append((self._now, 1, self._seq, event))
            return
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if not self._pending:
            return float("inf")
        immediate = self._immediate
        if immediate:
            # Immediate entries sit at the current instant; only the
            # heap can hold an equal-or-earlier time, and equal times
            # peek the same.
            return immediate[0][0]
        return self._heap[0][0]

    def _dispatch(self, event: Event) -> None:
        """Run one popped event's callbacks; recycle if possible."""
        callbacks = event.callbacks
        event._state = PROCESSED
        if callbacks:
            for callback in callbacks:
                callback(event)
            callbacks.clear()
            # Freelist recycle: only engine-owned classes, and only
            # when no reference beyond this frame survives (3 = the
            # caller's local + our parameter + getrefcount's argument),
            # so user code holding a timeout can never observe reuse.
            cls = event.__class__
            if cls is Timeout:
                pool = self._timeout_pool
                if len(pool) < _POOL_LIMIT and getrefcount(event) == 3:
                    pool.append(event)
            elif cls is _Kick:
                pool = self._kick_pool
                if len(pool) < _POOL_LIMIT and getrefcount(event) == 3:
                    pool.append(event)
        elif not event._ok:
            exc = event._value
            if isinstance(exc, BaseException) and not isinstance(exc, Interrupt):
                raise exc

    def step(self) -> None:
        """Process a single event."""
        if not self._pending:
            raise SimulationError("step() on an empty schedule")
        immediate = self._immediate
        heap = self._heap
        if immediate and not (heap and heap[0] < immediate[0]):
            when, _prio, _seq, event = immediate.popleft()
        else:
            when, _prio, _seq, event = heappop(heap)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._pending -= 1
        self._now = when
        self._dispatch(event)

    def _drain(self, horizon: Optional[float],
               stop: Optional[Event]) -> None:
        """Process events until the schedule drains, the next event lies
        beyond ``horizon``, or ``stop`` has been processed.

        The one hot loop behind :meth:`run` and :meth:`run_until_event`:
        it drains events inline (one pop + dispatch per event) rather
        than paying a :meth:`step` call per event. ``step`` stays the
        single-event entry point for external steppers.
        """
        timeout_pool = self._timeout_pool
        kick_pool = self._kick_pool
        immediate = self._immediate
        heap = self._heap
        while self._pending:
            if immediate:
                # Immediates carry the current instant, so they can
                # never overshoot ``horizon``; only the heap can hold an
                # earlier key (e.g. a priority-0 interrupt).
                if heap and heap[0] < immediate[0]:
                    when, _prio, _seq, event = heappop(heap)
                else:
                    when, _prio, _seq, event = immediate.popleft()
            else:
                if horizon is not None and heap[0][0] > horizon:
                    return
                when, _prio, _seq, event = heappop(heap)
            if when < self._now:
                raise SimulationError("event scheduled in the past")
            self._pending -= 1
            self._now = when
            # Inline _dispatch (kept in sync; the call overhead is
            # measurable at millions of events).
            callbacks = event.callbacks
            event._state = PROCESSED
            if callbacks:
                for callback in callbacks:
                    callback(event)
                callbacks.clear()
                # Refcount 2 = the ``event`` local + getrefcount's
                # argument: nothing else holds the object.
                cls = event.__class__
                if cls is Timeout:
                    if len(timeout_pool) < _POOL_LIMIT \
                            and getrefcount(event) == 2:
                        timeout_pool.append(event)
                elif cls is _Kick:
                    if len(kick_pool) < _POOL_LIMIT \
                            and getrefcount(event) == 2:
                        kick_pool.append(event)
            elif not event._ok:
                exc = event._value
                if isinstance(exc, BaseException) \
                        and not isinstance(exc, Interrupt):
                    raise exc
            if event is stop:
                return

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or virtual time reaches ``until``.

        The boundary is **inclusive**: an event scheduled exactly at
        ``until`` is processed before the run stops (only events
        strictly after ``until`` are left pending). This is pinned by
        ``tests/sim/test_engine.py`` and must survive any change to the
        schedule's layout.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        self._drain(until, None)
        if until is not None:
            self._now = until

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the schedule drains (or ``limit``
        virtual seconds pass) without the event firing.
        """
        if event._state != PROCESSED:
            if self._pending and limit is not None and self.peek() > limit:
                raise SimulationError(f"{event!r} did not fire before t={limit}")
            # After that check no immediate entry can lie beyond
            # ``limit`` (they carry the current instant), so the drain
            # stops at the first heap entry that does.
            self._drain(limit, event)
            if event._state != PROCESSED:
                if not self._pending:
                    raise SimulationError(
                        f"schedule drained before {event!r} fired")
                raise SimulationError(f"{event!r} did not fire before t={limit}")
        if not event.ok:
            raise event.value
        return event.value
