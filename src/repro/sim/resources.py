"""Queueing primitives built on the event kernel.

Three primitives cover every contention point in the simulated cloud:

* :class:`Resource` — a counting semaphore with a FIFO wait queue
  (CPU cores, GPU slots, NFS server threads, ...). NIC egress links
  are not one: they free themselves at the end of the wire time
  without an event (``repro.cluster.network.NicLink``).
  :meth:`Resource.try_acquire` takes a free slot synchronously, with
  no event, when nobody is queued; :meth:`Resource.acquire` is the
  event-based path for callers that may have to wait.
* :class:`Container` — a continuous level that can be drained and
  refilled (memory bytes, token buckets).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (message inboxes, request queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, Simulator


class Resource:
    """Counting semaphore with FIFO fairness.

    Usage::

        grant = yield resource.acquire()
        try:
            ...
        finally:
            resource.release()

    A hot path that is usually uncontended takes the slot without an
    event and queues only when it must::

        if not resource.try_acquire():
            grant = resource.acquire()
            try:
                yield grant
            except BaseException:
                resource.cancel(grant)
                raise
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of acquirers still waiting."""
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a slot now, without scheduling an event.

        Succeeds only when a slot is free *and* no acquirer is queued,
        so a synchronous grant never barges past a waiter (FIFO holds).
        On ``True`` the caller holds the slot and must
        :meth:`release` it; on ``False`` nothing changed.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Event:
        """Return an event that fires once a slot is granted."""
        ev = self.sim.event(name=f"acquire:{self.name}")
        if self.try_acquire():
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)  # slot transfers directly to the waiter
        else:
            self._in_use -= 1

    def cancel(self, ev: Event) -> None:
        """Withdraw an acquire whose requester gave up (interrupt,
        deadline) before holding the slot.

        A still-queued request is simply removed; one that was already
        granted releases its slot (handing it to the next waiter), so
        an abandoned acquire can never strand capacity. Call this
        instead of :meth:`release` when the ``yield ev`` was aborted by
        an exception.
        """
        try:
            self._waiters.remove(ev)
            return
        except ValueError:
            pass
        if ev.triggered:
            self.release()


class Container:
    """A continuous quantity with blocking ``take`` and immediate ``put``."""

    def __init__(self, sim: Simulator, capacity: float, initial: float = 0.0,
                 name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= initial <= capacity:
            raise ValueError("initial level out of range")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = initial
        self._waiters: Deque[tuple] = deque()  # (amount, event)

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> None:
        """Add ``amount``; over-capacity puts raise ``ValueError``."""
        if amount < 0:
            raise ValueError("negative put")
        if self._level + amount > self.capacity + 1e-12:
            raise ValueError(
                f"container {self.name!r} overflow: "
                f"{self._level} + {amount} > {self.capacity}"
            )
        self._level += amount
        self._drain_waiters()

    def take(self, amount: float) -> Event:
        """Event that fires once ``amount`` has been removed."""
        if amount < 0:
            raise ValueError("negative take")
        if amount > self.capacity:
            raise ValueError("take larger than capacity can never succeed")
        ev = self.sim.event(name=f"take:{self.name}")
        self._waiters.append((amount, ev))
        self._drain_waiters()
        return ev

    def _drain_waiters(self) -> None:
        while self._waiters:
            amount, ev = self._waiters[0]
            if amount > self._level:
                return
            self._waiters.popleft()
            self._level -= amount
            ev.succeed(amount)


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest blocked getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        ev = self.sim.event(name=f"get:{self.name}")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None


class Channel:
    """A bounded FIFO with blocking put *and* get (backpressure).

    Unlike :class:`Store`, a full channel makes producers wait — the
    flow-control behavior bounded FIFO objects need so a fast producer
    cannot buffer unbounded state inside the kernel.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None)")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (item, event)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return (self.capacity is not None
                and len(self._items) >= self.capacity)

    def put(self, item: Any) -> Event:
        """Event that fires once the item is accepted."""
        ev = self.sim.event(name=f"chan-put:{self.name}")
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed(None)
        elif not self.full:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((item, ev))
        return ev

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        ev = self.sim.event(name=f"chan-get:{self.name}")
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_waiting_putter()
        else:
            self._getters.append(ev)
        return ev

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.full:
            item, put_ev = self._putters.popleft()
            self._items.append(item)
            put_ev.succeed(None)
