"""Deadline propagation through simulation processes.

A :class:`Deadline` is an absolute point in virtual time by which an
operation must produce an outcome. It travels the same way trace
context does: stored in the *active process's* context dict (see
:class:`~repro.sim.engine.Process.context`), so it flows across
``spawn`` boundaries (nested invokes, quorum fan-out) automatically and
shrinks monotonically — a :class:`DeadlineScope` installs
``min(inherited, new)``, never a later deadline.

Blocking primitives cooperate: they call :func:`current_deadline` and
either cap their waits at the remaining budget or raise
:class:`DeadlineExceededError` promptly instead of sleeping past it.
This is the §2.2 "explicit and prompt errors" contract extended from
partitions to *time*: a caller that set a budget is never left hanging.

When no deadline is installed every check is a single dict lookup that
returns ``None`` — the unbounded fast path allocates nothing and
schedules no extra events, so deadline-free runs are byte-identical to
builds without this module.
"""

from __future__ import annotations

from typing import Any, Optional

#: Process-context key under which the current deadline is stored
#: (mirrors ``trace.current_span``).
DEADLINE_CTX_KEY = "deadline.current"

#: Slack for float drift when a wait was cut to exactly the remaining
#: budget: ``now + remaining(now)`` may differ from ``expires_at`` by an
#: ulp, and one nanosecond is far below every modeled latency.
_EPSILON = 1e-9


class DeadlineExceededError(Exception):
    """An operation's time budget expired before it produced an outcome.

    Carries the :class:`Deadline` that expired (when known) so callers
    can distinguish their own budget from one inherited upstream.
    """

    def __init__(self, message: str, deadline: Optional["Deadline"] = None):
        super().__init__(message)
        self.deadline = deadline


class Deadline:
    """An absolute expiry instant in simulated time."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    def remaining(self, now: float) -> float:
        """Budget left at ``now`` (negative once expired)."""
        return self.expires_at - now

    def expired(self, now: float) -> bool:
        """True once the budget is exhausted (with float-drift slack)."""
        return now >= self.expires_at - _EPSILON

    def __repr__(self) -> str:
        return f"<Deadline expires_at={self.expires_at:.6f}>"


def current_deadline(sim) -> Optional[Deadline]:
    """The active process's deadline, or ``None`` when unbounded."""
    proc = sim.active_process
    if proc is None:
        return None
    return proc.context.get(DEADLINE_CTX_KEY)


def check_deadline(sim, what: str = "operation",
                   *args: Any) -> Optional[Deadline]:
    """Raise :class:`DeadlineExceededError` if the budget is spent.

    The error message names ``what % args`` (``what`` alone without
    ``args``), formatted only when it raises, so a checkpoint on a hot
    path builds no string. Returns the active deadline (or ``None``) so
    callers can bound an upcoming wait without a second lookup.
    """
    deadline = current_deadline(sim)
    if deadline is not None and deadline.expired(sim.now):
        if args:
            what = what % args
        raise DeadlineExceededError(
            f"{what}: deadline budget exhausted at t={sim.now:.6f}",
            deadline)
    return deadline


class DeadlineScope:
    """Install a (possibly shrunken) deadline for a ``with`` region.

    Entry computes ``now + budget``, combines it with any inherited
    deadline by taking the *earlier* of the two (budgets only shrink),
    and stores the result in the active process's context; exit restores
    the inherited value. Entry and exit must run in the same simulation
    process, exactly like a span context.

    ``budget=None`` makes the scope a no-op (the unbounded path writes
    nothing), so call sites need no branching.
    """

    __slots__ = ("_sim", "_budget", "_ctx", "_saved", "deadline")

    def __init__(self, sim, budget: Optional[float]):
        if budget is not None and budget <= 0:
            raise ValueError(f"deadline budget must be positive: {budget}")
        self._sim = sim
        self._budget = budget
        self._ctx = None
        self._saved = None
        #: The effective :class:`Deadline` for the region (after the
        #: shrink-only merge); ``None`` for a no-op scope.
        self.deadline: Optional[Deadline] = None

    def __enter__(self) -> Optional[Deadline]:
        if self._budget is None:
            return None
        proc = self._sim.active_process
        inherited = proc.context.get(DEADLINE_CTX_KEY) \
            if proc is not None else None
        expires = self._sim.now + self._budget
        if inherited is not None and inherited.expires_at <= expires:
            self.deadline = inherited  # the tighter budget already rules
        else:
            self.deadline = Deadline(expires)
        if proc is not None:
            self._ctx = proc.context
            self._saved = inherited
            self._ctx[DEADLINE_CTX_KEY] = self.deadline
        return self.deadline

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        if self._ctx is not None:
            if self._saved is None:
                self._ctx.pop(DEADLINE_CTX_KEY, None)
            else:
                self._ctx[DEADLINE_CTX_KEY] = self._saved
        return False
