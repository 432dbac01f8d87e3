"""Retry policy: attempts, backoff, budgets, and hedging.

The scheduler used to hard-code its retry loop (base backoff of four
RTTs, doubling, capped at one second, zero jitter) — which makes every
client that saw the same partition heal retry in lockstep, the classic
retry stampede. :class:`RetryPolicy` folds those constants into one
configurable object and adds the three production-grade pieces:

* **seeded jitter** — each backoff is shaved by up to ``jitter`` of its
  length using a :class:`~repro.sim.rng.RandomStream`, de-correlating
  concurrent clients while keeping runs bit-identical per seed;
* **a retry budget** — a Finagle-style token bucket
  (:class:`RetryBudget`) shared across invocations: every fresh request
  deposits a fraction of a token, every retry withdraws a whole one, so
  sustained failure cannot amplify offered load by more than
  ``1 + deposit_per_request``;
* **hedging** — after ``hedge_delay`` seconds without a result, a
  speculative duplicate invocation is dispatched and the first success
  wins (the classic tail-at-scale defense against gray failures). The
  loser is cancelled and counted as duplicate work.

The default-constructed policy reproduces the legacy inline loop
*byte for byte*: no jitter, no budget, no hedge, and a ``None``
``base_backoff`` that the scheduler resolves to four profile RTTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from ..sim.rng import RandomStream

#: Legacy backoff constants, now in one place (satellite: the old
#: scheduler loop hard-coded ``rtt * 4`` and ``min(..., 1.0)``).
DEFAULT_BACKOFF_CAP = 1.0
DEFAULT_BACKOFF_MULTIPLIER = 2.0
#: Base backoff as a multiple of the profile RTT when ``base_backoff``
#: is left ``None``.
DEFAULT_BASE_RTT_MULTIPLE = 4.0


class RetryBudget:
    """Token bucket bounding cluster-wide retry amplification.

    Every first attempt *deposits* ``deposit_per_request`` tokens (up to
    ``cap``); every retry must *withdraw* a whole token or be vetoed.
    With the default deposit of 0.2 a sustained 100%-failure workload
    retries at most 20% of requests — the storm stays bounded no matter
    how many clients share the budget.
    """

    def __init__(self, deposit_per_request: float = 0.2,
                 cap: float = 10.0, initial: Optional[float] = None):
        if deposit_per_request < 0:
            raise ValueError("negative deposit")
        if cap <= 0:
            raise ValueError("cap must be positive")
        self.deposit_per_request = deposit_per_request
        self.cap = cap
        self.tokens = cap if initial is None else float(initial)
        if not 0 <= self.tokens <= cap:
            raise ValueError("initial tokens out of range")
        #: Retries vetoed because the bucket was empty.
        self.vetoed = 0
        #: Retries granted.
        self.granted = 0

    def deposit(self) -> None:
        """Record one fresh request (earns a fraction of a token)."""
        self.tokens = min(self.cap, self.tokens + self.deposit_per_request)

    def withdraw(self) -> bool:
        """Spend one token for a retry; False when the bucket is dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.vetoed += 1
        return False


@dataclass
class RetryPolicy:
    """How one invocation deals with transient infrastructure failure.

    ``max_attempts`` counts the first try: 1 means never retry. A
    ``None`` ``base_backoff`` resolves to four profile RTTs at run time
    (the legacy constant). The n-th backoff is
    ``min(base * multiplier**(n-1), backoff_cap)`` — except the first,
    which is the uncapped base, matching the old loop exactly — then
    shaved by ``jitter * U[0,1)`` of its length when jitter is enabled.

    ``hedge_delay`` arms hedging: if the first attempt chain has not
    produced a result after that many seconds, a duplicate chain is
    dispatched and the first success wins.

    ``hedge_mode`` picks how that delay is chosen per invocation:

    * ``"fixed"`` (default) — always ``hedge_delay``, the legacy
      behavior, byte-identical to before the knob existed.
    * ``"adaptive"`` — the scheduler asks the latency attributor for
      the observed ``hedge_quantile`` (default p99) warm latency of the
      function being invoked and arms the hedge there, so the duplicate
      fires exactly when this request has outlived the tail bound
      instead of at a hand-tuned constant. Below ``hedge_min_samples``
      observations (always, under ``NO_ATTRIBUTION``) it falls back to
      the fixed ``hedge_delay``, which is therefore still required.
    """

    max_attempts: int = 1
    base_backoff: Optional[float] = None
    backoff_cap: float = DEFAULT_BACKOFF_CAP
    multiplier: float = DEFAULT_BACKOFF_MULTIPLIER
    jitter: float = 0.0
    rng: Optional[RandomStream] = None
    budget: Optional[RetryBudget] = None
    hedge_delay: Optional[float] = None
    hedge_mode: str = "fixed"
    hedge_quantile: float = 99.0
    hedge_min_samples: Optional[int] = None

    def __post_init__(self):
        if self.hedge_mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"hedge_mode must be 'fixed' or 'adaptive', "
                f"got {self.hedge_mode!r}")
        if self.hedge_mode == "adaptive" and self.hedge_delay is None:
            raise ValueError("adaptive hedging needs a fixed hedge_delay "
                             "to fall back to below min samples")
        if not 0.0 < self.hedge_quantile <= 100.0:
            raise ValueError("hedge_quantile must be in (0, 100]")
        if self.hedge_min_samples is not None \
                and self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff is not None and self.base_backoff < 0:
            raise ValueError("negative base_backoff")
        if self.backoff_cap <= 0:
            raise ValueError("backoff_cap must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.jitter > 0 and self.rng is None:
            raise ValueError("jitter requires a seeded RandomStream")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive")

    # -- backoff -----------------------------------------------------------
    def backoff(self, attempt: int, base: float) -> float:
        """Deterministic delay after the ``attempt``-th failure (1-based),
        before jitter."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = base * self.multiplier ** (attempt - 1)
        if attempt > 1:
            delay = min(delay, self.backoff_cap)
        return delay

    def next_delay(self, attempt: int, base: float) -> float:
        """The delay actually slept: backoff minus seeded jitter.

        With ``jitter == 0`` no random draw happens, so legacy policies
        consume nothing from any stream (bit-identical runs).
        """
        delay = self.backoff(attempt, base)
        if self.jitter:
            delay *= 1.0 - self.jitter * self.rng.uniform()
        return delay

    # -- budget ------------------------------------------------------------
    def note_request(self) -> None:
        """Record a fresh invocation against the shared budget."""
        if self.budget is not None:
            self.budget.deposit()

    def allow_retry(self) -> bool:
        """True if the budget (when present) grants one more retry."""
        if self.budget is None:
            return True
        return self.budget.withdraw()


#: What ``retry=None`` means at every invoke entry point: one attempt.
#: It has no budget, rng or hedge, so it holds no state and one shared
#: instance serves every call.
NO_RETRY = RetryPolicy()


def race_first_success(sim, processes: Sequence) -> Generator:
    """First process to *succeed* wins; returns the winning process.

    Unlike ``sim.any_of`` — which fails as soon as its first child
    fails — this race tolerates failures while any contender remains:
    it fails only once *every* process has failed, with the earliest
    failure's exception. This is the hedge primitive: the primary arm
    dying must not kill a healthy secondary.
    """
    if not processes:
        raise ValueError("race needs at least one process")
    done = sim.event(name="race-first-success")
    failures: List[BaseException] = []

    def observe(ev) -> None:
        if done.triggered:
            return
        if ev.ok:
            done.succeed(ev)
            return
        failures.append(ev.value)
        if len(failures) == len(processes):
            done.fail(failures[0])

    for proc in processes:
        if proc.processed:
            observe(proc)
        else:
            proc.callbacks.append(observe)
    winner = yield done
    return winner
