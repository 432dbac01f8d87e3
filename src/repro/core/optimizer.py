"""Implementation selection (§3.1): choosing among simultaneous impls.

"Multiple implementations of the same function can even be provided
simultaneously, allowing an optimizer to choose dynamically among them
to meet performance and cost goals" — the INFaaS idea. The optimizer
scores every registered implementation against the current goal using
the same models the simulator charges (device rates, cold-start state
of the warm pools, isolation costs, the price book) and picks the
argmin. Experiment E8 swaps a GPU impl for an NPU impl and watches the
optimizer migrate traffic with zero application change.

The static model is an *open-loop* prior: it cannot see interference,
gray failures, or drifting data sizes. ``observation_mode="ema"``
closes the loop — when a :class:`~repro.bench.attribution.
LatencyAttributor` has folded enough sampled traces for an impl, its
observed warm-path latency (and observed cold overhead, amortized the
same way as the modeled one) replaces the model in
:meth:`ImplOptimizer.estimate`. Keys below ``min_samples`` keep the
static estimate, so exploration of a never-tried impl still works, and
``observation_mode="static"`` (the default) is byte-identical to the
pre-observation optimizer. Experiment E22 measures how much of the
oracle gap this feedback closes under drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bench.attribution import NO_ATTRIBUTION, LatencyAttributor
from ..cluster.node import DEVICE_SPECS
from ..cost.pricing import DEFAULT_PRICES, PriceBook
from ..faas.autoscale import WarmPool
from .errors import InvocationError
from .functions import FunctionDef, FunctionImpl

GOALS = ("latency", "cost")

#: How observed latency feeds estimates: "static" ignores observations
#: entirely; "ema" substitutes the attributor's moving averages once a
#: key has ``min_samples`` observations.
OBSERVATION_MODES = ("static", "ema")

#: What the observed estimate optimizes: "mean" reads the warm-path
#: EMA (the historical behavior); "p99" reads the observed tail
#: quantile from the attributor's warm-latency sketches, so an impl
#: with a lower mean but a fat tail loses to a tight-tail one.
OBJECTIVES = ("mean", "p99")


@dataclass(frozen=True)
class ImplEstimate:
    """The optimizer's view of one implementation, for one invocation."""

    impl: FunctionImpl
    est_latency: float
    est_cost: float
    warm: bool


class ImplOptimizer:
    """Scores and selects implementations."""

    def __init__(self, goal: str = "latency",
                 prices: Optional[PriceBook] = None,
                 cold_start_amortization: int = 1,
                 slo: Optional[float] = None,
                 observation_mode: str = "static",
                 attributor=NO_ATTRIBUTION,
                 min_samples: Optional[int] = None,
                 objective: str = "mean"):
        if goal not in GOALS:
            raise ValueError(f"goal must be one of {GOALS}, got {goal!r}")
        if cold_start_amortization < 1:
            raise ValueError("amortization must be >= 1")
        if slo is not None and slo <= 0:
            raise ValueError("slo must be positive")
        if observation_mode not in OBSERVATION_MODES:
            raise ValueError(
                f"observation_mode must be one of {OBSERVATION_MODES}, "
                f"got {observation_mode!r}")
        if observation_mode != "static" and (
                not isinstance(attributor, LatencyAttributor)
                or attributor is NO_ATTRIBUTION):
            raise ValueError(
                f"observation_mode={observation_mode!r} needs an attributor")
        if objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}")
        if objective == "p99" and observation_mode != "ema":
            raise ValueError(
                "objective='p99' steers on observed tail quantiles and "
                "therefore needs observation_mode='ema'")
        self.goal = goal
        #: "mean" scores impls on the warm EMA; "p99" on the observed
        #: tail quantile (see :data:`OBJECTIVES`).
        self.objective = objective
        #: "static" (model only) or "ema" (observed latencies once a
        #: key has ``min_samples`` samples).
        self.observation_mode = observation_mode
        #: The :class:`~repro.bench.attribution.LatencyAttributor`
        #: supplying observed decompositions (``NO_ATTRIBUTION`` if off).
        self.attributor = attributor
        #: Observations needed before the EMA replaces the model.
        #: Defaults to the attributor's own guard.
        self.min_samples = min_samples if min_samples is not None \
            else attributor.min_samples
        self.prices = prices if prices is not None else DEFAULT_PRICES
        #: How many future invocations a cold start is expected to serve.
        #: 1 = fully pessimistic (per-invocation view); larger values
        #: model a steady stream that keeps the new pool warm, letting
        #: the optimizer migrate traffic onto a better-but-cold impl.
        self.cold_start_amortization = cold_start_amortization
        #: §4.2: "many applications come with SLOs ... and experience
        #: little or no benefit from lower latency." With an SLO set,
        #: the optimizer prefers the *cheapest* implementation whose
        #: estimated latency meets it, regardless of the base goal,
        #: falling back to the fastest when none qualifies.
        self.slo = slo

    def estimate(self, impl: FunctionImpl,
                 pool: Optional[WarmPool],
                 fn_name: Optional[str] = None) -> ImplEstimate:
        """Model one invocation on ``impl`` given its pool's warmth.

        In ``"ema"`` observation mode, once the attributor holds at
        least ``min_samples`` observations of ``(fn_name, impl)``, the
        modeled latency is replaced by the observed warm-path EMA plus
        the observed cold overhead (amortized exactly like the modeled
        cold start). Cost stays model-based: the meter charges by the
        price book either way.
        """
        device = DEVICE_SPECS.get(impl.platform.device_kind)
        if device is None:
            raise InvocationError(
                f"unknown device kind {impl.platform.device_kind!r}")
        compute = (impl.work_ops / device.ops_per_sec
                   / impl.platform.compute_efficiency)
        isolation = impl.est_state_calls * impl.platform.isolation_call
        warm = bool(pool is not None and pool.idle)
        startup = 0.0 if warm else (impl.platform.cold_start
                                    / self.cold_start_amortization)
        latency = startup + compute + isolation
        latency = self._observed_latency(impl, fn_name, warm, latency)

        memory_gb = impl.resources.memory / 1024 ** 3
        duration = compute + isolation
        gpus = impl.resources.accelerators.get("gpu", 0) \
            + impl.resources.accelerators.get("npu", 0)
        cost = (self.prices.invocations(1)
                + self.prices.compute(duration, memory_gb)
                + self.prices.gpu_time(duration, gpus))
        return ImplEstimate(impl=impl, est_latency=latency, est_cost=cost,
                            warm=warm)

    def _observed_latency(self, impl: FunctionImpl,
                          fn_name: Optional[str], warm: bool,
                          model_latency: float) -> float:
        """The observed estimate when the feedback loop is armed.

        Falls back to ``model_latency`` in static mode, without a
        function name, or while a key is below the min-samples guard —
        so never-tried impls keep their optimistic prior and still get
        explored.
        """
        if self.observation_mode != "ema" or fn_name is None:
            return model_latency
        if self.attributor.samples(fn_name, impl.name) < self.min_samples:
            return model_latency
        if self.objective == "p99":
            warm_est = self.attributor.tail_latency(fn_name, impl.name,
                                                    q=99.0)
        else:
            warm_est = self.attributor.warm_latency(fn_name, impl.name)
        if warm_est is None:
            return model_latency
        if warm:
            return warm_est
        cold_est = self.attributor.cold_overhead(fn_name, impl.name)
        if cold_est is None:
            cold_est = impl.platform.cold_start
        return warm_est + cold_est / self.cold_start_amortization

    def rank(self, fn_def: FunctionDef,
             pools: Dict[str, WarmPool]) -> List[ImplEstimate]:
        """All impls scored, best first, under the current goal/SLO."""
        estimates = [self.estimate(impl, pools.get(impl.name),
                                   fn_name=fn_def.name)
                     for impl in fn_def.impls]
        if self.slo is not None:
            meeting = [e for e in estimates if e.est_latency <= self.slo]
            if meeting:
                rest = [e for e in estimates if e not in meeting]
                return (sorted(meeting,
                               key=lambda e: (e.est_cost, e.est_latency))
                        + sorted(rest,
                                 key=lambda e: (e.est_latency,
                                                e.est_cost)))
            return sorted(estimates,
                          key=lambda e: (e.est_latency, e.est_cost))
        key = (lambda e: (e.est_latency, e.est_cost)) \
            if self.goal == "latency" \
            else (lambda e: (e.est_cost, e.est_latency))
        return sorted(estimates, key=key)

    def choose(self, fn_def: FunctionDef,
               pools: Dict[str, WarmPool]) -> FunctionImpl:
        """The winning implementation for the next invocation."""
        return self.rank(fn_def, pools)[0].impl
