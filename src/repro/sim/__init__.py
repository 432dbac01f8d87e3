"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.engine`) provides generator-based processes
over virtual time; :mod:`repro.sim.resources` provides queueing
primitives; :mod:`repro.sim.metrics`, :mod:`repro.sim.trace`, and
:mod:`repro.sim.rng` provide deterministic measurement and randomness.
"""

from .engine import (
    HOUR,
    MINUTE,
    MS,
    NS,
    SECOND,
    US,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .metrics import (Counter, EmptyHistogramError, Histogram,
                      TimeWeightedGauge)
from .metrics_registry import LabeledMetricsRegistry
from .resources import Channel, Container, Resource, Store
from .rng import RandomStream
from .trace import (
    DEFER,
    DROP,
    NULL_SPAN,
    NULL_TRACER,
    SAMPLE,
    AlwaysSample,
    ErrorTailSampler,
    KeyedRateSampler,
    NeverSample,
    ProbabilisticSampler,
    SamplingPolicy,
    Span,
    Tracer,
)

__all__ = [
    "NS", "US", "MS", "SECOND", "MINUTE", "HOUR",
    "Simulator", "Event", "Timeout", "Process", "AllOf", "AnyOf",
    "Interrupt", "SimulationError",
    "Resource", "Container", "Store", "Channel",
    "Counter", "Histogram", "TimeWeightedGauge",
    "EmptyHistogramError",
    "LabeledMetricsRegistry",
    "RandomStream", "Tracer", "Span",
    "NULL_SPAN", "NULL_TRACER",
    "SamplingPolicy", "AlwaysSample", "NeverSample",
    "ProbabilisticSampler", "KeyedRateSampler", "ErrorTailSampler",
    "SAMPLE", "DROP", "DEFER",
]
