"""Bit-identical replay: same seed + same policy => same everything.

The controller inserts its own events into the simulation, so the
guarantee worth pinning is that a *controlled* run is still a pure
function of (seed, schedule, policy): the full labeled-metrics export
— every counter, gauge trajectory, and sampled series point — must
serialize to byte-identical JSON across replays.
"""

import hashlib

import pytest

from repro.bench.regress import (AUTOSCALE_BURST_DURATION,
                                 AUTOSCALE_BURST_RATE, AUTOSCALE_BURSTS,
                                 AUTOSCALE_GAP, AUTOSCALE_SEED)
from repro.faas import ControllerHarness, QueueDepthPolicy, burst_phases

BURSTS = burst_phases(bursts=2, burst_duration=5.0, burst_rate=8.0,
                      gap=30.0)


@pytest.mark.parametrize("policy", ["fixed", "queue-depth", "hit-rate"])
def test_same_seed_same_policy_replays_byte_identical(policy):
    a = ControllerHarness(policy=policy, seed=59).run(BURSTS)
    b = ControllerHarness(policy=policy, seed=59).run(BURSTS)
    assert a.metrics_text == b.metrics_text
    assert a.behavior_signature() == b.behavior_signature()
    assert a.duration == b.duration
    assert a.ticks == b.ticks


def test_controller_history_replays_identically():
    a = ControllerHarness(policy="queue-depth", seed=59).run(BURSTS)
    b = ControllerHarness(policy="queue-depth", seed=59).run(BURSTS)
    assert len(a.controller.history) == len(b.controller.history)
    for ra, rb in zip(a.controller.history, b.controller.history):
        assert ra == rb  # frozen dataclasses: field-exact


def test_different_seed_differs_with_jitter():
    phases = [p.__class__(p.duration, p.rate, jitter=p.rate > 0)
              for p in BURSTS]
    a = ControllerHarness(policy="queue-depth", seed=59).run(phases)
    b = ControllerHarness(policy="queue-depth", seed=60).run(phases)
    assert a.metrics_text != b.metrics_text


def test_policy_prototype_runs_match_registry_name_runs():
    """A configured prototype with default parameters is the same
    policy as the registry name — replay proves it."""
    by_name = ControllerHarness(policy="queue-depth", seed=59).run(BURSTS)
    by_proto = ControllerHarness(policy=QueueDepthPolicy(),
                                 seed=59).run(BURSTS)
    assert by_name.metrics_text == by_proto.metrics_text


#: sha256 prefixes of the pinned burst's controller history (the regress
#: autoscale gate's schedule), one per arm: (tick count, digest).
PINNED_HISTORY = {
    "fixed": (123, "a588fa2b079a2d50"),
    "queue-depth": (390, "d7c6c92042e6e935"),
}


@pytest.mark.parametrize("policy", sorted(PINNED_HISTORY))
def test_pinned_burst_controller_inputs_unchanged(policy):
    """Every tick's observation, decision and actions on the gate's
    burst schedule are pinned: a change to where the controller reads
    its window counts must not change what it sees."""
    phases = burst_phases(bursts=AUTOSCALE_BURSTS,
                          burst_duration=AUTOSCALE_BURST_DURATION,
                          burst_rate=AUTOSCALE_BURST_RATE, gap=AUTOSCALE_GAP)
    result = ControllerHarness(policy=policy,
                               seed=AUTOSCALE_SEED).run(phases)
    rows = [(t.now, t.pool, t.observation, t.decision, t.actions)
            for t in result.controller.history]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert (len(rows), digest) == PINNED_HISTORY[policy]
