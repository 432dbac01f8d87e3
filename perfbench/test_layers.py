"""Tests of the per-layer fold and of the traced run's observe-only rule.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from layers import (LAYERS, OTHER, PROBE, LayerTrace, _wrap,  # noqa: E402
                    installed, layer_of_file)
from repro.sim import Simulator  # noqa: E402
from run import run_session  # noqa: E402
from workloads import InvokePlanes, OverloadOpen, PipelineStorage  # noqa: E402


class FakeClock:
    """A host clock that only moves when the test says so."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)
    trace.enter("scheduler")        # t=0
    clock.t = 2.0
    trace.enter("network")
    clock.t = 3.0
    trace.enter("engine")
    clock.t = 4.0
    assert trace.exit() == 1.0      # engine: 3..4
    clock.t = 5.0
    assert trace.exit() == 3.0      # network: 2..5, minus engine's 1
    clock.t = 10.0
    assert trace.exit() == 10.0     # scheduler: 0..10, minus network's 3
    assert trace.self_s["engine"] == 1.0
    assert trace.self_s["network"] == 2.0
    assert trace.self_s["scheduler"] == 7.0
    assert trace.depth == 0


def test_nested_generators_are_charged_for_every_resumption():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)

    def inner(_owner):
        clock.t += 2.0
        yield "event"
        clock.t += 3.0
        return "done"

    traced_inner = _wrap(trace, "test:inner", "network", inner)

    def outer(owner):
        clock.t += 1.0
        result = yield from traced_inner(owner)
        clock.t += 4.0
        return result

    traced_outer = _wrap(trace, "test:outer", "scheduler", outer)

    trace.enter("engine")
    gen = traced_outer(None)
    clock.t += 0.5                  # the engine's own work
    assert gen.send(None) == "event"
    clock.t += 10.0                 # suspended: other processes run
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"
    wall = trace.exit()

    assert wall == 20.5
    assert trace.self_s["network"] == 5.0      # 2 + 3, two resumptions
    assert trace.self_s["scheduler"] == 5.0    # 1 + 4, two resumptions
    assert trace.self_s["engine"] == 10.5
    assert sum(trace.self_s.values()) == wall
    assert trace.self_s[PROBE] == 0.0          # the fake clock stood still
    # Spans: one per logical call, parented by the creating call.
    spans = {entry: (span_id, parent)
             for span_id, parent, entry, *_ in trace.spans}
    assert spans["test:inner"][1] == spans["test:outer"][0]
    assert trace.calls["network"] == 1 and trace.calls["scheduler"] == 1


def test_wrapped_generator_forwards_throw_and_close():
    trace = LayerTrace()
    closed = []

    def body(_owner):
        try:
            yield 1
        except KeyError:
            yield 2
        try:
            yield 3
        finally:
            closed.append(True)

    traced = _wrap(trace, "test:body", "storage", body)
    trace.enter(OTHER)
    gen = traced(None)
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == 2
    assert next(gen) == 3
    gen.close()
    assert closed == [True]

    def failing(_owner):
        yield 1
        raise ValueError("boom")

    gen = _wrap(trace, "test:failing", "storage", failing)(None)
    next(gen)
    with pytest.raises(ValueError):
        next(gen)
    trace.exit()
    assert trace.depth == 0


def test_layer_sums_plus_other_equal_the_wall_time():
    trace = LayerTrace()
    layers = list(LAYERS)

    def make(depth, below_plain, below_gen):
        def plain(_owner):
            return sum(range(50)) if depth == 0 else below_plain(None)

        def gen(_owner):
            for _ in range(3):
                total = sum(range(30))
                yield total
            if depth:
                yield from below_gen(None)
            return plain(None)

        return plain, gen

    next_plain = next_gen = None
    for depth in range(6):
        plain, gen = make(depth, next_plain, next_gen)
        layer = layers[depth % len(layers)]
        next_plain = _wrap(trace, f"test:plain{depth}", layer, plain)
        next_gen = _wrap(trace, f"test:gen{depth}", layer, gen)
    trace.enter(OTHER)
    for _ in range(200):
        for _ in next_gen(None):
            next_plain(None)
    wall = trace.exit()
    assert trace.self_s[PROBE] > 0
    assert sum(trace.self_s.values()) == pytest.approx(wall, rel=1e-9)


def test_spawned_process_is_charged_to_the_spawning_layer():
    clock = FakeClock()
    trace = LayerTrace(clock=clock)
    with installed(trace):
        sim = Simulator()

        def process():
            clock.t += 5.0
            yield sim.timeout(1.0)
            clock.t += 7.0

        def fan_out(_owner):
            sim.spawn(process())

        traced = _wrap(trace, "test:fan_out", "storage", fan_out)
        trace.enter(OTHER)
        traced(None)
        sim.run()
        trace.exit()
    assert trace.self_s["storage"] == 12.0
    assert Simulator.spawn.__name__ == "spawn"     # originals restored
    assert not hasattr(Simulator.spawn, "__wrapped__")


def test_layer_of_file():
    assert layer_of_file("/x/src/repro/sim/engine.py") == "engine"
    assert layer_of_file("/x/src/repro/storage/replication.py") == "storage"
    assert layer_of_file("/x/src/repro/faas/__init__.py") == "faas"
    assert layer_of_file("/x/src/repro/core/taskgraph.py") == OTHER
    assert layer_of_file("/usr/lib/python3/json/encoder.py") == OTHER


class _SmallPlanes(InvokePlanes):
    requests = 60


class _SmallPipeline(PipelineStorage):
    requests = 8


class _SmallOverload(OverloadOpen):
    warm_until = 1.0
    horizon = 3.0


@pytest.mark.parametrize("factory", [_SmallPlanes, _SmallPipeline,
                                     _SmallOverload])
def test_traced_session_reproduces_the_untraced_outcomes(factory):
    untraced = run_session(factory, 5, 1)
    trace = LayerTrace()
    with installed(trace):
        traced = run_session(factory, 5, 1, trace)
    assert not untraced.errors and not traced.errors
    assert traced.digest == untraced.digest
    assert traced.events == untraced.events
    assert trace.depth == 0
    assert sum(trace.self_s.values()) == pytest.approx(trace.window_s,
                                                       rel=1e-9)
    assert trace.counts["scheduler.invokes"] > 0


def test_sessions_of_one_seed_agree_and_seeds_differ():
    a, b = run_session(_SmallOverload, 5, 0), run_session(_SmallOverload, 5, 0)
    c = run_session(_SmallOverload, 6, 0)
    d = run_session(_SmallOverload, 5, 1)
    assert a.digest == b.digest
    assert c.digest != a.digest and d.digest != a.digest
    assert a.max_lag == 0.0
    tally = a.tally
    assert a.attempted == sum(tally.values()) and tally["error"] == 0
