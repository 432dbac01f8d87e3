"""Head-based trace sampling: policies, propagation, error tail."""

import pytest

from repro.sim import (
    DEFER,
    DROP,
    NULL_SPAN,
    SAMPLE,
    AlwaysSample,
    ErrorTailSampler,
    KeyedRateSampler,
    NeverSample,
    ProbabilisticSampler,
    Simulator,
    Tracer,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


# -- policy decisions ----------------------------------------------------

def test_policy_extremes_and_validation():
    assert AlwaysSample().decide("invoke", {}) == SAMPLE
    assert NeverSample().decide("invoke", {}) == DROP
    assert ProbabilisticSampler(1.0).decide("invoke", {}) == SAMPLE
    assert ProbabilisticSampler(0.0).decide("invoke", {}) == DROP
    with pytest.raises(ValueError):
        ProbabilisticSampler(1.5)
    with pytest.raises(ValueError):
        KeyedRateSampler("fn", {"f": 2.0})
    with pytest.raises(ValueError):
        KeyedRateSampler("fn", {}, default=-0.1)


def test_probabilistic_sampler_is_deterministic():
    a = [ProbabilisticSampler(0.3, seed=7).decide("r", {})
         for _ in range(1)]
    # Same seed, fresh stream: identical decision sequence.
    s1 = ProbabilisticSampler(0.3, seed=7)
    s2 = ProbabilisticSampler(0.3, seed=7)
    seq1 = [s1.decide("r", {}) for _ in range(50)]
    seq2 = [s2.decide("r", {}) for _ in range(50)]
    assert seq1 == seq2
    assert SAMPLE in seq1 and DROP in seq1
    assert a[0] == seq1[0]


def test_keyed_rate_sampler_routes_by_attribute():
    policy = KeyedRateSampler("fn", {"hot": 1.0, "cold": 0.0},
                              default=1.0)
    assert policy.decide("invoke", {"fn": "hot"}) == SAMPLE
    assert policy.decide("invoke", {"fn": "cold"}) == DROP
    assert policy.decide("invoke", {"fn": "other"}) == SAMPLE
    assert policy.decide("invoke", {}) == SAMPLE


def test_error_tail_upgrades_drop_to_defer():
    policy = ErrorTailSampler(NeverSample())
    assert policy.decide("invoke", {}) == DEFER
    assert ErrorTailSampler(AlwaysSample()).decide("invoke", {}) == SAMPLE


# -- tracer integration --------------------------------------------------

def test_unsampled_root_yields_null_span_tree():
    clock = FakeClock()
    tracer = Tracer(enabled=True, clock=clock, sampler=NeverSample())
    with tracer.span("invoke", fn="f") as root:
        assert root is NULL_SPAN
        assert tracer.current_span is None
        with tracer.span("child") as child:
            assert child is NULL_SPAN
    assert tracer.span_count == 0
    assert tracer.unsampled_roots == 1
    assert tracer.sampled_roots == 0
    # The next root gets a fresh decision (marker cleared on exit).
    tracer.set_sampler(AlwaysSample())
    with tracer.span("invoke") as again:
        assert again is not NULL_SPAN
    assert tracer.sampled_roots == 1


def test_unsampled_children_share_the_null_singleton():
    """Inside an unsampled root, child span() calls allocate nothing:
    they return the one NULL_SPAN object itself."""
    tracer = Tracer(enabled=True, sampler=NeverSample())
    with tracer.span("invoke"):
        results = [tracer.span(f"child-{i}") for i in range(10)]
    assert all(r is NULL_SPAN for r in results)
    # The dropped-root context manager is shared too.
    assert tracer.span("invoke") is tracer.span("invoke")


def test_sampled_roots_record_normally():
    clock = FakeClock()
    tracer = Tracer(enabled=True, clock=clock, sampler=AlwaysSample())
    with tracer.span("invoke", fn="f") as root:
        clock.tick()
        with tracer.span("child"):
            clock.tick()
    assert tracer.span_count == 2
    assert tracer.children(root)[0].name == "child"
    assert tracer.sampled_roots == 1
    assert tracer.unsampled_roots == 0


def test_decision_propagates_across_spawn():
    """A spawned process inherits its parent's sampling verdict."""
    sim = Simulator()
    tracer = Tracer(enabled=True,
                    sampler=KeyedRateSampler("fn", {"drop": 0.0},
                                             default=1.0)).bind(sim)
    seen = {}

    def child(tag):
        with tracer.span("work", tag=tag) as sp:
            seen[tag] = sp
            yield sim.timeout(1)

    def root(fn, tag):
        with tracer.span("invoke", fn=fn):
            yield sim.spawn(child(tag))

    sim.spawn(root("drop", "dropped"))
    sim.spawn(root("keep", "kept"))
    sim.run()
    assert seen["dropped"] is NULL_SPAN
    assert seen["kept"] is not NULL_SPAN
    assert seen["kept"].name == "work"
    # Only the sampled tree's spans exist.
    names = {s.name for s in tracer.spans()}
    assert names == {"invoke", "work"}
    assert tracer.sampled_roots == 1
    assert tracer.unsampled_roots == 1


def test_error_tail_keeps_only_erroring_trees():
    clock = FakeClock()
    tracer = Tracer(enabled=True, clock=clock,
                    sampler=ErrorTailSampler(NeverSample()))

    # A clean tree: recorded provisionally, then discarded at root end.
    with tracer.span("invoke", n=1):
        clock.tick()
        with tracer.span("step"):
            clock.tick()
    assert tracer.span_count == 0
    assert tracer.deferred_dropped == 1

    # An erroring tree: kept, marked as the error tail.
    with pytest.raises(RuntimeError):
        with tracer.span("invoke", n=2) as root:
            clock.tick()
            with tracer.span("step"):
                raise RuntimeError("boom")
    assert tracer.deferred_kept == 1
    assert root.sampling == "error_tail"
    kept = {s.name for s in tracer.spans()}
    assert kept == {"invoke", "step"}
    assert all(s.finished for s in tracer.spans())


def test_error_tail_with_simulated_fanout():
    """A deferred verdict rides spawn, and one failing branch keeps
    the whole tree."""
    sim = Simulator()
    tracer = Tracer(enabled=True,
                    sampler=ErrorTailSampler(NeverSample())).bind(sim)

    def branch(fail):
        with tracer.span("branch", fail=fail):
            yield sim.timeout(1)
            if fail:
                raise ValueError("branch failed")

    def root(fail):
        with tracer.span("invoke", fail=fail):
            proc = sim.spawn(branch(fail))
            try:
                yield proc
            except ValueError:
                pass

    sim.spawn(root(False))
    sim.run()
    assert tracer.span_count == 0

    sim2 = Simulator()
    tracer2 = Tracer(enabled=True,
                     sampler=ErrorTailSampler(NeverSample())).bind(sim2)

    def root2():
        with tracer2.span("invoke"):
            proc = sim2.spawn(branch2())
            try:
                yield proc
            except ValueError:
                pass

    def branch2():
        with tracer2.span("branch"):
            yield sim2.timeout(1)
            raise ValueError("branch failed")

    sim2.spawn(root2())
    sim2.run()
    assert {s.name for s in tracer2.spans()} == {"invoke", "branch"}
    assert tracer2.deferred_kept == 1


def test_clear_resets_sampling_state():
    tracer = Tracer(enabled=True,
                    sampler=ErrorTailSampler(NeverSample()))
    cm = tracer.span("invoke")
    cm.__enter__()
    tracer.clear()
    assert tracer.span_count == 0
    # The open deferred root is still decided at its end, and its
    # discarded tree leaves nothing behind.
    cm.__exit__(None, None, None)
    assert tracer.deferred_dropped == 1
    assert tracer.span_count == 0


def test_record_is_kept_under_any_sampler():
    """``record()`` consults no sampler: its instant span is kept
    under :class:`NeverSample`, even inside an unsampled root, and is
    a root even inside a sampled span."""
    sim = Simulator()
    tracer = Tracer(enabled=True, sampler=NeverSample()).bind(sim)

    def proc():
        with tracer.span("invoke"):
            yield sim.timeout(1.0)
            tracer.record(sim.now, "note", n=1)
        tracer.set_sampler(None)
        with tracer.span("sampled") as sampled:
            yield sim.timeout(1.0)
            tracer.record(sim.now, "note", n=2)
        assert tracer.children(sampled) == []

    sim.spawn(proc())
    sim.run()
    tracer.record(5.0, "note", n=3)
    assert tracer.unsampled_roots == 1
    notes = tracer.spans(category="note")
    assert [(s.name, s.start, s.end, s.parent_id, s.attributes)
            for s in notes] == [("note", 1.0, 1.0, None, {"n": 1}),
                                ("note", 2.0, 2.0, None, {"n": 2}),
                                ("note", 5.0, 5.0, None, {"n": 3})]
    assert tracer.span_count == 4
