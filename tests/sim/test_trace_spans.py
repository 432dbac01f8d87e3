"""Unit tests for the hierarchical span API of the tracer."""

import pytest

from repro.sim import NULL_SPAN, NULL_TRACER, Tracer
from repro.sim.trace import (DEFER, STATUS_ERROR, STATUS_OK,
                             ErrorTailSampler, NeverSample)


class FakeClock:
    """Manually-advanced clock for driving an unbound tracer."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(enabled=True, clock=clock)


def test_nested_spans_parent_and_ids(tracer, clock):
    with tracer.span("outer", a=1) as outer:
        clock.tick()
        with tracer.span("inner") as inner:
            clock.tick()
        clock.tick()
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.span_id != inner.span_id
    # Child interval nested within the parent's.
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert outer.duration == pytest.approx(3.0)
    assert inner.duration == pytest.approx(1.0)
    ids = [s.span_id for s in tracer.spans()]
    assert len(ids) == len(set(ids))


def test_siblings_share_parent_and_restore_current(tracer, clock):
    with tracer.span("root") as root:
        with tracer.span("first"):
            assert tracer.current_span.name == "first"
        assert tracer.current_span is root
        with tracer.span("second"):
            pass
    assert tracer.current_span is None
    first, second = tracer.spans(name="first") + tracer.spans(name="second")
    assert first.parent_id == second.parent_id == root.span_id
    assert tracer.children(root) == [first, second]
    assert tracer.root_of(first) is root
    assert tracer.depth_of(root) == 1


def test_exception_marks_error_status(tracer, clock):
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            clock.tick()
            with tracer.span("doomed"):
                raise RuntimeError("boom")
    doomed, = tracer.spans(name="doomed")
    outer, = tracer.spans(name="outer")
    assert doomed.status == STATUS_ERROR
    assert "boom" in doomed.error
    assert doomed.finished
    # The exception propagated through the outer span too.
    assert outer.status == STATUS_ERROR
    assert tracer.current_span is None  # context restored


def test_explicit_parent_overrides_context(tracer):
    with tracer.span("ambient"):
        with tracer.span("adopted", parent=None) as kid:
            pass
    # parent=None means "use the ambient span"; pass an explicit span
    # to re-parent.
    assert kid.parent_id == tracer.spans(name="ambient")[0].span_id
    other = tracer.start_span("elsewhere")
    with tracer.span("stitched", parent=other) as s:
        pass
    assert s.parent_id == other.span_id


def test_disabled_tracer_is_free():
    tracer = Tracer(enabled=False)
    cm = tracer.span("anything", big=list(range(10)))
    assert cm is NULL_SPAN  # the shared singleton, no allocation
    with cm as sp:
        assert sp is NULL_SPAN
        sp.set(ignored=True)
    tracer.record(1.0, "cat", x=1)
    assert tracer.span_count == 0
    assert tracer.current_span is None
    assert not NULL_SPAN  # falsy, so `if span:` guards work


def test_null_tracer_shared_and_disabled():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.span("x") is NULL_SPAN
    assert NULL_TRACER.span_count == 0


def test_span_end_emits_compat_record(tracer, clock):
    """A finished span is its own record: its end time, category and
    attributes are read off the span store."""
    with tracer.span("net.transfer", nbytes=100):
        clock.tick()
    clock.tick()
    with tracer.span("net.transfer", nbytes=50):
        pass
    transfers = tracer.spans(category="net.transfer")
    assert sum(s.attributes["nbytes"] for s in transfers) == 150
    assert [s.end for s in transfers] == [1.0, 2.0]


def test_select_predicate_and_index(tracer):
    for i in range(5):
        tracer.record(float(i), "a", i=i)
        tracer.record(float(i), "b", i=i)
    assert len(tracer.spans(category="a")) == 5
    assert [s.attributes["i"] for s in tracer.spans(category="a")
            if s.attributes["i"] % 2 == 0] == [0, 2, 4]
    # Returned lists are copies: mutating one must not corrupt the store.
    tracer.spans(category="a").clear()
    assert len(tracer.spans(category="a")) == 5


def test_clear_resets_spans_and_records(tracer):
    with tracer.span("x"):
        pass
    tracer.record(0.0, "y")
    tracer.clear()
    assert tracer.span_count == 0
    assert tracer.spans(category="y") == []
    assert tracer.roots() == []


def test_unfinished_span_duration_raises(tracer):
    span = tracer.start_span("open")
    assert not span.finished
    with pytest.raises(ValueError):
        _ = span.duration
    with pytest.raises(ValueError):
        tracer.end_span(tracer.end_span(span))  # double end


def _tree_via_context_managers(tracer, clock, fail):
    """root > mid > (leaf, leaf); the second leaf raises when ``fail``."""
    with tracer.span("req", fn="f") as root:
        clock.tick()
        with tracer.span("mid", category="stage", n=1) as mid:
            clock.tick()
            with tracer.span("leaf", category="net.transfer",
                             nbytes=10) as first:
                clock.tick()
            try:
                with tracer.span("leaf", category="net.transfer",
                                 nbytes=20) as second:
                    clock.tick()
                    if fail:
                        raise RuntimeError("boom")
            except RuntimeError:
                pass
            clock.tick()
        clock.tick()
    return [root, mid, first, second]


def _tree_via_explicit_calls(tracer, clock, fail, defer):
    """The same tree, opened with ``start_span(parent=)`` and closed
    with ``end_span`` at the same clock times."""
    root = tracer.start_span("req", fn="f")
    if defer:
        root.sampling = DEFER  # what span() applies to a DEFER root
    clock.tick()
    mid = tracer.start_span("mid", parent=root, category="stage", n=1)
    clock.tick()
    first = tracer.start_span("leaf", parent=mid, category="net.transfer",
                              nbytes=10)
    clock.tick()
    tracer.end_span(first)
    second = tracer.start_span("leaf", parent=mid, category="net.transfer",
                               nbytes=20)
    clock.tick()
    if fail:
        second.set(cause="RuntimeError")
        tracer.end_span(second, status=STATUS_ERROR,
                        error="RuntimeError: boom")
    else:
        tracer.end_span(second)
    clock.tick()
    tracer.end_span(mid)
    clock.tick()
    tracer.end_span(root)
    return [root, mid, first, second]


def _observed(tracer, spans, roots_seen):
    fields = [(s.span_id, s.parent_id, s.name, s.category, s.start, s.end,
               s.status, s.error, s.sampling, dict(s.attributes),
               [k.span_id for k in tracer.children(s)]) for s in spans]
    stored = [(s.span_id, dict(s.attributes)) for s in tracer.spans()]
    return (fields, stored, roots_seen, tracer.span_count,
            tracer.deferred_kept, tracer.deferred_dropped)


@pytest.mark.parametrize("sampled,fail", [
    pytest.param(False, False, id="no-sampler"),
    pytest.param(False, True, id="no-sampler-error"),
    pytest.param(True, True, id="defer-error-kept"),
    pytest.param(True, False, id="defer-clean-dropped"),
])
def test_context_manager_and_explicit_calls_build_the_same_tree(sampled,
                                                               fail):
    observed = []
    for explicit in (False, True):
        clock = FakeClock()
        # start_span never consults the sampler; span() does.
        tracer = Tracer(enabled=True, clock=clock,
                        sampler=ErrorTailSampler(NeverSample())
                        if sampled else None)
        roots_seen = []
        tracer.add_root_listener(
            lambda r: roots_seen.append((r.span_id, r.end, r.sampling)))
        if explicit:
            spans = _tree_via_explicit_calls(tracer, clock, fail, sampled)
        else:
            spans = _tree_via_context_managers(tracer, clock, fail)
        observed.append(_observed(tracer, spans, roots_seen))
    assert observed[0] == observed[1]
    fields, stored, roots_seen, span_count, kept, dropped = observed[0]
    if sampled and not fail:
        assert (stored, roots_seen, span_count, dropped) == ([], [], 0, 1)
    else:
        # The store in start order: root, mid, leaves; one listener call.
        assert [sid for sid, _ in stored] == [1, 2, 3, 4]
        assert roots_seen == [(1, 6.0, "error_tail" if sampled else None)]
        assert stored[3][1] == {"nbytes": 20, **(
            {"cause": "RuntimeError"} if fail else {})}
        assert span_count == 4 and kept == int(sampled)


def test_explicit_parent_under_discarded_tree_records_nothing(clock):
    """A span opened with ``parent=`` a span of a finished, discarded
    deferred tree (and anything it opens) is dropped at its end."""
    tracer = Tracer(enabled=True, clock=clock,
                    sampler=ErrorTailSampler(NeverSample()))
    roots_seen = []
    tracer.add_root_listener(roots_seen.append)
    with tracer.span("req") as root:
        with tracer.span("leaf") as leaf:
            clock.tick()
    assert tracer.deferred_dropped == 1 and tracer.span_count == 0
    for parent in (root, leaf):
        late = tracer.start_span("late", parent=parent)
        with tracer.span("nested", parent=late) as nested:
            clock.tick()
        tracer.end_span(late)
        with tracer.span("stitched", parent=parent):
            clock.tick()
        assert late.parent_id == parent.span_id
        assert nested.parent_id == late.span_id
    assert tracer.span_count == 0
    assert roots_seen == []
    assert tracer.exemplar_root_id(root) is None
    assert tracer.exemplar_root_id(leaf) is None
