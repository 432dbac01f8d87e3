"""Freelist pooling never leaks stale state across checkout.

The fast-path refactor recycles the kernel's dominant allocations —
trace spans from dropped deferred trees, engine timeouts, internal
kicks — through bounded freelists guarded by refcount checks. These
tests pin the two safety contracts: a recycled object is
indistinguishable from a fresh one (every field reassigned, no stale
parent/child/context/value), and an object the caller still holds is
never recycled out from under them.
"""

import gc

from repro.sim.engine import Simulator
from repro.sim.trace import (
    DEFER,
    SAMPLE,
    STATUS_OK,
    Tracer,
    _ORPHAN,
    _SPAN_POOL_LIMIT,
)


class _DeferTails:
    """Defer roots named ``tail`` (keep-on-error), sample the rest."""

    def decide(self, name, attributes):
        return DEFER if name == "tail" else SAMPLE


def _make_tracer(sim=None):
    tracer = Tracer(enabled=True)
    if sim is not None:
        tracer.bind(sim)
    tracer.set_sampler(_DeferTails())
    return tracer


def _run_clean_tail(tracer, children=3):
    """A deferred root that ends clean: its whole tree is discarded.

    A helper function (not inline in the test) so no frame keeps the
    spans alive — the pool's refcount check must see them free.
    """
    with tracer.span("tail", marker="stale"):
        for i in range(children):
            with tracer.span("tail.step", i=i, secret="leak-me"):
                pass


# -- span pool ----------------------------------------------------------
def test_dropped_tree_spans_enter_the_pool():
    tracer = _make_tracer()
    _run_clean_tail(tracer)
    assert tracer.deferred_dropped == 1
    assert tracer.span_count == 0
    assert len(tracer._span_pool) == 4  # root + 3 children
    assert all(s.end is not None for s in tracer._span_pool)


def test_recycled_span_has_no_stale_state():
    tracer = _make_tracer()
    _run_clean_tail(tracer)
    pooled_ids = [id(s) for s in tracer._span_pool]

    with tracer.span("fresh", k="v") as sp:
        # The checkout recycled a discarded span object...
        assert id(sp) in pooled_ids
        # ...and nothing of its previous life is observable: not the
        # name, attributes, parent link, child list, or sampling mark.
        assert sp.name == "fresh"
        assert sp.attributes == {"k": "v"}
        assert sp.parent_id is None
        assert sp._kids is None
        assert sp.status == STATUS_OK
        assert sp.error is None
        assert sp.sampling is None
        assert sp.end is None
    assert sp.end is not None
    assert tracer.span_count == 1


def test_recycled_span_gets_fresh_parent_linkage():
    tracer = _make_tracer()
    _run_clean_tail(tracer)

    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    assert tracer.children(outer) == [inner]
    assert tracer.children(inner) == []


def test_held_span_is_never_recycled():
    tracer = _make_tracer()
    held = []
    with tracer.span("tail", marker=42) as root:
        held.append(root)
    assert tracer.deferred_dropped == 1

    # The dropped root sits in the graveyard, but the test still holds
    # it — checkout must skip it, and its data must survive.
    for i in range(4):
        with tracer.span("probe", i=i) as sp:
            assert sp is not held[0]
    assert held[0].name == "tail"
    assert held[0].attributes == {"marker": 42}
    assert held[0].end is not None


def test_span_pool_is_bounded():
    tracer = _make_tracer()
    per_tree = 5
    trees = _SPAN_POOL_LIMIT // per_tree + 10
    for _ in range(trees):
        _run_clean_tail(tracer, children=per_tree - 1)
    assert len(tracer._span_pool) <= _SPAN_POOL_LIMIT


def test_clear_does_not_pool_spans():
    # Cleared spans may still be held by callers (inspecting a root
    # across experiment phases is normal usage), so clear() must not
    # feed the freelist.
    tracer = _make_tracer()
    with tracer.span("work", k=1):
        pass
    tracer.clear()
    assert len(tracer._span_pool) == 0


def test_straggler_of_dropped_tree_records_nothing():
    sim = Simulator()
    tracer = _make_tracer(sim)
    pool_snapshots = []

    def child():
        # Opened inside the deferred root's context; still running when
        # the root ends clean and the tree is discarded.
        with tracer.span("late") as sp:
            yield sim.timeout(5.0)
            assert sp.sampling == _ORPHAN
            # A span opened *under* an orphan inherits the mark.
            with tracer.span("grand") as grand:
                assert grand.sampling == _ORPHAN
                yield sim.timeout(1.0)

    def root_proc():
        with tracer.span("tail"):
            sim.spawn(child())
            yield sim.timeout(1.0)

    def probe():
        yield sim.timeout(2.0)
        pool_snapshots.append(
            all(s.end is not None for s in tracer._span_pool))

    sim.spawn(root_proc())
    sim.spawn(probe())
    sim.run()

    assert tracer.deferred_dropped == 1
    assert tracer.span_count == 0    # stragglers dropped at end
    # Live (still-open) spans never entered the pool at discard time.
    assert pool_snapshots == [True]


# -- the span store over pooled spans ------------------------------------
def test_closing_sampled_spans_builds_no_records():
    """A finished span is held in one place: the tracer's id dict, plus
    its parent's child list. Closing it copies it nowhere else."""
    tracer = _make_tracer()
    n = 50
    for i in range(n):
        with tracer.span("work", i=i):
            with tracer.span("work.step"):
                pass
    # A kept error tail's spans are stored the same way.
    try:
        with tracer.span("tail"):
            with tracer.span("tail.step"):
                raise RuntimeError("keep me")
    except RuntimeError:
        pass
    assert tracer.deferred_kept == 1
    assert tracer.span_count == 2 * n + 2
    spans = tracer.spans()
    for span in spans:
        parent = tracer.get_span(span.parent_id) \
            if span.parent_id is not None else None
        holders = {id(r) for r in gc.get_referrers(span)
                   if r is not spans and isinstance(r, (list, dict))}
        assert holders == {id(tracer._spans_by_id)} | (
            {id(parent._kids)} if parent is not None else set())


def test_span_backing_a_record_never_enters_the_pool():
    sim = Simulator()
    tracer = _make_tracer(sim)

    def sampled(i):
        with tracer.span("work", i=i):
            yield sim.timeout(1.0)

    def tail(i, fail):
        with tracer.span("tail", i=i):
            with tracer.span("tail.step"):
                yield sim.timeout(0.5)
                if fail:
                    raise RuntimeError("kept")

    def guarded_tail(i, fail):
        try:
            yield from tail(i, fail)
        except RuntimeError:
            pass

    for i in range(20):
        sim.spawn(sampled(i))
        sim.spawn(guarded_tail(i, fail=i % 5 == 0))
    sim.run()
    assert tracer.deferred_kept == 4 and tracer.deferred_dropped == 16
    assert tracer._span_pool
    backing = {id(span) for span in tracer.spans()}
    assert len(backing) == 20 + 4 * 2
    assert not backing & {id(span) for span in tracer._span_pool}


def test_recycled_spans_never_surface_in_the_view():
    tracer = _make_tracer()
    _run_clean_tail(tracer)
    pooled = {id(s) for s in tracer._span_pool}
    assert tracer.span_count == 0
    for i in range(len(pooled)):
        with tracer.span("fresh", i=i):
            pass
    # The recycled objects back the new spans, under their new life.
    spans = tracer.spans()
    assert {id(span) for span in spans} == pooled
    assert tracer.spans(category="tail") == []
    assert tracer.spans(category="tail.step") == []
    assert [s.category for s in spans] == ["fresh"] * len(pooled)
    assert [s.attributes for s in spans] == [{"i": i}
                                             for i in range(len(pooled))]


# -- engine event pools -------------------------------------------------
def test_timeout_pool_recycles_without_stale_state():
    sim = Simulator()
    out = []

    def churn():
        for i in range(10):
            yield sim.timeout(0.5, value=i)

    def checker():
        yield sim.timeout(20.0)
        assert len(sim._timeout_pool) > 0
        t = sim.timeout(0.25, value="fresh")
        out.append((t.delay, t._value, t._ok))
        got = yield t
        out.append(got)

    sim.spawn(churn())
    sim.spawn(checker())
    sim.run()
    assert out == [(0.25, "fresh", True), "fresh"]


def test_held_timeout_is_not_recycled():
    sim = Simulator()
    held = []

    def proc():
        t = sim.timeout(1.0, value="keep")
        held.append(t)
        yield t
        for _ in range(5):
            fresh = sim.timeout(0.1)
            assert fresh is not held[0]
            yield fresh

    sim.spawn(proc())
    sim.run()
    assert held[0]._value == "keep"
    assert held[0] not in sim._timeout_pool


def test_kick_pool_populates_and_processes_complete():
    sim = Simulator()
    done = []

    def proc(i):
        yield sim.timeout(float(i) * 0.01)
        done.append(i)

    for i in range(50):
        sim.spawn(proc(i))
    sim.run()
    assert done == list(range(50))
    # Bootstrap kicks were recycled rather than leaked.
    assert len(sim._kick_pool) > 0
