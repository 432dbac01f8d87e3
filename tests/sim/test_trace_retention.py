"""The tracer's retention window: finished trees are bounded, listeners
see every root before it goes, and stragglers of a trimmed tree are
harmless.

Every check is an exact count on a deterministic run, so none depends
on host speed.
"""

import pytest

from repro.cluster.resources import ResourceVector
from repro.core.functions import FunctionImpl
from repro.core.system import PCSICloud
from repro.faas.platforms import CONTAINER
from repro.sim.trace import RETAIN_WINDOW

INVOKES = 10 * RETAIN_WINDOW


@pytest.fixture(scope="module")
def long_run():
    """A traced, attributed cloud after ``INVOKES`` sequential invokes.

    Before the first invoke a background root ends while its child stays
    open; the child is ended only after the run. Returns the largest
    span count seen after any invoke as ``max_spans``.
    """
    cloud = PCSICloud(seed=3, trace=True, attribution=True,
                      keep_alive=600.0)
    tracer = cloud.tracer
    ref = cloud.define_function("echo", [FunctionImpl(
        "cpu", CONTAINER, ResourceVector(cpus=1, memory=1024 ** 3),
        work_ops=5e8)])
    client = cloud.client_node()
    bg_root = tracer.start_span("bg")
    bg_child = tracer.start_span("bg.step", parent=bg_root)
    tracer.end_span(bg_root)
    max_spans = 0

    def flow():
        nonlocal max_spans
        for _ in range(INVOKES):
            yield from cloud.invoke(client, ref)
            max_spans = max(max_spans, tracer.span_count)

    cloud.run_process(flow())
    return cloud, bg_root, bg_child, max_spans


def test_span_count_stays_bounded(long_run):
    cloud, _root, _child, max_spans = long_run
    tree = len(list(cloud.tracer.walk(cloud.tracer.roots()[-1])))
    assert tree > 1
    # At most 2 * window finished trees, the exemplar-linked ones, and
    # the open straggler; an unbounded store would hold every tree.
    linked = len(cloud.metrics.exemplar_ids())
    bound = (2 * RETAIN_WINDOW + linked) * tree + 1
    assert max_spans <= bound
    assert INVOKES * tree > 2 * bound
    assert len(cloud.tracer.roots()) < 2 * RETAIN_WINDOW + linked


def test_every_root_reaches_its_listener(long_run):
    cloud, _root, _child, _max_spans = long_run
    assert cloud.attributor.observed_invokes == INVOKES


def test_straggler_of_trimmed_tree_and_clear(long_run):
    cloud, bg_root, bg_child, _max_spans = long_run
    tracer = cloud.tracer
    assert tracer.get_span(bg_root.span_id) is None  # trimmed
    tracer.end_span(bg_child)  # neither raises nor records
    assert bg_child.end is not None
    assert tracer.get_span(bg_child.span_id) is None
    assert tracer.spans(name="bg.step") == []
    assert tracer.roots()
    tracer.clear()
    assert tracer.span_count == 0
    assert not tracer._finished and not tracer._linked
