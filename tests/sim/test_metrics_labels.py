"""Labeled metrics: aggregation, cardinality bounds, series, export."""

import json

import pytest

from repro.sim import LabeledMetricsRegistry, Simulator
from repro.sim.metrics_registry import (
    OVERFLOW_LABEL,
    format_instrument,
    label_key,
)


@pytest.fixture
def reg():
    return LabeledMetricsRegistry()


# -- keys and formatting -------------------------------------------------

def test_components_default_to_the_one_registry_type():
    """No flat registry exists to fall back to: components built
    without a registry make a labeled one, and they record labeled
    families into it."""
    import repro.sim
    from repro.cluster.latency import DC_2021
    from repro.cluster.network import Network
    from repro.cluster.resources import cpu_task
    from repro.cluster.topology import build_cluster
    from repro.faas.autoscale import WarmPool
    from repro.faas.platforms import CONTAINER

    assert not hasattr(repro.sim, "MetricsRegistry")
    sim = Simulator()
    topo = build_cluster(sim, racks=1, nodes_per_rack=2,
                         gpu_nodes_per_rack=0)
    net = Network(sim, topo, DC_2021)
    pool = WarmPool(sim, "fn", CONTAINER, cpu_task(),
                    placer=lambda *a: topo.nodes[0])
    assert isinstance(net.metrics, LabeledMetricsRegistry)
    assert isinstance(pool.metrics, LabeledMetricsRegistry)

    def flow():
        executor = yield from pool.acquire()
        pool.release(executor)
        yield from net.transfer(topo.nodes[0].node_id,
                                topo.nodes[1].node_id, 100,
                                purpose="probe")

    sim.spawn(flow())
    sim.run()
    assert pool.metrics.counters()["warmpool.acquire{outcome=cold,pool=fn}"] \
        == 1.0
    assert net.metrics.counters()["network.bytes{purpose=probe}"] == 100.0


def test_label_key_is_order_insensitive_and_stringified():
    assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
    assert label_key({"a": "x", "b": 2}) == label_key({"b": 2, "a": "x"})
    assert format_instrument("n", ()) == "n"
    assert format_instrument("n", (("a", "1"), ("b", "2"))) \
        == "n{a=1,b=2}"


# -- aggregate forwarding ------------------------------------------------

def test_labeled_counter_rolls_up_into_aggregate(reg):
    reg.counter("net.bytes", purpose="fifo").add(100)
    reg.counter("net.bytes", purpose="rpc").add(50)
    reg.counter("net.bytes").add(1)  # direct aggregate update
    assert reg.counter("net.bytes").value == 151
    assert reg.counter("net.bytes", purpose="fifo").value == 100
    snap = reg.counters()
    assert snap["net.bytes"] == 151
    assert snap["net.bytes{purpose=rpc}"] == 50


def test_labeled_histogram_rolls_up_into_aggregate(reg):
    reg.histogram("lat", fn="a").observe(1.0)
    reg.histogram("lat", fn="b").observe(3.0)
    agg = reg.histogram("lat").summary()
    assert agg["count"] == 2
    assert agg["mean"] == pytest.approx(2.0)
    assert reg.histogram("lat", fn="a").summary()["count"] == 1
    assert "lat{fn=b}" in reg.histograms()


def test_labeled_gauge_aggregate_is_sum_of_levels(reg):
    reg.gauge("pool.size", pool="a").set(3, now=1.0)
    reg.gauge("pool.size", pool="b").set(2, now=1.0)
    assert reg.gauge("pool.size").level == 5
    reg.gauge("pool.size", pool="a").set(1, now=2.0)
    assert reg.gauge("pool.size").level == 3
    assert reg.gauge("pool.size", pool="b").level == 2
    assert reg.gauges(now=3.0)["pool.size"]["level"] == 3


def test_unlabeled_calls_are_plain_registry_api(reg):
    # The legacy interface is untouched: bare names, same totals.
    reg.counter("hits").add(2)
    reg.counter("hits").add(3)
    assert reg.counters() == {"hits": 5}


def test_kind_mismatch_is_an_error(reg):
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")
    with pytest.raises(TypeError):
        reg.gauge("x", node="n1")


# -- cardinality bound ---------------------------------------------------

def test_label_cardinality_cap_collapses_to_overflow():
    reg = LabeledMetricsRegistry(max_label_sets=2)
    reg.counter("ops", k="a").add(1)
    reg.counter("ops", k="b").add(1)
    reg.counter("ops", k="c").add(1)  # over the cap
    reg.counter("ops", k="d").add(2)  # also over; same overflow child
    assert reg.dropped_label_sets == 2
    overflow = format_instrument("ops", ((OVERFLOW_LABEL, "true"),))
    snap = reg.counters()
    assert snap[overflow] == 3
    assert snap["ops"] == 5  # aggregate still sees everything
    # Existing children keep working at the cap.
    reg.counter("ops", k="a").add(1)
    assert reg.counters()["ops{k=a}"] == 2


def test_max_label_sets_validation():
    with pytest.raises(ValueError):
        LabeledMetricsRegistry(max_label_sets=0)


# -- time series ---------------------------------------------------------

def test_sample_records_counter_and_gauge_series(reg):
    c = reg.counter("reqs", fn="f")
    g = reg.gauge("inflight")
    c.add(1)
    g.set(2, now=0.5)
    reg.sample(1.0)
    c.add(4)
    g.set(1, now=1.5)
    reg.sample(2.0)
    assert reg.series("reqs", fn="f") == [(1.0, 1.0), (2.0, 5.0)]
    assert reg.series("reqs") == [(1.0, 1.0), (2.0, 5.0)]
    assert reg.series("inflight") == [(1.0, 2.0), (2.0, 1.0)]
    assert reg.series("missing") == []
    assert reg.series("reqs", fn="nope") == []


def test_sampler_process_runs_on_interval(reg):
    sim = Simulator()
    c = reg.counter("ticks")

    def work():
        for _ in range(3):
            c.add(1)
            yield sim.timeout(1.0)

    sim.spawn(reg.sampler_process(sim, 1.0), inherit_context=False)
    sim.spawn(work())
    sim.run(until=3.5)
    points = reg.series("ticks")
    assert [t for t, _v in points] == [1.0, 2.0, 3.0]
    assert points[-1][1] == 3.0
    with pytest.raises(ValueError):
        next(reg.sampler_process(sim, 0.0))


# -- exporters -----------------------------------------------------------

def test_to_json_round_trips_and_is_serializable(reg, tmp_path):
    reg.counter("c", k="v").add(1)
    reg.gauge("g").set(2, now=1.0)
    reg.histogram("h").observe(0.5)
    reg.sample(1.0)
    doc = reg.to_json(now=2.0)
    assert doc["counters"]["c"] == 1
    assert doc["counters"]["c{k=v}"] == 1
    assert doc["gauges"]["g"]["level"] == 2
    assert doc["histograms"]["h"]["count"] == 1
    assert doc["series"]["c"] == [[1.0, 1.0]]
    path = tmp_path / "metrics.json"
    reg.write_json(str(path), now=2.0)
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(doc))


def test_line_protocol_output(reg):
    reg.counter("net.bytes", purpose="rpc").add(10)
    reg.gauge("inflight").set(1, now=0.5)
    lines = reg.to_line_protocol(now=1.0).splitlines()
    assert "net.bytes value=10.0 1000000000" in lines
    assert "net.bytes,purpose=rpc value=10.0 1000000000" in lines
    assert any(line.startswith("inflight level=1") for line in lines)


# -- windowed reads (the autoscale controller's view) --------------------

def test_series_window_returns_the_tail(reg):
    c = reg.counter("reqs", pool="p")
    for t in (1.0, 2.0, 3.0, 4.0):
        c.add(1)
        reg.sample(t)
    assert reg.series_window("reqs", 3.0, pool="p") \
        == [(3.0, 3.0), (4.0, 4.0)]
    assert reg.series_window("reqs", 0.0, pool="p") \
        == reg.series("reqs", pool="p")
    assert reg.series_window("reqs", 9.0, pool="p") == []
    assert reg.series_window("missing", 0.0) == []


def test_window_delta_sums_children_by_subset_filter(reg):
    """pool=... matches every child carrying that pair, whatever other
    labels (platform=...) ride along — the delta is the family growth
    over the window, not one child's."""
    a = reg.counter("colds", pool="p", platform="microvm")
    b = reg.counter("colds", pool="p", platform="wasm")
    other = reg.counter("colds", pool="q", platform="microvm")
    a.add(2)
    b.add(1)
    other.add(10)
    reg.sample(1.0)
    a.add(3)
    other.add(10)
    reg.sample(2.0)
    assert reg.window_delta("colds", 1.0, pool="p") == 3.0
    assert reg.window_delta("colds", 1.0, pool="q") == 10.0
    assert reg.window_delta("colds", 0.0, pool="p") == 6.0
    # No labels: the bare aggregate (sum of everything).
    assert reg.window_delta("colds", 1.0) == 13.0
    # Non-counter families and unknown names read as zero growth.
    reg.gauge("lvl").set(5, now=0.0)
    assert reg.window_delta("lvl", 0.0) == 0.0
    assert reg.window_delta("missing", 0.0) == 0.0


def test_window_delta_counts_instruments_born_inside_window(reg):
    reg.counter("colds", pool="old").add(1)
    reg.sample(1.0)
    reg.counter("colds", pool="new").add(4)  # born after t=1
    reg.sample(2.0)
    assert reg.window_delta("colds", 1.0, pool="new") == 4.0


def test_window_level_sums_gauges_by_subset_filter(reg):
    reg.gauge("size", pool="p", platform="m").set(2, now=0.0)
    reg.gauge("size", pool="p", platform="w").set(3, now=0.0)
    reg.gauge("size", pool="q").set(7, now=0.0)
    assert reg.window_level("size", pool="p") == 5.0
    assert reg.window_level("size", pool="q") == 7.0
    assert reg.window_level("size") == 12.0  # the aggregate
    assert reg.window_level("size", pool="nope") == 0.0
    assert reg.window_level("missing") == 0.0


# -- hot-path memo -------------------------------------------------------

def test_fast_cache_returns_identical_child_on_repeat(reg):
    first = reg.counter("hits", fn="a", node="n1")
    assert ("counter", "hits", ("fn", "a"), ("node", "n1")) in reg._fast
    assert reg.counter("hits", fn="a", node="n1") is first


def test_fast_cache_label_orders_share_one_child(reg):
    # Two call shapes, one instrument: the memo is keyed on kwargs
    # order but both entries resolve to the same canonical child.
    ab = reg.counter("hits", fn="a", node="n1")
    ba = reg.counter("hits", node="n1", fn="a")
    assert ab is ba
    ab.add(3)
    assert reg.counters()["hits{fn=a,node=n1}"] == 3
    assert len(reg._fast) == 2


KINDS = ("counter", "histogram", "gauge")


def _update(inst, kind, value):
    """One update of any instrument kind."""
    if kind == "counter":
        inst.add(value)
    elif kind == "histogram":
        inst.observe(value)
    else:
        inst.set(value, now=0.0)


def _read(reg, kind, instrument):
    """The exported value of one instrument: counter value, histogram
    max, gauge level (each equals the one update the tests make)."""
    if kind == "counter":
        return reg.counters()[instrument]
    if kind == "histogram":
        return reg.histograms()[instrument]["max"]
    return reg.gauges(0.0)[instrument]["level"]


@pytest.mark.parametrize("kind", KINDS)
def test_fast_cache_never_caches_overflow_children(kind):
    reg = LabeledMetricsRegistry(max_label_sets=2)
    get = getattr(reg, kind)
    _update(get("c", k="1"), kind, 1)
    _update(get("c", k="2"), kind, 1)
    # Over the cap: collapses to __overflow__ and counts a drop —
    # on *every* call, so the overflow child must stay uncached.
    for expected in (1, 2, 3):
        over = get("c", k="over")
        assert reg.dropped_label_sets == expected
    assert (kind, "c", ("k", "over")) not in reg._fast
    _update(over, kind, 5)
    assert _read(reg, kind, f"c{{{OVERFLOW_LABEL}=true}}") == 5
    # Materialized children still memoize.
    assert (kind, "c", ("k", "1")) in reg._fast


@pytest.mark.parametrize("kind", KINDS)
def test_fast_cache_skips_unhashable_label_values(reg, kind):
    get = getattr(reg, kind)
    child = get("c", k=["un", "hashable"])
    _update(child, kind, 2)
    assert get("c", k=["un", "hashable"]) is child
    assert len(reg._fast) == 0
    assert _read(reg, kind, "c{k=['un', 'hashable']}") == 2


@pytest.mark.parametrize("kind", KINDS)
def test_kind_mismatch_still_raises_with_warm_cache(reg, kind):
    get = getattr(reg, kind)
    _update(get("m", k="1"), kind, 1)
    assert get("m", k="1") is get("m", k="1")  # served by the memo
    for other in KINDS:
        if other != kind:
            with pytest.raises(TypeError):
                getattr(reg, other)("m", k="1")
