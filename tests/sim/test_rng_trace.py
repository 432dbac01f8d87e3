"""Unit tests for seeded RNG streams and the tracer."""

import pytest

from repro.sim import RandomStream, Tracer


def test_same_seed_same_stream():
    a = RandomStream(42)
    b = RandomStream(42)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_different_labels_decorrelate():
    a = RandomStream(42).fork("network")
    b = RandomStream(42).fork("storage")
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_fork_is_stable_across_sibling_creation():
    root1 = RandomStream(7)
    net1 = root1.fork("net")
    draws1 = [net1.uniform() for _ in range(5)]

    root2 = RandomStream(7)
    root2.fork("extra-component")  # adding a sibling must not disturb "net"
    net2 = root2.fork("net")
    draws2 = [net2.uniform() for _ in range(5)]
    assert draws1 == draws2


def test_exponential_mean_close():
    rng = RandomStream(1)
    draws = [rng.exponential(2.0) for _ in range(20000)]
    assert abs(sum(draws) / len(draws) - 2.0) < 0.1


def test_exponential_validation():
    rng = RandomStream(1)
    with pytest.raises(ValueError):
        rng.exponential(0.0)


def test_zipf_rank_zero_most_popular():
    rng = RandomStream(3)
    counts = [0] * 10
    for _ in range(20000):
        counts[rng.zipf_rank(10, alpha=1.2)] += 1
    assert counts[0] > counts[1] > counts[3]
    assert counts[0] > 0.3 * sum(counts)


def test_zipf_validation():
    rng = RandomStream(0)
    with pytest.raises(ValueError):
        rng.zipf_rank(0, 1.0)
    with pytest.raises(ValueError):
        rng.zipf_rank(10, 0.0)


def test_bernoulli_bounds():
    rng = RandomStream(0)
    with pytest.raises(ValueError):
        rng.bernoulli(1.5)
    assert rng.bernoulli(1.0) is True
    assert rng.bernoulli(0.0) is False


def test_lognormal_positive():
    rng = RandomStream(5)
    assert all(rng.lognormal(1.0, 0.5) > 0 for _ in range(100))


def test_tracer_records_and_selects():
    """On an unbound tracer, ``record()`` keeps one instant root span
    per call, read back by category."""
    tr = Tracer()
    tr.record(1.0, "net.send", nbytes=100)
    tr.record(2.0, "net.send", nbytes=50)
    tr.record(3.0, "storage.read", nbytes=10)
    assert tr.span_count == 3
    sends = tr.spans(category="net.send")
    assert sum(s.attributes["nbytes"] for s in sends) == 150
    assert [(s.start, s.end, s.parent_id) for s in sends] == [
        (1.0, 1.0, None), (2.0, 2.0, None)]
    big = [s for s in sends if s.attributes["nbytes"] > 60]
    assert len(big) == 1 and big[0].end == 1.0


def test_tracer_disabled_is_noop():
    tr = Tracer(enabled=False)
    tr.record(1.0, "x", a=1)
    assert tr.span_count == 0


def test_tracer_clear():
    tr = Tracer()
    tr.record(1.0, "x")
    tr.clear()
    assert tr.span_count == 0
    assert tr.spans() == []
