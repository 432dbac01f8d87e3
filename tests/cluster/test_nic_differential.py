"""Differential test: the self-freeing NIC link against a two-timeout oracle.

The oracle is the two-timeout NIC model: a capacity-1
:class:`~repro.sim.resources.Resource` taken with ``try_acquire`` (or
queued with ``acquire``, withdrawn with ``cancel``), held for a wire
timeout and released, then a separate propagation timeout. The link
under test schedules one timeout at ``(now + wire) + prop`` and frees
itself at ``now + wire``.

Hypothesis draws bursts of sends on one NIC (start offsets, sizes) and
interrupts some senders at drawn instants. Senders interrupted at the
same instant are interrupted in index order by one process, so a
holder and its next waiter interrupted together reach the waiter after
its grant and before it resumes. Both models must agree on every
completion time (by ``repr``), on which transfers raise, and must end
with the NIC idle and no queue.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DC_2021, Network, build_cluster
from repro.sim import Interrupt, Simulator
from repro.sim.resources import Resource

SRC, DST = "rack0-n0", "rack1-n0"
#: Grid step of offsets, sizes and interrupt instants: 50 us, the wire
#: time of ``CHUNK`` bytes at 10 Gb/s. Propagation is 105 us, so grid
#: interrupts land mid-wire, mid-propagation and on wire ends.
STEP = 50e-6
CHUNK = 62_500


def _oracle_send(sim, link, wire, prop, phase):
    """One transfer on the two-timeout model; ``phase[0]`` tracks
    where the sender is, so a test can see what an interrupt hit."""
    if not link.try_acquire():
        grant = link.acquire()
        phase[0] = "queued"
        try:
            yield grant
        except BaseException:
            if grant.triggered:
                phase[0] = "granted"
            link.cancel(grant)
            raise
    phase[0] = "wire"
    try:
        yield sim.timeout(wire)
    finally:
        link.release()
    phase[0] = "prop"
    yield sim.timeout(prop)


def _run(sends, oracle):
    """Run ``sends`` — ``(offset, chunks, interrupt_at or None)`` in grid
    steps — on one NIC. Returns (outcomes, the oracle phase each
    interrupt was caught in, link)."""
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=2,
                         gpu_nodes_per_rack=0)
    net = Network(sim, topo, DC_2021)
    prop = (DC_2021.socket_overhead
            + DC_2021.one_way(same_rack=topo.same_rack(SRC, DST)))
    link = Resource(sim, capacity=1, name="oracle-nic") if oracle \
        else net._egress_link(SRC)
    outcomes = [None] * len(sends)
    phases = [["idle"] for _ in sends]
    hit = []

    def interrupter(at, victims):
        yield sim.timeout(at * STEP)
        for i in victims:
            if procs[i].is_alive:
                procs[i].interrupt("test")

    def sender(i, offset, chunks):
        yield sim.timeout(offset * STEP)
        phases[i][0] = "started"
        try:
            if oracle:
                wire = DC_2021.wire_time(chunks * CHUNK)
                yield from _oracle_send(sim, link, wire, prop, phases[i])
            else:
                yield from net.transfer(SRC, DST, chunks * CHUNK)
        except Interrupt:
            hit.append(phases[i][0])
            outcomes[i] = ("interrupted", repr(sim.now))
            return
        outcomes[i] = ("done", repr(sim.now))

    # Interrupters first: at a shared instant they act before any
    # transfer event, identically in both models.
    by_time = defaultdict(list)
    for i, (_, _, at) in enumerate(sends):
        if at is not None:
            by_time[at].append(i)
    for at in sorted(by_time):
        sim.spawn(interrupter(at, by_time[at]))
    procs = [sim.spawn(sender(i, offset, chunks))
             for i, (offset, chunks, _) in enumerate(sends)]
    sim.run()
    return outcomes, hit, link


def _assert_same(sends):
    got, _, link = _run(sends, oracle=False)
    want, hit, oracle_link = _run(sends, oracle=True)
    assert got == want
    assert (link.in_use, link.queue_length) == (0, 0)
    assert (oracle_link.in_use, oracle_link.queue_length) == (0, 0)
    return hit


SENDS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 60),
              st.none() | st.integers(0, 160)),
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(SENDS)
def test_link_matches_two_timeout_oracle(sends):
    _assert_same(sends)


@pytest.mark.parametrize("sends, phase", [
    # A lone sender interrupted 1 ms into its 2 ms wire time.
    ([(0, 40, 20)], "wire"),
    # Interrupted 50 us after its 2 ms wire time, during propagation;
    # a second sender queued behind it is unaffected.
    ([(0, 40, 41), (1, 40, None)], "prop"),
    # The second sender is interrupted while queued; the third keeps
    # its place behind the first.
    ([(0, 40, None), (1, 40, 10), (2, 40, None)], "queued"),
    # Holder and first waiter interrupted at one instant: the holder's
    # early release grants the waiter, whose interrupt then reaches it
    # granted but not yet resumed, so it passes the link on at once.
    ([(0, 40, 10), (1, 40, 10), (2, 40, None)], "granted"),
])
def test_each_interrupt_phase_matches_the_oracle(sends, phase):
    assert phase in _assert_same(sends)
