"""Unit tests for the health plane's mechanisms.

The circuit breaker gets a hypothesis *state-machine* test: random
interleavings of allow/success/failure calls with advancing clocks
must never violate the breaker contract — an open breaker admits
nothing before its cool-off, half-open admits exactly the probe
quota, and a replay of the same call sequence produces the identical
transition log (seeded determinism).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster.health import (
    CLOSED,
    DEAD,
    HALF_OPEN,
    HEALTHY,
    OPEN,
    SUSPECT,
    BreakerBoard,
    CircuitBreaker,
    CompletionLog,
    DispatchLedger,
    HealthConfig,
    OutlierEjector,
    PhiAccrualDetector,
    _MISSING,
)
from repro.sim.engine import Interrupt, Simulator
from repro.sim.rng import RandomStream


def make_breaker(seed=0, **overrides) -> CircuitBreaker:
    config = HealthConfig(seed=seed, **overrides)
    return CircuitBreaker("fn", "cpu",  config,
                          RandomStream(seed, "breaker-test"))


# -- config validation ----------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(heartbeat_interval=0.0),
    dict(phi_suspect=0.0),
    dict(phi_suspect=3.0, phi_confirm=2.0),
    dict(breaker_consecutive=0),
    dict(breaker_probe_quota=0),
    dict(breaker_error_rate=0.0),
    dict(breaker_error_rate=1.5),
    dict(breaker_min_requests=99, breaker_window=16),
    dict(breaker_open_duration=0.0),
    dict(breaker_jitter=1.0),
    dict(eject_deviation=1.0),
    dict(eject_consecutive_failures=0),
    dict(max_eject_fraction=1.0),
    dict(probation=0.0),
    dict(latency_alpha=0.0),
    dict(max_recoveries=-1),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        HealthConfig(**bad)


# -- phi-accrual detector -------------------------------------------------

def test_detector_suspects_then_confirms_on_silence():
    config = HealthConfig(heartbeat_interval=0.2,
                          phi_suspect=1.0, phi_confirm=2.0)
    det = PhiAccrualDetector(config)
    for i in range(5):
        det.beat("n0", 0.2 * (i + 1))
    assert det.state("n0") == HEALTHY
    assert det.phi("n0", 1.0) == 0.0
    # Silence: phi grows linearly with elapsed/mean.
    assert det.evaluate("n0", 1.2) is None           # phi ~0.43
    assert det.evaluate("n0", 1.5) == "suspect"      # phi ~1.09
    assert det.state("n0") == SUSPECT
    assert det.evaluate("n0", 2.0) == "confirm"      # phi ~2.17
    assert det.state("n0") == DEAD
    assert det.confirmations == [("n0", 2.0, "phi-accrual")]


def test_detector_hard_confirm_and_single_fire():
    fired = []
    det = PhiAccrualDetector(HealthConfig(),
                             on_confirm=lambda n, c: fired.append((n, c)))
    det.beat("n0", 0.2)
    assert det.confirm("n0", 0.5, "executor-lost")
    assert fired == [("n0", "executor-lost")]
    # Idempotent: a dead node cannot be re-confirmed.
    assert not det.confirm("n0", 0.6, "executor-lost")
    assert det.evaluate("n0", 99.0) is None
    assert fired == [("n0", "executor-lost")]


def test_detector_reinstates_on_resumed_beats():
    det = PhiAccrualDetector(HealthConfig())
    det.beat("n0", 0.2)
    det.confirm("n0", 0.5, "executor-lost")
    assert det.state("n0") == DEAD
    assert det.beat("n0", 3.0) is True   # rejoin
    assert det.state("n0") == HEALTHY
    assert det.reinstatements == [("n0", 3.0)]
    # Eligible for a fresh confirmation after reinstatement.
    assert det.confirm("n0", 4.0, "executor-lost")


def test_detector_rebase_resets_phi_without_polluting_mean():
    det = PhiAccrualDetector(HealthConfig(interval_alpha=1.0))
    det.beat("n0", 0.2)
    det.beat("n0", 0.4)
    mean = det._entry("n0").mean_interval
    det.rebase("n0", 10.0)
    assert det.phi("n0", 10.0) == 0.0
    assert det._entry("n0").mean_interval == mean


# -- circuit breaker: directed cases --------------------------------------

def test_breaker_opens_on_consecutive_failures():
    b = make_breaker(breaker_consecutive=3)
    for t in (0.1, 0.2):
        b.record_failure(t)
        assert b.state == CLOSED
    b.record_failure(0.3)
    assert b.state == OPEN
    assert not b.allow(0.4)


def test_breaker_opens_on_windowed_error_rate():
    b = make_breaker(breaker_consecutive=100, breaker_window=8,
                     breaker_min_requests=8, breaker_error_rate=0.5)
    # Alternate success/failure: never consecutive, but the window
    # reaches 8 outcomes at 50% failure.
    for i in range(8):
        if i % 2:
            b.record_failure(0.1 * i)
        else:
            b.record_success(0.1 * i)
    assert b.state == OPEN


def test_breaker_half_open_admits_exactly_the_probe_quota():
    b = make_breaker(breaker_consecutive=1, breaker_probe_quota=3,
                     breaker_open_duration=1.0, breaker_jitter=0.0)
    b.record_failure(0.0)
    assert b.state == OPEN
    assert not b.allow(0.5)
    admitted = [b.allow(1.5) for _ in range(5)]
    assert b.state == HALF_OPEN
    assert admitted == [True, True, True, False, False]


def test_breaker_closes_only_after_full_probe_success():
    b = make_breaker(breaker_consecutive=1, breaker_probe_quota=2,
                     breaker_open_duration=1.0, breaker_jitter=0.0)
    b.record_failure(0.0)
    assert b.allow(1.1)
    b.record_success(1.2)
    assert b.state == HALF_OPEN    # one probe is not enough
    assert b.allow(1.3)
    b.record_success(1.4)
    assert b.state == CLOSED


def test_breaker_failed_probe_reopens():
    b = make_breaker(breaker_consecutive=1, breaker_probe_quota=2,
                     breaker_open_duration=1.0, breaker_jitter=0.0)
    b.record_failure(0.0)
    assert b.allow(1.1)
    b.record_failure(1.2)
    assert b.state == OPEN
    assert not b.allow(1.5)        # a fresh cool-off started at 1.2


def test_board_all_open_requires_existing_breakers():
    config = HealthConfig(breaker_consecutive=1, breaker_jitter=0.0)
    board = BreakerBoard(config, RandomStream(0, "t"))
    assert not board.all_open("fn", 0.0)   # no traffic -> admit
    board.record("fn", "cpu", False, 0.0)
    assert board.all_open("fn", 0.5)
    board.record("fn", "gpu", True, 0.6)   # a healthy class appears
    assert not board.all_open("fn", 0.7)


# -- circuit breaker: hypothesis state machine ----------------------------

class BreakerMachine(RuleBasedStateMachine):
    """Random walks over the breaker API with a shadow model.

    Checks on every step: (1) an OPEN breaker admits nothing before
    its cool-off can elapse, (2) HALF_OPEN admits exactly the probe
    quota, (3) replaying the recorded call sequence against a fresh
    same-seeded breaker reproduces the transition log bit for bit.
    """

    @initialize(seed=st.integers(0, 2 ** 16))
    def setup(self, seed):
        self.seed = seed
        self.b = self._fresh()
        self.now = 0.0
        self.calls = []
        self.probes_admitted = 0

    def _fresh(self):
        return make_breaker(seed=self.seed, breaker_consecutive=3,
                            breaker_window=8, breaker_min_requests=4,
                            breaker_error_rate=0.5,
                            breaker_open_duration=1.0,
                            breaker_probe_quota=2, breaker_jitter=0.1)

    @rule(dt=st.floats(0.0, 0.6))
    def advance(self, dt):
        self.now += dt
        self.calls.append(("advance", dt))

    @rule()
    def dispatch(self):
        before = self.b.state
        admitted = self.b.allow(self.now)
        self.calls.append(("allow", None))
        if before == OPEN and self.now < self.b._reopen_at:
            assert not admitted, "open breaker admitted before cool-off"
        if before == HALF_OPEN:
            self.probes_admitted += int(admitted)
        elif self.b.state == HALF_OPEN:
            self.probes_admitted = int(admitted)  # transitioned just now
        if self.b.state == HALF_OPEN:
            assert self.probes_admitted \
                <= self.b.config.breaker_probe_quota

    @rule(ok=st.booleans())
    def outcome(self, ok):
        if self.b.state == HALF_OPEN and not ok:
            self.probes_admitted = 0   # reopen resets probation
        if ok:
            self.b.record_success(self.now)
        else:
            self.b.record_failure(self.now)
        if self.b.state == CLOSED:
            self.probes_admitted = 0
        self.calls.append(("success" if ok else "failure", None))

    @invariant()
    def replay_is_deterministic(self):
        fresh = self._fresh()
        t = 0.0
        for call, arg in self.calls:
            if call == "advance":
                t += arg
            elif call == "allow":
                fresh.allow(t)
            elif call == "success":
                fresh.record_success(t)
            else:
                fresh.record_failure(t)
        assert fresh.transitions == self.b.transitions
        assert fresh.state == self.b.state


BreakerMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestBreakerStateMachine = BreakerMachine.TestCase


# -- outlier ejector ------------------------------------------------------

def _feed(ej, node, latency, n):
    for _ in range(n):
        ej.observe(node, "cpu", latency)


def test_ejector_quarantines_outlier_and_reinstates():
    config = HealthConfig(eject_min_samples=3, eject_deviation=2.0,
                          max_eject_fraction=0.34, probation=5.0,
                          latency_alpha=1.0)
    ej = OutlierEjector(config)
    for node in ("n0", "n1", "n2"):
        _feed(ej, node, 0.1, 3)
    _feed(ej, "n3", 0.5, 3)       # 5x the peer median
    ej.evaluate(10.0)
    assert ej.is_quarantined("n3")
    assert not any(ej.is_quarantined(n) for n in ("n0", "n1", "n2"))
    # Probation served: reinstated with fresh statistics.
    ej.evaluate(15.0)
    assert not ej.is_quarantined("n3")
    assert ej.reinstatements == [("n3", 15.0)]
    assert not any(node == "n3" for node, _fn in ej._count)


def test_ejector_respects_fraction_cap():
    # 6 members at fraction 0.25 -> cap = int(1.5) = 1: with two
    # equally bad outliers, only one may be quarantined at a time.
    config = HealthConfig(eject_min_samples=2, eject_deviation=2.0,
                          max_eject_fraction=0.25, latency_alpha=1.0)
    ej = OutlierEjector(config)
    for node in ("n0", "n1", "n2", "n3"):
        _feed(ej, node, 0.1, 2)
    for node in ("n4", "n5"):
        _feed(ej, node, 1.0, 2)
    ej.evaluate(1.0)
    assert sum(ej.is_quarantined(n) for n in ("n4", "n5")) == 1
    ej.evaluate(1.1)   # cap still holds while the first serves probation
    assert sum(ej.is_quarantined(n) for n in ("n4", "n5")) == 1
    assert not any(ej.is_quarantined(n)
                   for n in ("n0", "n1", "n2", "n3"))


def test_ejector_reinstate_lifts_quarantine_early():
    # A confirmed-crash rejoin clears the quarantine before probation
    # would have: the old incarnation's gray evidence is void.
    config = HealthConfig(eject_min_samples=3, eject_deviation=2.0,
                          max_eject_fraction=0.34, probation=5.0,
                          latency_alpha=1.0)
    ej = OutlierEjector(config)
    for node in ("n0", "n1", "n2"):
        _feed(ej, node, 0.1, 3)
    _feed(ej, "n3", 0.5, 3)
    ej.evaluate(10.0)
    assert ej.is_quarantined("n3")
    ej.reinstate("n3", 11.0)                 # rebooted, way before 15.0
    assert not ej.is_quarantined("n3")
    assert ej.reinstatements == [("n3", 11.0)]
    assert not any(node == "n3" for node, _fn in ej._count)
    ej.reinstate("n3", 12.0)                 # idempotent
    assert ej.reinstatements == [("n3", 11.0)]


def test_ejector_groups_latency_by_function():
    # A node hosting a long-running function is not an outlier: its
    # per-function EMAs match its peers', even though a cross-function
    # average would look several times slower than peers serving only
    # the short function.
    config = HealthConfig(eject_min_samples=2, eject_deviation=2.0,
                          max_eject_fraction=0.5, latency_alpha=1.0)
    ej = OutlierEjector(config)
    for node in ("n0", "n1", "n2", "n3"):
        for _ in range(3):
            ej.observe(node, "cpu", 0.2, fn="front")
    for node in ("n2", "n3"):
        for _ in range(3):
            ej.observe(node, "cpu", 2.2, fn="batch")
    ej.evaluate(1.0)
    assert ej.quarantined_count() == 0
    # A genuine outlier within one function's peer group still ejects.
    for _ in range(3):
        ej.observe("n1", "cpu", 1.0, fn="front")
    ej.evaluate(2.0)
    assert ej.is_quarantined("n1")
    assert ej.quarantined_count() == 1


def test_ejector_ejects_on_consecutive_failures():
    """The failure mode needs no latency samples at all: a run of
    failures on one node quarantines it even though it never produced
    a single success to measure."""
    config = HealthConfig(eject_consecutive_failures=4)
    ej = OutlierEjector(config)
    for node in ("n0", "n1", "n2", "n3", "n4"):
        ej.record_result(node, "cpu", True)
    for _ in range(4):
        ej.record_result("n4", "cpu", False)
    ej.evaluate(1.0)
    assert ej.is_quarantined("n4")
    (node, at, reason, _, _), = ej.ejections
    assert node == "n4" and reason == "failures"


def test_ejector_success_resets_the_failure_run():
    config = HealthConfig(eject_consecutive_failures=3)
    ej = OutlierEjector(config)
    for node in ("n0", "n1", "n2", "n3"):
        ej.record_result(node, "cpu", True)
    for _ in range(2):
        ej.record_result("n3", "cpu", False)
    ej.record_result("n3", "cpu", True)    # run broken
    ej.record_result("n3", "cpu", False)
    ej.evaluate(1.0)
    assert not ej.is_quarantined("n3")


def test_ejector_failure_mode_respects_cap():
    config = HealthConfig(eject_consecutive_failures=2,
                          max_eject_fraction=0.25)
    ej = OutlierEjector(config)
    for node in ("n0", "n1", "n2", "n3"):   # cap = int(0.25 * 4) = 1
        ej.record_result(node, "cpu", True)
    for node in ("n2", "n3"):
        ej.record_result(node, "cpu", False)
        ej.record_result(node, "cpu", False)
    ej.evaluate(1.0)
    assert sum(ej.is_quarantined(n) for n in ("n2", "n3")) == 1


def test_ejector_needs_min_samples_and_peers():
    config = HealthConfig(eject_min_samples=5, eject_deviation=2.0,
                          latency_alpha=1.0)
    ej = OutlierEjector(config)
    _feed(ej, "n0", 1.0, 4)       # below min_samples
    _feed(ej, "n1", 0.1, 5)       # only one ripe node: no peer median
    ej.evaluate(1.0)
    assert not ej.is_quarantined("n0")
    assert not ej.is_quarantined("n1")


# -- dispatch ledger + completion log -------------------------------------

def test_ledger_orphans_only_the_dead_nodes_entries():
    sim = Simulator()
    ledger = DispatchLedger(sim)
    entries, interrupts = {}, {}

    def dispatch(key, node_id):
        entries[key] = ledger.register(key, node_id)
        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            interrupts[key] = (sim.now, exc.cause)

    for key, node_id in (("k1", "n0"), ("k2", "n0"), ("k3", "n1")):
        sim.spawn(dispatch(key, node_id))
    sim.run(until=1.0)
    a, b, c = entries["k1"], entries["k2"], entries["k3"]
    assert a.process is not b.process
    ledger.settle(a)              # finished before the crash
    assert ledger.total_in_flight() == 2
    assert ledger.orphan_node("n0", "executor-lost") == 1
    assert b.settled and b.cause == "executor-lost"
    assert a.cause is None and c.cause is None and not c.settled
    assert ledger.in_flight("n1") == 1
    assert ledger.orphaned_total == 1
    sim.run(until=2.0)
    # Only the orphaned entry's process was interrupted, at once, with
    # its entry as the cause.
    assert interrupts == {"k2": (1.0, b)}


def test_ledger_settle_is_idempotent():
    sim = Simulator()
    ledger = DispatchLedger(sim)
    a = ledger.register("k1", "n0")
    ledger.settle(a)
    ledger.settle(a)
    assert ledger.total_in_flight() == 0
    assert ledger.orphan_node("n0", "x") == 0


def test_completion_log_dedups_first_result():
    log = CompletionLog()
    assert log.lookup("k") is _MISSING
    log.record("k", 41)
    log.record("k", 42)           # second write loses: first completion wins
    assert log.lookup("k") == 41
    assert "k" in log
