"""Every gate claim, planted: each one fails on its own.

The committed baselines are the passing docs (every one passes against
itself), so no gate replays and the timing-dependent throughput gate is
covered too. For each claim of each gate the tests plant a violation —
a drifted pinned value, a value on and just past a bound, a tie, a
rejected flag, an absent value — and require exactly that claim to
fire. Dropping a claim fails the inventory.
"""

import copy
import json
import math

import pytest

from repro.bench.regress import (
    BASELINE_DIR,
    EVERY,
    GATES,
    Beats,
    Ceiling,
    Floor,
    FromBaseline,
    Holds,
    Pinned,
)

from .conftest import pinned_pairs

#: Gate -> (win conditions, exactly pinned (arm, field) pairs). A win
#: condition is any claim other than a ``Pinned`` with the default
#: drift message. E4's one claim is its per-layer tolerance check,
#: covered in test_regress.py.
INVENTORY = {
    "autoscale": (3, 16),
    "chaos": (4, 20),
    "attribution": (5, 12),
    "throughput": (2, 2),
    "overload": (5, 69),
    "recovery": (5, 28),
    "tail": (5, 20),
}

#: (gate, path) -> the test each Floor and Ceiling applies: ``>=`` and
#: ``<=`` pass on the bound itself, ``<`` does not.
BOUNDARIES = {
    ("autoscale", "cold_start_reduction"): ">=",
    ("chaos", "hardened.max_time_to_outcome_s"): "<=",
    ("attribution", "gap_closed"): ">=",
    ("throughput", "hot_loop_events_per_kernel"): ">=",
    ("overload", "gated_fraction_at_top"): ">=",
    ("overload", "none_fraction_at_top"): "<",
    ("overload", "jain_at_top"): ">=",
    ("recovery", "recovery_ratio"): ">=",
    ("recovery", "detection.orphaned"): ">=",
    ("recovery", "detection.goodput_retention"): ">=",
    ("recovery", "none.goodput_retention"): "<",
    ("recovery", "detection.detection_latency_max"): "<=",
    ("tail", "hedge_adaptive.launch_fraction"): "<=",
    ("tail", "sketch_rel_err"): "<=",
}

CLAIM_GATES = [gate for gate in GATES if gate.name in INVENTORY]


def _where(claim):
    if isinstance(claim, Pinned):
        arms = () if claim.arms in (None, EVERY) else claim.arms[:1]
        return ".".join(claim.within + arms + claim.fields[:1])
    return claim.winner if isinstance(claim, Beats) else claim.path


CLAIMS = [(gate, claim) for gate in CLAIM_GATES for claim in gate.claims]
CLAIM_IDS = [f"{gate.name}-{type(claim).__name__}-{_where(claim)}"
             for gate, claim in CLAIMS]
BOUNDED = [(gate, claim) for gate, claim in CLAIMS
           if isinstance(claim, (Floor, Ceiling))
           and isinstance(claim.bound, FromBaseline)]


def _baseline(gate):
    return json.loads((BASELINE_DIR / gate.baseline)
                      .read_text(encoding="utf-8"))


def _keys(path):
    return tuple(path.split(".")) if isinstance(path, str) else path


def _set(doc, path, value):
    *parents, last = _keys(path)
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _get(doc, path):
    for key in _keys(path):
        doc = doc[key]
    return doc


def _both(base, path, value):
    """Doc and baseline with ``path`` set to ``value`` in each, so a
    pinned copy of the field still agrees."""
    doc, baseline = copy.deepcopy(base), copy.deepcopy(base)
    _set(doc, path, value)
    _set(baseline, path, value)
    return doc, baseline


def _past(bound, claim):
    """The nearest value on the failing side of ``bound``."""
    up = isinstance(claim, Ceiling)
    if isinstance(bound, int):
        return bound + 1 if up else bound - 1
    return math.nextafter(bound, math.inf if up else -math.inf)


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, dict):
        return {**value, "perturbed": 0}
    return 0 if value is None else value + "x"


def _planted(claim, base):
    """``(doc, baseline, fails)`` variants of ``base`` that cross the
    claim, or land exactly on its bound."""
    if isinstance(claim, Pinned):
        for keys in claim.pairs(base, base):
            baseline = copy.deepcopy(base)
            _set(baseline, keys, _perturbed(_get(baseline, keys)))
            yield base, baseline, True
    elif isinstance(claim, (Floor, Ceiling)):
        bound = claim.bound(base, base)
        strict = isinstance(claim, Ceiling) and claim.strict
        yield (*_both(base, claim.path, bound), strict)
        yield (*_both(base, claim.path, _past(bound, claim)), True)
    elif isinstance(claim, Beats):
        yield (*_both(base, claim.winner, _get(base, claim.loser)), True)
    else:
        assert isinstance(claim, Holds), claim
        rejected = next(v for v in (False, 1, None) if not claim.test(v))
        yield (*_both(base, claim.path, rejected), True)


def _measured(claim, base):
    if isinstance(claim, Pinned):
        return claim.pairs(base, base)
    if isinstance(claim, Beats):
        return [claim.winner, claim.loser]
    return [claim.path]


def test_inventory_counts_every_claim():
    counts = {}
    for gate in CLAIM_GATES:
        base = _baseline(gate)
        pairs = pinned_pairs(gate, base)
        wins = [claim for claim in gate.claims
                if not (isinstance(claim, Pinned)
                        and claim.message == Pinned.message)]
        counts[gate.name] = (len(wins), len(pairs))
    assert counts == INVENTORY
    assert sum(wins for wins, _ in counts.values()) == 29
    assert sum(pairs for _, pairs in counts.values()) == 167
    assert [gate.name for gate in GATES if gate not in CLAIM_GATES] \
        == ["e4"]


def test_boundaries_keep_their_strictness():
    tests = {(gate.name, claim.path): ">=" if isinstance(claim, Floor)
             else "<" if claim.strict else "<="
             for gate, claim in CLAIMS
             if isinstance(claim, (Floor, Ceiling))}
    assert tests == BOUNDARIES


@pytest.mark.parametrize("gate", CLAIM_GATES, ids=lambda g: g.name)
def test_committed_baseline_passes_itself(gate):
    base = _baseline(gate)
    assert gate.compare(base, base) == []


@pytest.mark.parametrize("gate, claim", CLAIMS, ids=CLAIM_IDS)
def test_planted_violation_fails_exactly_that_claim(gate, claim):
    base = _baseline(gate)
    planted = list(_planted(claim, base))
    assert planted
    for doc, baseline, fails in planted:
        violations = gate.compare(doc, baseline)
        if fails:
            assert len(violations) == 1, violations
            assert violations == claim(gate.name, doc, baseline)
        else:
            assert violations == []


@pytest.mark.parametrize("gate, claim", CLAIMS, ids=CLAIM_IDS)
def test_missing_value_fails_its_claim(gate, claim):
    base = _baseline(gate)
    for path in _measured(claim, base):
        doc = copy.deepcopy(base)
        *parents, last = _keys(path)
        del _get(doc, parents)[last]
        violations = claim(gate.name, doc, base)
        assert len(violations) == 1, (path, violations)
        assert violations[0].endswith(": missing"), violations
        assert violations[0] in gate.compare(doc, base)


@pytest.mark.parametrize(
    "gate, claim", BOUNDED,
    ids=[f"{gate.name}-{claim.bound.key}" for gate, claim in BOUNDED])
def test_bound_defaults_to_module_constant(gate, claim):
    """A baseline without the bound falls back to the constant the run
    writes, never to a value that disables the claim."""
    base = _baseline(gate)
    assert base[claim.bound.key] == claim.bound.default
    default = claim.bound.default
    strict = isinstance(claim, Ceiling) and claim.strict
    for value, fails in ((default, strict),
                         (_past(default, claim), True)):
        doc, baseline = _both(base, claim.path, value)
        del baseline[claim.bound.key]
        violations = gate.compare(doc, baseline)
        assert len(violations) == (1 if fails else 0), (value, violations)
        assert violations == claim(gate.name, doc, baseline)
