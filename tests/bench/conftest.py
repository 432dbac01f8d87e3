"""Shared fixtures for the regression-gate tests."""

import copy

import pytest

from repro.bench.regress import GATES, Pinned

#: Gate name -> registered gate.
GATE = {gate.name: gate for gate in GATES}


def pinned_pairs(gate, doc):
    """Key path of every (arm, field) pair ``gate`` pins exactly: the
    pairs of its ``Pinned`` claims that carry the default drift message
    (a ``Pinned`` with its own message is a win condition)."""
    return [keys for claim in gate.claims
            if isinstance(claim, Pinned) and claim.message == Pinned.message
            for keys in claim.pairs(doc, doc)]


@pytest.fixture(scope="session")
def gate_doc():
    """``gate_doc(name)``: a fresh doc from one registered gate.

    Each gate replays at most once per session; every call returns a
    private deep copy, so a test may perturb what it gets.
    """
    docs = {}

    def get(name):
        if name not in docs:
            docs[name] = GATE[name].run(None)
        return copy.deepcopy(docs[name])

    return get
