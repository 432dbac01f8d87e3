"""Shared fixtures for the regression-gate tests."""

import copy

import pytest

from repro.bench.regress import GATES


@pytest.fixture(scope="session")
def gate_doc():
    """``gate_doc(name)``: a fresh doc from one registered gate.

    Each gate replays at most once per session; every call returns a
    private deep copy, so a test may perturb what it gets.
    """
    gates = {gate.name: gate for gate in GATES}
    docs = {}

    def get(name):
        if name not in docs:
            docs[name] = gates[name].run(None)
        return copy.deepcopy(docs[name])

    return get
