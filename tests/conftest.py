"""Fixtures shared by the whole suite."""

import pytest

from repro.bench.attribution import NO_ATTRIBUTION


def _no_attribution_state():
    return dict(vars(NO_ATTRIBUTION), _stats=dict(NO_ATTRIBUTION._stats))


_PRISTINE = _no_attribution_state()


@pytest.fixture(autouse=True)
def no_attribution_stays_unfed():
    """``NO_ATTRIBUTION`` is one attributor shared by every
    attribution-off cloud in the process: a test that feeds or
    re-configures it would leak into every later test, so the test
    that does so fails here."""
    yield
    assert NO_ATTRIBUTION.observed_invokes == 0
    assert not NO_ATTRIBUTION._stats
    assert _no_attribution_state() == _PRISTINE
