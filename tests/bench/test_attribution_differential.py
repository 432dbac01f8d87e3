"""The attributor's per-invoke fold equals the offline critical path.

:meth:`LatencyAttributor.decompose` sums the critical-path walk's
segment tuples straight into the component vector. For every invoke
span of the pinned E4 run and of the tail-gate run it must equal the
per-component sum over ``critical_path(tracer, span).segments``, bit
for bit, and the attributors' exported state must reproduce the
digests pinned from the report-building fold it replaced.
"""

import hashlib
import json

import pytest

from repro.bench import regress
from repro.bench.attribution import COMPONENTS, LatencyAttributor, \
    component_of
from repro.bench.critical_path import critical_path
from repro.bench.experiments import e26_tail
from repro.core.system import PCSICloud

#: sha256 of ``LatencyAttributor.to_json()`` (sorted-key JSON) after
#: replaying every root of the pinned E4 run, taken with the fold that
#: built a CriticalPathReport per invoke.
E4_ATTRIBUTION_DIGEST = \
    "0b10fdf039d5b85df0542f6d736e28f042c8ecde6841dbe63ba447abe2bc816a"
#: The same over the list of the four tail-gate arms' attributors.
TAIL_ATTRIBUTION_DIGEST = \
    "0bca790b5e8837a6a6e8b3307a864cd95a5dc4f127ec926aa61fe7da5d3c7e3e"


def _digest(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _report_vector(tracer, span):
    """The per-component sum over the offline report's segments."""
    vector = {comp: 0.0 for comp in COMPONENTS}
    for seg in critical_path(tracer, span).segments:
        vector[component_of(seg.span.name)] += seg.contribution
    return vector


def _assert_fold_matches_reports(attributor):
    invokes = [s for s in attributor.tracer.spans(name="invoke")
               if s.finished]
    assert invokes
    for span in invokes:
        # Dict equality on floats: exact, not approx.
        assert attributor.decompose(span) == _report_vector(
            attributor.tracer, span)


def test_pinned_e4_fold_matches_reports_and_digest():
    cloud, _, _ = regress.run_pinned_e4()
    attributor = LatencyAttributor(cloud.tracer)
    for root in cloud.tracer.roots():
        attributor.observe_root(root)
    assert attributor.observed_invokes > 0
    _assert_fold_matches_reports(attributor)
    assert _digest(attributor.to_json()) == E4_ATTRIBUTION_DIGEST


@pytest.fixture
def tail_clouds(monkeypatch):
    clouds = []
    init = PCSICloud.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        clouds.append(self)

    monkeypatch.setattr(PCSICloud, "__init__", capturing_init)
    e26_tail.run_tail_arms()
    return clouds


def test_tail_gate_fold_matches_reports_and_digest(tail_clouds):
    attributors = [cloud.attributor for cloud in tail_clouds]
    assert len(attributors) == 4 and all(attributors)
    for attributor in attributors:
        _assert_fold_matches_reports(attributor)
    assert _digest([a.to_json() for a in attributors]) \
        == TAIL_ATTRIBUTION_DIGEST
