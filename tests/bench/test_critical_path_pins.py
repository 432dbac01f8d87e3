"""Critical paths of a queued acquire, a retried attempt and a hedge.

The pinned E4 run (``test_attribution_differential.py``) covers cold
and warm invokes only. This traced run adds the three paths where the
invoke span tree nests deepest: an acquire that queues behind a
one-executor pool, an attempt that fails retriably and is retried
after a backoff, and a slow primary that launches a hedge. Every
invoke's critical-path segments and the attributor's exported state
are pinned by digest: a span that is added, removed or re-parented on
these paths may change the tree, but must never change a segment's
interval or the component it is charged to.
"""

import hashlib
import json

from repro.bench.critical_path import path_segments
from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.core.retry import RetryPolicy
from repro.faas import WASM, ExecutorLostError

#: sha256 of the sorted-key JSON of ``[segments, attributor.to_json()]``.
DIGEST = \
    "ae08c8479c2567291d16107a271c857d324b8c9623773448dcaacd0fa9f0ec21"


def _impl():
    return FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=0.5),
                        work_ops=1e6)


def _run() -> PCSICloud:
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=8, trace=True, attribution=True)
    sim = cloud.sim
    calls = {"flaky": 0, "slow": 0}

    def plain(ctx):
        yield from ctx.compute(1e6)
        return {"ok": True}

    def flaky(ctx):
        calls["flaky"] += 1
        yield from ctx.compute(1e6)
        if calls["flaky"] == 2:
            raise ExecutorLostError("planted loss")
        return {"ok": True}

    def slow(ctx):
        calls["slow"] += 1
        yield from ctx.compute(1e6)
        if calls["slow"] == 2:
            yield sim.timeout(0.5)
        return {"ok": True}

    queued = cloud.define_function("queued", [_impl()], body=plain)
    retried = cloud.define_function("retried", [_impl()], body=flaky)
    hedged = cloud.define_function("hedged", [_impl()], body=slow)
    client = cloud.client_node()

    def invoke(fn, retry=None):
        yield from cloud.invoke(client, fn, {}, {}, retry=retry)

    def flow():
        # Warm every pool first, so each path below starts warm.
        for fn in (queued, retried, hedged):
            yield from invoke(fn)
        cloud.scheduler._pools[("queued", "wasm")].max_executors = 1
        yield sim.all_of([sim.spawn(invoke(queued)),
                          sim.spawn(invoke(queued))])
        yield from invoke(retried, RetryPolicy(max_attempts=3))
        yield from invoke(hedged, RetryPolicy(hedge_delay=0.05))

    cloud.run_process(flow())
    cloud.run()
    return cloud


def test_wrapped_paths_keep_their_segments():
    cloud = _run()
    tracer = cloud.tracer
    invokes = [s for s in tracer.spans(name="invoke") if s.finished]
    segments = [[(span.name, repr(lo), repr(hi))
                 for span, lo, hi in path_segments(tracer, root)]
                for root in invokes]
    # The run reaches all three paths.
    names = {name for path in segments for name, _lo, _hi in path}
    assert {"queue.wait", "retry.backoff"} <= names
    assert tracer.spans(name="hedge")[0].attributes["hedged"] is True
    doc = [segments, cloud.attributor.to_json()]
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == DIGEST
