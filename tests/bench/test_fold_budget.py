"""Python calls the attributor makes to fold one warm invoke, pinned.

A traced invoke through a non-binding gateway with attribution and
health on (the ``invoke-planes`` benchmark's cloud) finishes one
8-span tree: ``gateway.admit`` over ``invoke``, whose critical path
the attributor folds. ``observe_root`` on that tree makes one call per
walked span plus a fixed handful (the invoke's key, the vector, the
EMA update and the sketch insert). Comprehension frames are left out,
because Python 3.12 inlines them. A change that adds per-span or
per-invoke work to the fold fails here.
"""

import sys
from collections import Counter

from repro.cluster import cpu_task
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM
from repro.net import GatewayConfig

#: Calls per fold: ``observe_root``, ``observe_invoke``, the node
#: class, ``decompose``, ``path_segments``, 7 ``_walk`` frames (the
#: invoke and its 6 descendants), ``update`` and the sketch insert.
#: (The fold made 58 before the walk read child lists in place and the
#: EMA steps were written out.)
FOLD_CALLS = 14

COMPREHENSIONS = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>",
                            "<genexpr>"))


def _body(ctx):
    yield from ctx.compute(1e6)
    return {"ok": True}


def _warm_planes_tree():
    never_binding = GatewayConfig(rate_per_tenant=1e9, burst=1e9,
                                  max_concurrency=64, max_queue=256)
    cloud = PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                      seed=3, trace=True, attribution=True, health=True,
                      admission=never_binding)
    fn = cloud.define_function(
        "budget", [FunctionImpl("wasm", WASM,
                                cpu_task(cpus=1, memory_gb=0.5),
                                work_ops=1e6)],
        body=_body)
    client = cloud.client_node()

    def flow():
        yield from cloud.gateway.submit(client, fn, None, {}, tenant="t")

    cloud.run_process(flow())  # cold
    cloud.run_process(flow())  # warm
    return cloud, cloud.tracer.roots()[-1]


def test_one_warm_fold_makes_a_fixed_number_of_calls():
    cloud, root = _warm_planes_tree()
    assert len(list(cloud.tracer.walk(root))) == 8
    att = cloud.attributor
    before = att.observed_invokes
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name not in COMPREHENSIONS:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        att.observe_root(root)
    finally:
        sys.setprofile(None)
    assert att.observed_invokes == before + 1
    assert sum(calls.values()) <= FOLD_CALLS, calls
