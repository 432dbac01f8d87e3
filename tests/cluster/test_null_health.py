"""The no-op health plane: one invoke path whether or not health is on.

A cloud built without a health plane holds ``NO_HEALTH``; the
scheduler, placement, warm pools, and gateway call the very hooks a
real :class:`HealthPlane` answers. These tests pin that the null plane
offers every hook with the real plane's signature, that its answers
change nothing, and that the hooks really run on a health-off invoke
(so no ``health is None`` fork can creep back in unnoticed).
"""

import inspect

from repro.cluster.health import NO_HEALTH, HealthPlane, NoHealth
from repro.cluster.resources import cpu_task
from repro.core.functions import FunctionImpl
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import WASM
from repro.net.gateway import GatewayConfig

#: The hooks the invoke path calls on whatever plane is installed.
HOOKS = ("avoid", "allow_dispatch", "dispatch_allowed",
         "all_breakers_open", "idempotency_key", "run_body",
         "forget_invoke")


def test_null_plane_offers_every_hook_with_the_real_signature():
    for name in HOOKS:
        real = inspect.signature(getattr(HealthPlane, name))
        null = inspect.signature(getattr(NoHealth, name))
        assert list(null.parameters) == list(real.parameters), name


def test_null_plane_answers_carry_on():
    assert NO_HEALTH.avoid("n0") is False
    assert NO_HEALTH.allow_dispatch("fn", "n0") is True
    assert NO_HEALTH.dispatch_allowed("fn") is True
    assert NO_HEALTH.all_breakers_open("fn") is False
    assert NO_HEALTH.idempotency_key("fn") is None
    assert NO_HEALTH.forget_invoke(None) is None


def test_null_plane_runs_the_body_generator_itself():
    """No wrapper generator: the body's own generator comes back, so
    the health-off path adds no frame to every resumption."""
    made = []

    def body(ctx):
        yield ctx
        return "done"

    def spy(ctx):
        gen = body(ctx)
        made.append(gen)
        return gen

    gen = NO_HEALTH.run_body("fn", spy, "ctx", None, None)
    assert gen is made[0]
    assert next(gen) == "ctx"


class RecordingPlane(NoHealth):
    """The null plane, counting every hook call."""

    def __init__(self):
        self.calls = {name: 0 for name in HOOKS}

    def __getattribute__(self, name):
        if name in HOOKS:
            object.__getattribute__(self, "calls")[name] += 1
        return object.__getattribute__(self, name)


def test_health_off_invokes_go_through_the_plane_hooks():
    """Every layer consults the installed plane on a health-off cloud:
    placement and the warm pool ask ``avoid``, the request path asks
    ``idempotency_key`` and calls ``forget_invoke`` once on exit, the
    attempt asks ``allow_dispatch`` and runs the body through
    ``run_body``, and the gateway asks ``all_breakers_open``."""
    cloud = PCSICloud(racks=1, nodes_per_rack=2, gpu_nodes_per_rack=0,
                      data_replicas=1,
                      admission=GatewayConfig(rate_per_tenant=1e6,
                                              burst=1e6))
    plane = RecordingPlane()
    cloud.health = plane
    cloud.policy.health = plane
    fn = cloud.define_function(
        "f", [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                           work_ops=1e8)])
    client = cloud.client_node()

    def flow():
        yield from cloud.gateway.submit(client, fn, tenant="t")
        yield from cloud.invoke(client, fn, deadline=5.0,
                                retry=RetryPolicy(max_attempts=2))

    cloud.run_process(flow())
    for name in ("avoid", "allow_dispatch", "all_breakers_open",
                 "idempotency_key", "run_body", "forget_invoke"):
        assert plane.calls[name] >= 1, name
    assert plane.calls["run_body"] == 2
    # Two request paths (the gateway submit and the direct invoke):
    # each asks for its key once and forgets it once on exit.
    assert plane.calls["idempotency_key"] == 2
    assert plane.calls["forget_invoke"] == 2
