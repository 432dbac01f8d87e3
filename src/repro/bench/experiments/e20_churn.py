"""E20 (extension) — §3.1's "no implicit state" under machine churn.

Because PCSI functions carry no state beyond an invocation, the
scheduler may re-run failed invocations anywhere, transparently. This
experiment drives steady traffic through a cluster where machines
crash and recover continuously, comparing a client that opts into
retries with one that does not: the success-rate gap is the measured
value of stateless retryability, and the latency of retried requests
shows its cost.
"""

from __future__ import annotations

from typing import Generator

from ...cluster.failures import FailureInjector
from ...cluster.resources import cpu_task
from ...core.functions import FunctionImpl
from ...core.retry import RetryPolicy
from ...core.system import PCSICloud
from ...faas.platforms import WASM
from ...sim.rng import RandomStream
from ...workloads.arrivals import LoadDriver, constant_rate
from ..result import ExperimentResult
from ..tables import fmt_ms

RATE = 10.0
HORIZON = 30.0
WORK_OPS = 1e10          # ~280 ms per invocation: a fat crash target
CRASH_EVERY = 3.0        # one machine dies every 3 s
DOWN_FOR = 4.0


def _run(max_attempts: int) -> dict:
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=0,
                      seed=201, keep_alive=600.0)
    client = cloud.client_node()
    cloud.scheduler.control_node = client  # keep the control plane up
    fn = cloud.define_function(
        "worker", [FunctionImpl("wasm", WASM,
                                cpu_task(cpus=1, memory_gb=1),
                                work_ops=WORK_OPS)])
    # Churn: rotate crashes across the first half of the cluster,
    # sparing the client/control node and the data replicas.
    protected = set(cloud.data.store.replica_nodes) | {client}
    victims = [n.node_id for n in cloud.topology.nodes
               if n.node_id not in protected][:10]
    injector = FailureInjector(cloud.sim, cloud.topology, cloud.network)
    t = 1.0
    i = 0
    while t < HORIZON:
        injector.crash_node(victims[i % len(victims)], at=t,
                            recover_at=t + DOWN_FOR)
        t += CRASH_EVERY
        i += 1

    driver = LoadDriver(cloud.sim, RandomStream(201, f"churn-{max_attempts}"),
                        constant_rate(RATE), horizon=HORIZON)

    retry = RetryPolicy(max_attempts=max_attempts)

    def handler(idx: int) -> Generator:
        yield from cloud.invoke(client, fn, retry=retry)

    driver.start(handler)
    cloud.run()
    return {
        "attempts": max_attempts,
        "offered": driver.offered,
        "completed": driver.completed,
        "failed": driver.failed,
        "success_rate": driver.completed / max(driver.offered, 1),
        "p50": driver.latencies.p50,
        "p99": driver.latencies.p99,
        "retries": cloud.metrics.counter("invoke.retries").value,
    }


def run_churn() -> ExperimentResult:
    """Regenerate the churn-reliability comparison."""
    no_retry = _run(max_attempts=1)
    with_retry = _run(max_attempts=5)

    rows = []
    for label, r in (("no retries", no_retry),
                     ("retries (5 attempts)", with_retry)):
        rows.append((label, r["offered"], r["failed"],
                     f"{r['success_rate']:.1%}", fmt_ms(r["p50"]),
                     fmt_ms(r["p99"]), int(r["retries"])))
    return ExperimentResult(
        experiment_id="E20",
        title=f"Machine churn (one crash per {CRASH_EVERY:.0f}s): "
              "invocation reliability",
        headers=("Client", "Offered", "Failed", "Success", "p50", "p99",
                 "Retries"),
        rows=rows,
        claims={
            "no_retry_failures": no_retry["failed"],
            "retry_failures": with_retry["failed"],
            "no_retry_success": no_retry["success_rate"],
            "retry_success": with_retry["success_rate"],
            "retry_p99_s": with_retry["p99"],
            "retries_used": with_retry["retries"],
        },
        notes=[
            "Re-execution is safe because functions hold no implicit "
            "state, so the retrying client converts machine crashes "
            "into tail latency instead of failures.",
        ])
