"""Tests for the baseline systems."""

import pytest

from repro.baselines import (
    MonolithicServer,
    PipelineStageSpec,
    ProvisionedDeployment,
    SiloedFaaS,
    SSIFileSystem,
    WebServiceChain,
)
from repro.cluster import (
    DC_2021,
    FailureInjector,
    Network,
    build_cluster,
    cpu_task,
)
from repro.cost import CostMeter
from repro.faas import CONTAINER
from repro.net import SizedPayload
from repro.sim import HOUR, MS, Simulator
from repro.storage import ManagedKVService


def make_env(racks=2, nodes_per_rack=4):
    sim = Simulator()
    topo = build_cluster(sim, racks=racks, nodes_per_rack=nodes_per_rack,
                         gpu_nodes_per_rack=1)
    net = Network(sim, topo, DC_2021)
    return sim, topo, net


def run(sim, gen):
    return sim.run_until_event(sim.spawn(gen))


# ----------------------------------------------------------------- monolith
def test_monolith_pipeline_latency_composition():
    sim, topo, net = make_env()
    stages = [PipelineStageSpec("a", "cpu", 5e8, 1024),
              PipelineStageSpec("b", "gpu", 5e10, 1024)]
    srv = MonolithicServer(sim, net, "rack0-n0", stages)

    def flow():
        latency, nbytes = yield from srv.handle("rack1-n0", 2048)
        return latency, nbytes

    latency, nbytes = run(sim, flow())
    assert nbytes == 1024
    # cpu: 5e8/5e10 = 10ms; gpu: 5e10/1e12 = 50ms; plus transfers.
    assert latency > 60 * MS
    assert latency < 70 * MS


def test_monolith_requires_devices():
    sim, topo, net = make_env()
    with pytest.raises(ValueError):
        MonolithicServer(sim, net, "rack0-n1",  # CPU-only node
                         [PipelineStageSpec("gpu-stage", "gpu", 1e9, 10)])


def test_monolith_stage_validation():
    with pytest.raises(ValueError):
        PipelineStageSpec("bad", "cpu", -1, 0)


def test_monolith_bills_around_the_clock():
    sim, topo, net = make_env()
    meter = CostMeter()
    srv = MonolithicServer(sim, net, "rack0-n0",
                           [PipelineStageSpec("a", "cpu", 1e8, 10)],
                           meter=meter)

    def flow():
        yield sim.timeout(2 * HOUR)  # zero requests
        srv.settle_costs()

    run(sim, flow())
    assert meter.usd("provisioned.gpu") == pytest.approx(6.0)  # 2h @ $3


def test_monolith_concurrency_queues():
    sim, topo, net = make_env()
    srv = MonolithicServer(sim, net, "rack0-n0",
                           [PipelineStageSpec("a", "cpu", 5e9, 10)],
                           concurrency=1)
    done = []

    def client(tag):
        latency, _ = yield from srv.handle("rack1-n0", 100)
        done.append((tag, latency))

    sim.spawn(client("a"))
    sim.spawn(client("b"))
    sim.run()
    assert done[1][1] > done[0][1]  # second request queued


# ---------------------------------------------------------------------- SSI
def test_ssi_reads_hide_location():
    sim, topo, net = make_env()
    fs = SSIFileSystem(sim, net)
    fs.place_file("/data/a", "rack0-n1", 4096)

    def flow():
        nbytes = yield from fs.read("rack1-n0", "/data/a")
        return nbytes

    assert run(sim, flow()) == 4096


def test_ssi_missing_file():
    from repro.storage import KeyNotFoundError
    sim, topo, net = make_env()
    fs = SSIFileSystem(sim, net)

    def flow():
        yield from fs.read("rack1-n0", "/ghost")

    with pytest.raises(KeyNotFoundError):
        run(sim, flow())


def test_ssi_client_hangs_on_partition_then_resumes():
    """The §2.2 pathology: the POSIX client blocks with no error while
    the backing node is unreachable, and silently resumes on heal."""
    sim, topo, net = make_env()
    fs = SSIFileSystem(sim, net)
    fs.place_file("/data/a", "rack0-n1", 1024)
    inj = FailureInjector(sim, topo, net)
    inj.partition({"rack0-n1"}, {"rack1-n0"}, at=0.0, heal_at=45.0)
    completions = []

    def client():
        yield from fs.read("rack1-n0", "/data/a")
        completions.append(sim.now)

    sim.spawn(client())
    sim.run(until=44.0)
    assert completions == []  # still hung, no exception surfaced
    sim.run()
    assert len(completions) == 1 and completions[0] >= 45.0


def test_ssi_write_roundtrip():
    sim, topo, net = make_env()
    fs = SSIFileSystem(sim, net)
    fs.place_file("/f", "rack0-n1", 100)

    def flow():
        yield from fs.write("rack1-n0", "/f", 5000)
        return (yield from fs.read("rack1-n0", "/f"))

    assert run(sim, flow()) == 5000


# ----------------------------------------------------------------------- k8s
def test_deployment_reserves_capacity_upfront():
    sim, topo, net = make_env()
    dep = ProvisionedDeployment(sim, net, ["rack0-n1", "rack0-n2"],
                                service_time=10 * MS,
                                resources=cpu_task(cpus=8, memory_gb=8))
    assert topo.node("rack0-n1").allocated.cpus == 8
    assert topo.node("rack0-n2").allocated.cpus == 8


def test_deployment_round_robin_and_latency():
    sim, topo, net = make_env()
    dep = ProvisionedDeployment(sim, net, ["rack0-n1", "rack0-n2"],
                                service_time=10 * MS,
                                resources=cpu_task())

    def flow():
        lat = []
        for _ in range(4):
            lat.append((yield from dep.handle("rack1-n0")))
        return lat

    lats = run(sim, flow())
    assert all(10 * MS < latency < 15 * MS for latency in lats)
    assert dep.replicas[0].served == 2
    assert dep.replicas[1].served == 2


def test_deployment_queues_when_saturated():
    sim, topo, net = make_env()
    dep = ProvisionedDeployment(sim, net, ["rack0-n1"],
                                service_time=100 * MS,
                                resources=cpu_task(),
                                concurrency_per_replica=1)
    lats = []

    def client():
        lats.append((yield from dep.handle("rack1-n0")))

    for _ in range(3):
        sim.spawn(client())
    sim.run()
    assert lats[2] > 2 * lats[0] * 0.9  # head-of-line queueing


def test_deployment_idle_cost_accrues():
    sim, topo, net = make_env()
    meter = CostMeter()
    dep = ProvisionedDeployment(sim, net, ["rack0-n1", "rack0-n2"],
                                service_time=10 * MS,
                                resources=cpu_task(), meter=meter)

    def flow():
        yield sim.timeout(1 * HOUR)
        dep.settle_costs()

    run(sim, flow())
    assert meter.usd("provisioned.servers") == pytest.approx(0.20)


def test_deployment_validation():
    sim, topo, net = make_env()
    with pytest.raises(ValueError):
        ProvisionedDeployment(sim, net, [], service_time=1.0,
                              resources=cpu_task())
    with pytest.raises(ValueError):
        ProvisionedDeployment(sim, net, ["rack0-n1"], service_time=0,
                              resources=cpu_task())
    dep = ProvisionedDeployment(sim, net, ["rack0-n1"], service_time=1.0,
                                resources=cpu_task())
    with pytest.raises(ValueError):
        dep.utilization_proxy(0)


# ------------------------------------------------------------------ REST chain
def test_webservice_chain_latency_grows_with_hops():
    sim, topo, net = make_env()
    one = WebServiceChain(sim, net, ["rack0-n1"], service_time=1 * MS)
    three = WebServiceChain(sim, net,
                            ["rack0-n2", "rack0-n3", "rack1-n1"],
                            service_time=1 * MS)

    def flow():
        l1 = yield from one.handle("rack1-n0")
        l3 = yield from three.handle("rack1-n0")
        return l1, l3

    l1, l3 = run(sim, flow())
    assert l3 > 2.5 * l1


def test_webservice_chain_authenticates_every_hop():
    sim, topo, net = make_env()
    chain = WebServiceChain(sim, net, ["rack0-n1", "rack0-n2"],
                            service_time=1 * MS)

    def flow():
        yield from chain.handle("rack1-n0")
        yield from chain.handle("rack1-n0")

    run(sim, flow())
    assert chain.auth_checks() == 4  # 2 hops x 2 requests


def test_webservice_chain_validation():
    sim, topo, net = make_env()
    with pytest.raises(ValueError):
        WebServiceChain(sim, net, [], service_time=1 * MS)


# ---------------------------------------------------------------- siloed FaaS
def make_kv(sim, net, meter=None):
    return ManagedKVService(sim, net, router_node="rack0-n1",
                            metadata_node="rack0-n2",
                            replica_nodes=["rack0-n3", "rack1-n1",
                                           "rack1-n2"],
                            meter=meter)


def test_siloed_faas_invocation_roundtrip():
    sim, topo, net = make_env()
    kv = make_kv(sim, net)
    rest_seed = CostMeter()
    silo = SiloedFaaS(sim, net, "thumbnail", CONTAINER, cpu_task(),
                      kv=kv, work_ops=1e9, meter=rest_seed)

    def seed():
        from repro.net import RestTransport
        rest = RestTransport(net)
        yield from rest.call("rack1-n0", kv, "put",
                             {"key": "img", "payload": SizedPayload(2048)})

    run(sim, seed())

    def flow():
        latency = yield from silo.invoke("rack1-n0", read_keys=["img"],
                                         write_keys=["thumb"])
        return latency

    latency = run(sim, flow())
    assert latency > CONTAINER.cold_start  # cold start on first call
    assert silo.invocations == 1
    assert kv.requests_served >= 3  # seed put + get + put


def test_siloed_faas_every_state_op_pays_rest():
    sim, topo, net = make_env()
    meter = CostMeter()
    kv = make_kv(sim, net, meter)
    silo = SiloedFaaS(sim, net, "fn", CONTAINER, cpu_task(), kv=kv,
                      work_ops=0)

    def flow():
        yield from silo.invoke("rack1-n0", read_keys=[],
                               write_keys=["a", "b", "c"])

    run(sim, flow())
    assert meter.units("kv.write") == 3
    assert net.metrics.histogram("rest.latency").count == 3
