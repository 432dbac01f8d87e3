"""The four benchmark workloads, driven through the public PCSI API.

Each workload is a :class:`Session` factory. A session builds one fresh
cloud (``setup``: construct, define objects and functions, warm up),
then ``drive`` issues a fixed, seed-derived list of requests and
records what a user of the system sees: per-request simulated latency,
the outcome of every request, and host time. All random draws happen
in ``__init__`` from the seed and a *part* number, outside every timed
region, so the program under test receives only generated inputs. The
parts of one seed are independent draws of the same workload.

A *request* is one unit the workload issues: one invoke
(``invoke-warm``, ``invoke-planes``), one pipeline request
(``pipeline-storage``) or one open-loop arrival (``overload-open``).

Every session checks its outputs as it goes; ``errors`` collects the
failed checks. Two sessions of one workload and seed must produce the
same ``digest`` (an exact fingerprint of simulated outcomes).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cluster import MB, build_cluster, cpu_task, server_node
from repro.core import FunctionImpl, PCSICloud
from repro.faas import WASM
from repro.net import GatewayConfig, ShedError, SizedPayload, ThrottledError
from repro.sim import RandomStream, Simulator
from repro.sim.deadline import DeadlineExceededError
from repro.workloads import ModelServingApp, ModelServingConfig

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 77


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (pct in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Session:
    """One cloud, set up once and driven once."""

    #: Requests one ``drive`` issues.
    requests = 0
    #: Independent input draws of one seed; a run pools one session of
    #: each for the simulated metrics.
    parts = 3
    #: Requests of the memory pass: ``settle`` first, then ``window``.
    memory_settle = 0
    memory_window = 0

    def __init__(self, seed: int, part: int = 0):
        self.seed = seed
        self.part = part
        self.cloud: Optional[PCSICloud] = None
        self.errors: List[str] = []
        # Filled by drive():
        self.attempted = 0
        self.ok = 0
        self.unexpected = 0
        self.events = 0
        self.sim_span = 0.0
        self.sim_latencies: List[float] = []
        self.host_samples: List[float] = []
        self.outcomes: List[Any] = []
        #: Latest an arrival was submitted after its due time (open loop).
        self.max_lag = 0.0

    # -- to implement ----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def drive(self) -> None:
        """Issue the measured requests, recording each one."""
        raise NotImplementedError

    def _begin(self) -> Tuple[int, float]:
        """Forget the warm-up's tallies; returns the simulator's
        (event count, clock) at the start of the measured requests."""
        self.attempted = self.ok = self.unexpected = 0
        sim = self.cloud.sim
        return sim._seq, sim.now

    def drive_memory(self, snapshot) -> int:
        """Memory pass: settle, ``snapshot()``, run the window,
        ``snapshot()``; returns the requests in the window."""
        raise NotImplementedError

    def tally(self) -> Optional[Dict[str, int]]:
        """Measured requests by outcome, where outcomes other than ok
        are expected."""
        return None

    def gateway_counts(self) -> Tuple[int, int, int]:
        """(admitted, throttled, shed) so far, from the front door."""
        gateway = getattr(self.cloud, "gateway", None)
        return (getattr(gateway, "admitted", 0),
                getattr(gateway, "throttled", 0),
                getattr(gateway, "shed", 0))

    # -- shared ----------------------------------------------------------
    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)

    def digest(self) -> str:
        """Exact fingerprint of the simulated outcomes of ``drive``."""
        blob = json.dumps([self.outcomes, self.events,
                           repr(self.cloud.sim.now)],
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ------------------------------------------------------------ closed loops
class _ClosedLoop(Session):
    """One client: each request is issued when the previous one returns.

    Requests ``0 .. warmup-1`` are the warm-up; ``drive`` issues the next
    ``requests``; ``drive_memory`` the next ``memory_settle`` +
    ``memory_window``.
    """

    warmup = 0

    def _one(self, i: int) -> Generator:
        """Issue request ``i``; returns ``(error or None, digest item)``."""
        raise NotImplementedError

    def _loop(self, first: int, count: int, record: bool) -> Generator:
        sim = self.cloud.sim
        perf = time.perf_counter
        for i in range(first, first + count):
            host0 = perf()
            sim0 = sim.now
            error, item = yield from self._one(i)
            host = perf() - host0
            self.attempted += 1
            if error is not None:
                self.check(False, f"request {i}: {error}")
                self.unexpected += 1
                continue
            self.ok += 1
            if record:
                latency = sim.now - sim0
                self.host_samples.append(host)
                self.sim_latencies.append(latency)
                self.outcomes.append([repr(latency), item])

    def drive(self) -> None:
        sim = self.cloud.sim
        seq0, now0 = self._begin()
        self.cloud.run_process(self._loop(self.warmup, self.requests,
                                          record=True))
        self.events = sim._seq - seq0
        self.sim_span = sim.now - now0

    def drive_memory(self, snapshot) -> int:
        first = self.warmup
        self.cloud.run_process(self._loop(first, self.memory_settle,
                                          record=False))
        snapshot()
        self.cloud.run_process(self._loop(first + self.memory_settle,
                                          self.memory_window, record=False))
        snapshot()
        return self.memory_window

    def _inputs(self) -> int:
        """How many per-request inputs a session can use."""
        return self.warmup + max(self.requests,
                                 self.memory_settle + self.memory_window)


def _bench_body(ctx) -> Generator:
    """The benchmark function: burn the requested ops, echo the request."""
    request = ctx.request
    yield from ctx.compute(request["ops"])
    return {"i": request["i"], "ops": request["ops"]}


class InvokeWarm(_ClosedLoop):
    """``invoke-warm``: warm invokes of one 5e5-op wasm function on 8 CPU
    nodes (2 racks x 4), every plane off: the bare invoke path. Each
    request asks for a seed-drawn 4.5e5-5.5e5 ops."""

    requests = 2500
    warmup = 25
    memory_settle = 500
    memory_window = 2000

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        rng = RandomStream(seed, f"perfbench-invoke-ops-{part}")
        self.ops = [rng.uniform(4.5e5, 5.5e5) for _ in range(self._inputs())]

    def _build(self) -> PCSICloud:
        return PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                         seed=self.seed)

    def _issue(self, request: Dict[str, Any]) -> Generator:
        return self.cloud.invoke(self.client, self.fn, None, request)

    def setup(self) -> None:
        self.cloud = cloud = self._build()
        self.client = cloud.client_node()
        self.fn = cloud.define_function(
            "bench",
            [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=0.5),
                          work_ops=5e5)],
            body=_bench_body)
        cloud.run_process(self._loop(0, self.warmup, record=False))

    def _one(self, i: int) -> Generator:
        request = {"i": i, "ops": self.ops[i]}
        result = yield from self._issue(request)
        if result != request:
            return f"result {result!r} != {request!r}", None
        return None, None


class InvokePlanes(InvokeWarm):
    """``invoke-planes``: the same loop with tracing, attribution,
    health and a non-binding admission gateway, through
    ``cloud.gateway.submit``."""

    requests = 1200
    memory_settle = 500
    memory_window = 1500

    def _build(self) -> PCSICloud:
        never_binding = GatewayConfig(rate_per_tenant=1e9, burst=1e9,
                                      max_concurrency=64, max_queue=256)
        return PCSICloud(racks=2, nodes_per_rack=4, gpu_nodes_per_rack=0,
                         seed=self.seed, trace=True, attribution=True,
                         health=True, admission=never_binding)

    def _issue(self, request: Dict[str, Any]) -> Generator:
        return self.cloud.gateway.submit(self.client, self.fn, None,
                                         request, tenant="bench")


class PipelineStorage(_ClosedLoop):
    """``pipeline-storage``: Figure 2 model-serving requests (colocate
    placement, 64 MB weights, planes off). Each request uploads a
    seed-drawn 3.5-4.5 MB image."""

    requests = 350
    warmup = 2
    memory_settle = 100
    memory_window = 300
    config = ModelServingConfig(upload_nbytes=4 * MB,
                                weights_nbytes=64 * MB)

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        rng = RandomStream(seed, f"perfbench-uploads-{part}")
        self.uploads = [int(rng.uniform(3.5, 4.5) * MB)
                        for _ in range(self._inputs())]

    def setup(self) -> None:
        self.cloud = cloud = PCSICloud(
            racks=4, nodes_per_rack=8, gpu_nodes_per_rack=2,
            seed=self.seed, placement="colocate", keep_alive=600.0)
        self.app = ModelServingApp(cloud, self.config)
        self.client = cloud.client_node()
        cloud.run_process(self._loop(0, self.warmup, record=False))

    def _one(self, i: int) -> Generator:
        """One HTTP request: upload through a socket object, run the
        three-stage graph, read the response off the socket."""
        cloud, nbytes = self.cloud, self.uploads[i]
        expect = self.config.response_nbytes
        socket = cloud.create_socket(host_node=self.client)
        cloud.external_send(socket, SizedPayload(nbytes, meta="user-image"))
        result = yield from cloud.submit_graph(self.client,
                                               self.app.build_graph(socket))
        response = yield from cloud.external_recv(socket)
        stages = result.results
        if (response.nbytes != expect
                or stages["preprocess"]["upload_bytes"] != nbytes
                or stages["infer"]["scored_bytes"] != nbytes
                or stages["postprocess"]["response_bytes"] != expect):
            return f"response {response.nbytes} B, stages {stages!r}", None
        return None, result.placements


# --------------------------------------------------------------- open loop
class OverloadOpen(Session):
    """``overload-open``: Poisson arrivals from 8 equal tenants at 2x
    the 74 rps capacity of the gated E24 cloud (8 single-CPU nodes,
    trace + attribution + admission gateway), each with a 0.5 s
    deadline.

    Arrivals due before ``warm_until`` (simulated seconds) are the
    warm-up; the measured requests are those due in
    ``[warm_until, horizon)``, timed from their due time.
    """

    tenants = 8
    capacity_rps = 74.0
    load = 2.0
    deadline = 0.5
    work_ops = 2.5e9
    #: Latency falls for the first ~30 simulated seconds while queues,
    #: buckets and the attributor's estimates settle: measure after.
    warm_until = 30.0
    horizon = 50.0
    #: Tail latency of 20 simulated seconds varies from draw to draw more
    #: than a closed loop's: pool more draws.
    parts = 5
    #: Host time is sampled per slice of this many simulated seconds.
    slice_s = 1.0
    memory_settle_until = 35.0
    memory_until = 50.0

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        rate = self.load * self.capacity_rps / self.tenants
        rng = RandomStream(seed, f"perfbench-arrivals-{part}")
        #: Per tenant: the exponential gaps and the due times they add
        #: up to. Due times are summed exactly as the simulator adds a
        #: timeout to the clock, so an arrival that is on time is
        #: submitted at exactly its due time.
        self.schedule: List[Tuple[str, List[float], List[float]]] = []
        for t in range(self.tenants):
            tenant = f"tenant{t}"
            stream = rng.fork(tenant)
            gaps, dues, now = [], [], 0.0
            while True:
                gap = stream.exponential(1.0 / rate)
                if now + gap >= self.horizon:
                    break
                now = now + gap
                gaps.append(gap)
                dues.append(now)
            self.schedule.append((tenant, gaps, dues))
        self._record = True
        self._slices: Dict[int, List[float]] = {}
        self._tally = {"ok": 0, "throttled": 0, "shed": 0,
                       "deadline_miss": 0, "error": 0}

    def setup(self) -> None:
        sim = Simulator()
        topology = build_cluster(sim, racks=2, nodes_per_rack=4,
                                 gpu_nodes_per_rack=0,
                                 node_capacity=server_node(cpus=1,
                                                           memory_gb=4))
        gate = GatewayConfig(rate_per_tenant=self.capacity_rps
                             / self.tenants,
                             burst=5.0, max_concurrency=10, max_queue=32,
                             default_estimate_s=0.11, estimate_margin=1.0)
        self.cloud = cloud = PCSICloud(sim, seed=self.seed,
                                       keep_alive=600.0, topology=topology,
                                       data_replicas=1, trace=True,
                                       attribution=True, admission=gate)
        cloud.scheduler.control_node = cloud.client_node()
        self.client = cloud.client_node()
        self.fn = cloud.define_function(
            "front", [FunctionImpl("wasm", WASM,
                                   cpu_task(cpus=1, memory_gb=1),
                                   work_ops=self.work_ops)])
        for tenant, gaps, dues in self.schedule:
            sim.spawn(self._arrivals(tenant, gaps, dues),
                      name=f"arrivals:{tenant}")
        cloud.run(until=self.warm_until)

    def _arrivals(self, tenant: str, gaps: List[float],
                  dues: List[float]) -> Generator:
        sim = self.cloud.sim
        for gap, due in zip(gaps, dues):
            yield sim.timeout(gap)
            sim.spawn(self._request(tenant, due), name=f"request:{tenant}")

    def _request(self, tenant: str, due: float) -> Generator:
        sim = self.cloud.sim
        submitted = sim.now
        lag = submitted - due
        if lag != 0.0:
            self.max_lag = max(self.max_lag, abs(lag))
            self.check(False, f"{tenant}: arrival due at {due!r} "
                              f"submitted at {submitted!r}")
        measured = due >= self.warm_until
        if measured:
            slot = int((due - self.warm_until) // self.slice_s)
            mark = self._slices.get(slot)
            if mark is None:
                self._slices[slot] = [time.perf_counter(), 1]
            else:
                mark[1] += 1
        try:
            yield from self.cloud.gateway.submit(
                self.client, self.fn, tenant=tenant, deadline=self.deadline)
        except ThrottledError:
            outcome = "throttled"
        except ShedError:
            outcome = "shed"
        except DeadlineExceededError:
            outcome = "deadline_miss"
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            outcome = "error"
            self.check(False, f"{tenant}: unexpected {exc!r}")
        else:
            outcome = "ok"
        if not measured:
            return
        self._tally[outcome] += 1
        latency = sim.now - due
        if outcome == "ok":
            self.check(latency <= self.deadline + 1e-9,
                       f"{tenant}: ok after {latency!r}s, past the "
                       "deadline")
        if self._record:
            if outcome == "ok":
                self.sim_latencies.append(latency)
            self.outcomes.append([tenant, repr(due), outcome,
                                  repr(latency)])

    def drive(self) -> None:
        sim = self.cloud.sim
        seq0, _ = self._begin()
        self.cloud.run()
        self.events = sim._seq - seq0
        self.sim_span = self.horizon - self.warm_until
        self._settle_tally()
        # Host cost per arrival of each complete slice: from the first
        # arrival of the slice to the first arrival of the next one.
        slots = sorted(self._slices)
        for a, b in zip(slots, slots[1:]):
            start, arrivals = self._slices[a]
            self.host_samples.append(
                (self._slices[b][0] - start) / arrivals)

    def _settle_tally(self) -> None:
        tally = self._tally
        self.attempted = sum(tally.values())
        self.ok = tally["ok"]
        self.unexpected = tally["error"]
        offered = sum(1 for _, _, dues in self.schedule for d in dues
                      if d >= self.warm_until)
        self.check(offered == self.attempted,
                   f"offered {offered} != ok + throttled + shed + miss "
                   f"+ error = {self.attempted}")

    def drive_memory(self, snapshot) -> int:
        self._record = False
        self.cloud.run(until=self.memory_settle_until)
        snapshot()
        self.cloud.run(until=self.memory_until)
        snapshot()
        return sum(1 for _, _, dues in self.schedule for d in dues
                   if self.memory_settle_until < d <= self.memory_until)

    def tally(self) -> Optional[Dict[str, int]]:
        return dict(self._tally)


WORKLOADS = {
    "invoke-warm": InvokeWarm,
    "invoke-planes": InvokePlanes,
    "pipeline-storage": PipelineStorage,
    "overload-open": OverloadOpen,
}
