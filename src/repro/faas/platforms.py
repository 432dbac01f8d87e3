"""Function execution platforms (§3.1: "narrow and heterogeneous").

PCSI deliberately allows "a wide and evolving range of platforms" to
implement functions — containers, microVMs, unikernels, WebAssembly,
accelerators. The *system interface* stays fixed; the platform changes
two things the paper quantifies:

* the **isolation boundary cost** paid on every interaction with the
  system (Table 1: KVM hypervisor call 700 ns, Linux syscall 500 ns,
  WebAssembly call 17 ns), and
* the **cold-start time** to conjure a fresh sandbox.

An :class:`Executor` is one live sandbox of a platform on a node; it
charges compute against the node's device (CPU/GPU/NPU) and isolation
cost per state operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..cluster.latency import HYPERVISOR_CALL, SYSCALL, WASM_CALL
from ..cluster.node import Node
from ..cluster.resources import ResourceVector
from ..sim.engine import MS, Simulator
from ..sim.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class PlatformSpec:
    """How a function body is isolated and executed."""

    name: str
    #: Cost of crossing the isolation boundary once (per state op).
    isolation_call: float
    #: Time to provision a fresh sandbox (image pull amortized away).
    cold_start: float
    #: Which device kind executes the function's compute.
    device_kind: str = "cpu"
    #: Fraction of the raw device rate this runtime achieves.
    compute_efficiency: float = 1.0

    def __post_init__(self):
        if self.isolation_call < 0 or self.cold_start < 0:
            raise ValueError("negative platform cost")
        if not 0 < self.compute_efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")


#: OCI container (namespaced process): syscall-priced isolation,
#: hundreds-of-ms cold start.
CONTAINER = PlatformSpec("container", isolation_call=SYSCALL,
                         cold_start=400 * MS)
#: Firecracker-style microVM: hypervisor-call isolation, fast boot.
MICROVM = PlatformSpec("microvm", isolation_call=HYPERVISOR_CALL,
                       cold_start=150 * MS)
#: Unikernel on a minimal monitor: hypervisor-priced, tiny image.
UNIKERNEL = PlatformSpec("unikernel", isolation_call=HYPERVISOR_CALL,
                         cold_start=30 * MS)
#: WebAssembly instance in a shared runtime (Faasm-style).
WASM = PlatformSpec("wasm", isolation_call=WASM_CALL, cold_start=5 * MS,
                    compute_efficiency=0.7)
#: Container with a GPU attached: adds device init to cold start.
GPU_CONTAINER = PlatformSpec("gpu-container", isolation_call=SYSCALL,
                             cold_start=2000 * MS, device_kind="gpu")
#: Container with an NPU attached (the E8 hardware-swap candidate).
NPU_CONTAINER = PlatformSpec("npu-container", isolation_call=SYSCALL,
                             cold_start=1500 * MS, device_kind="npu")

PLATFORMS = {p.name: p for p in (CONTAINER, MICROVM, UNIKERNEL, WASM,
                                 GPU_CONTAINER, NPU_CONTAINER)}


class ExecutorStateError(Exception):
    """An executor was used outside its lifecycle."""


class ExecutorLostError(Exception):
    """The machine hosting the sandbox died while it was computing.

    Retriable: PCSI functions hold no implicit state, so the scheduler
    may transparently re-run the invocation elsewhere.
    """


class Executor:
    """One live sandbox on a node.

    Lifecycle: ``provision()`` (cold start, resources held from here) →
    any number of ``execute()`` / ``state_op()`` calls → ``shutdown()``.
    """

    def __init__(self, sim: Simulator, node: Node, platform: PlatformSpec,
                 resources: ResourceVector,
                 tracer: Optional[Tracer] = None,
                 prewarmed: bool = False):
        if not node.has_device(platform.device_kind):
            raise ExecutorStateError(
                f"node {node.node_id} lacks a {platform.device_kind!r} "
                f"device for platform {platform.name!r}")
        self.sim = sim
        self.node = node
        self.platform = platform
        self.resources = resources
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.live = False
        self.busy = False
        #: Keep-alive deadline the warm pool stamps at each release:
        #: the sandbox is reaped if it is still idle then.
        self.reap_at: Optional[float] = None
        #: Wake time of this sandbox's one armed idle-reaper (None when
        #: none is armed).
        self.reaper_wake: Optional[float] = None
        self.invocations = 0
        #: True when the autoscale controller provisioned this sandbox
        #: ahead of demand rather than a waiting invocation.
        self.prewarmed = prewarmed

    def provision(self) -> Generator:
        """Allocate resources and pay the cold start."""
        if self.live:
            raise ExecutorStateError("executor already provisioned")
        self.node.allocate(self.resources)
        try:
            with self.tracer.span("sandbox.provision", node=self.node.node_id,
                                  platform=self.platform.name,
                                  cold_start_s=self.platform.cold_start):
                yield self.sim.timeout(self.platform.cold_start)
        except BaseException:
            # Cold start aborted (interrupt, deadline): give the node
            # its capacity back, or the half-built sandbox leaks it.
            self.node.release(self.resources)
            raise
        self.live = True
        return self

    def compute(self, work_ops: float) -> Generator:
        """Run ``work_ops`` units of work on the platform's device.

        Raises :class:`ExecutorLostError` if the hosting machine dies
        mid-computation (failure injection).
        """
        if not self.live:
            raise ExecutorStateError("compute on a dead executor")
        device = self.node.device(self.platform.device_kind)
        duration = (device.compute_time(work_ops)
                    / self.platform.compute_efficiency
                    * self.node.interference_factor())
        with self.tracer.span("compute", node=self.node.node_id,
                              device=self.platform.device_kind,
                              work_ops=work_ops):
            yield self.sim.timeout(duration)
            if not self.node.alive:
                raise ExecutorLostError(
                    f"node {self.node.node_id} died during compute")
        return duration

    def isolation_cost(self, calls: int = 1) -> float:
        """Boundary-crossing time for ``calls`` state operations."""
        if calls < 0:
            raise ValueError("negative call count")
        return calls * self.platform.isolation_call

    def mark_busy(self) -> None:
        """Claim the executor for an invocation."""
        if not self.live:
            raise ExecutorStateError("claim of a dead executor")
        if self.busy:
            raise ExecutorStateError("executor already busy")
        self.busy = True

    def mark_idle(self) -> None:
        """Return the executor to the warm pool."""
        if not self.busy:
            raise ExecutorStateError("idle-marking an idle executor")
        self.busy = False
        self.invocations += 1

    def cancel_reservation(self) -> None:
        """Undo a :meth:`mark_busy` that never ran an invocation.

        The warm pool reserves an executor (marks it busy) at hand-off
        time so a late arrival cannot steal it from a queued waiter; if
        the hand-off goes stale (the waiter died, or the node crashed
        before the waiter resumed) the reservation is cancelled without
        counting an invocation.
        """
        if not self.busy:
            raise ExecutorStateError("cancelling an unreserved executor")
        self.busy = False

    def shutdown(self) -> None:
        """Release the sandbox's resources (scale-to-zero reaping)."""
        if not self.live:
            raise ExecutorStateError("shutdown of a dead executor")
        if self.busy:
            raise ExecutorStateError("shutdown of a busy executor")
        self.node.release(self.resources)
        self.live = False
