"""Invocation records and the function syscall surface.

A :class:`FunctionContext` is what a running function body sees: the
explicit-state API of §3.2. Every call crosses the executor's isolation
boundary (charged at the platform's Table 1 rate) before reaching the
data layer, and every data operation happens *from the executor's
node* — which is precisely why placement (§4.1) changes performance
while the program stays the same.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from ..faas.platforms import Executor
from ..net.marshal import SizedPayload, estimate_size
from ..security.capabilities import Right
from ..sim.deadline import Deadline, check_deadline, current_deadline
from .errors import InvocationError
from .functions import MAX_INLINE_REQUEST_BYTES, FunctionDef, FunctionImpl
from .references import Reference

_inv_ids = itertools.count(1)


@dataclass
class Invocation:
    """Bookkeeping for one function invocation."""

    fn_name: str
    impl_name: str
    args: Dict[str, Reference]
    request: Dict[str, Any]
    submitted_at: float
    inv_id: int = field(default_factory=lambda: next(_inv_ids))
    client_node: Optional[str] = None
    executor_node: Optional[str] = None
    cold_start: bool = False
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Any = None

    @property
    def latency(self) -> float:
        """End-to-end latency (submit to finish)."""
        if self.finished_at is None:
            raise InvocationError("invocation has not finished")
        return self.finished_at - self.submitted_at

    @property
    def service_time(self) -> float:
        """Execution time only (start to finish)."""
        if self.finished_at is None or self.started_at is None:
            raise InvocationError("invocation has not finished")
        return self.finished_at - self.started_at


def validate_request(request: Dict[str, Any]) -> None:
    """Enforce the small pass-by-value request bound of §3.1."""
    size = estimate_size(request)
    if size > MAX_INLINE_REQUEST_BYTES:
        raise InvocationError(
            f"pass-by-value request is {size} bytes; the limit is "
            f"{MAX_INLINE_REQUEST_BYTES}. Pass large data as data-layer "
            "references instead.")


class FunctionContext:
    """The system interface a function body programs against.

    ``kernel`` is the :class:`~repro.core.system.PCSICloud` (duck-typed
    to avoid a circular import). All methods are generators to be used
    with ``yield from``.
    """

    def __init__(self, kernel, invocation: Invocation, executor: Executor,
                 impl: FunctionImpl):
        self._kernel = kernel
        self.invocation = invocation
        self.executor = executor
        self.impl = impl

    # -- ambient facts -----------------------------------------------------
    @property
    def args(self) -> Dict[str, Reference]:
        """The explicit data-layer arguments."""
        return self.invocation.args

    @property
    def request(self) -> Dict[str, Any]:
        """The small pass-by-value request body."""
        return self.invocation.request

    @property
    def node_id(self) -> str:
        """Where this function is physically running."""
        return self.executor.node.node_id

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._kernel.sim.now

    @property
    def deadline(self) -> Optional[Deadline]:
        """The invocation's propagated deadline (None when unbounded).

        Set by ``invoke(deadline=...)`` upstream; nested invokes and
        storage operations issued through this context shrink the same
        budget.
        """
        return current_deadline(self._kernel.sim)

    def remaining_budget(self) -> Optional[float]:
        """Seconds left on the propagated deadline (None = unbounded)."""
        deadline = self.deadline
        if deadline is None:
            return None
        return deadline.remaining(self._kernel.sim.now)

    # -- the syscall surface -------------------------------------------------
    def _boundary(self) -> Generator:
        """Cross the isolation boundary once (Table 1 pricing).

        Every syscall is a deadline checkpoint: a body whose budget has
        expired learns it here, at its next interaction with the
        system, rather than running to completion for a caller that
        already gave up.
        """
        check_deadline(self._kernel.sim, "%s state op",
                       self.invocation.fn_name)
        yield self._kernel.sim.timeout(self.executor.isolation_cost(1))

    def read(self, ref: Reference) -> Generator:
        """Read an object's content through a reference."""
        yield from self._boundary()
        payload = yield from self._kernel.op_read(self.node_id, ref)
        return payload

    def write(self, ref: Reference, payload: SizedPayload) -> Generator:
        """Replace an object's content."""
        yield from self._boundary()
        size = yield from self._kernel.op_write(self.node_id, ref, payload)
        return size

    def append(self, ref: Reference, payload: SizedPayload) -> Generator:
        """Append to an object (APPEND_ONLY or MUTABLE)."""
        yield from self._boundary()
        size = yield from self._kernel.op_write(self.node_id, ref, payload,
                                                append=True)
        return size

    def fifo_put(self, ref: Reference, payload: SizedPayload) -> Generator:
        """Enqueue into a FIFO object."""
        yield from self._boundary()
        yield from self._kernel.op_fifo_put(self.node_id, ref, payload)

    def fifo_get(self, ref: Reference) -> Generator:
        """Dequeue from a FIFO object (blocks until an item arrives)."""
        yield from self._boundary()
        item = yield from self._kernel.op_fifo_get(self.node_id, ref)
        return item

    def socket_send(self, ref: Reference, payload: SizedPayload,
                    server_side: bool = True) -> Generator:
        """Send on a socket object (default: toward the client)."""
        yield from self._boundary()
        yield from self._kernel.op_socket_send(self.node_id, ref, payload,
                                               server_side=server_side)

    def socket_recv(self, ref: Reference,
                    server_side: bool = True) -> Generator:
        """Receive from a socket object."""
        yield from self._boundary()
        item = yield from self._kernel.op_socket_recv(self.node_id, ref,
                                                      server_side=server_side)
        return item

    def resolve(self, root: Reference, path: str) -> Generator:
        """Resolve a path in a namespace passed as an argument."""
        yield from self._boundary()
        ref = yield from self._kernel.op_resolve(root, path)
        return ref

    def device(self, ref: Reference, op: str,
               body: Optional[Dict[str, Any]] = None,
               right: Right = Right.WRITE) -> Generator:
        """Call a system service through a device object."""
        yield from self._boundary()
        result = yield from self._kernel.op_device(self.node_id, ref, op,
                                                   body, right=right)
        return result

    def compute(self, work_ops: float) -> Generator:
        """Burn data-dependent compute on this impl's device."""
        duration = yield from self.executor.compute(work_ops)
        return duration

    def invoke(self, fn_ref: Reference, args: Optional[Dict] = None,
               request: Optional[Dict] = None) -> Generator:
        """Synchronously invoke another function (dynamic task graphs)."""
        yield from self._boundary()
        result = yield from self._kernel.op_invoke(
            self.node_id, fn_ref, args or {}, request or {})
        return result

    def invoke_async(self, fn_ref: Reference, args: Optional[Dict] = None,
                     request: Optional[Dict] = None):
        """Spawn an invocation; returns a waitable process event.

        This is the Ray/Ciel-style dynamic graph edge: the caller keeps
        running and may ``yield`` the returned event later.
        """
        gen = self._kernel.op_invoke(self.node_id, fn_ref, args or {},
                                     request or {})
        return self._kernel.sim.spawn(gen, name=f"async:{self.invocation.fn_name}")


def default_body(fn_def: FunctionDef, ctx: FunctionContext) -> Generator:
    """The declarative body of ``fn_def``: read inputs, compute, write
    outputs.

    Used, bound to its :class:`FunctionDef`, when the definition has no
    programmable body. Sizes flow: output size =
    FunctionDef.output_nbytes(inputs, request).
    """
    input_bytes = 0
    for name in fn_def.reads:
        if name not in ctx.args:
            raise InvocationError(f"missing input argument {name!r}")
        payload = yield from ctx.read(ctx.args[name])
        input_bytes += payload.nbytes
    if ctx.impl.work_ops:
        yield from ctx.compute(ctx.impl.work_ops)
    out_size = fn_def.resolve_output_size(input_bytes, ctx.request)
    for name in fn_def.writes:
        if name not in ctx.args:
            raise InvocationError(f"missing output argument {name!r}")
        yield from ctx.write(ctx.args[name], SizedPayload(out_size))
    return {"bytes_in": input_bytes, "bytes_out": out_size}
