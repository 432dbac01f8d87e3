"""The stateful session transport: PCSI's answer to the REST tax.

A session is opened once — paying one round trip and one *real*
authentication (cryptographic credential verification). After that,
operations travel as compact binary frames: no object marshaling, no
HTTP processing, and access control degenerates to a constant-time
capability table check on the server. This is the paper's §3.2 claim
that "references make the PCSI API stateful" and that this enables
optimization — here, amortizing authentication and encoding costs
across the life of the session.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..cluster.network import Network
from ..security.capabilities import (
    CAPABILITY_CHECK_TIME,
    CAPABILITY_MINT_TIME,
    Capability,
    CapabilityRegistry,
    Right,
)
from ..sim.engine import US
from ..sim.metrics_registry import LabeledMetricsRegistry
from .marshal import SESSION_FRAME_BYTES, estimate_size
from .service import RequestContext, Service

#: Encoding a request into a binary frame (scatter-gather, no object
#: graph walk) — small and size-independent.
FRAME_ENCODE_TIME = 1 * US


class SessionClosedError(Exception):
    """An operation was attempted on a closed session."""


class Session:
    """An open, authenticated connection from a client node to a service."""

    def __init__(self, transport: "SessionTransport", client_node: str,
                 service: Service, capability: Optional[Capability]):
        self.transport = transport
        self.client_node = client_node
        self.service = service
        self.capability = capability
        self.open = True
        self.ops_issued = 0

    def call(self, op: str, body: Any,
             right: Right = Right.READ,
             response_size_hint: Optional[int] = None) -> Generator:
        """One operation over the session; returns the handler response."""
        if not self.open:
            raise SessionClosedError("session is closed")
        response = yield from self.transport._call(self, op, body, right,
                                                   response_size_hint)
        self.ops_issued += 1
        return response

    def close(self) -> None:
        """Close the session (no network cost modeled for teardown)."""
        self.open = False


class SessionTransport:
    """Opens sessions and moves framed operations over them."""

    def __init__(self, network: Network,
                 registry: Optional[CapabilityRegistry] = None,
                 metrics: Optional[LabeledMetricsRegistry] = None):
        self.network = network
        self.sim = network.sim
        self.profile = network.profile
        self.registry = registry
        self.metrics = metrics if metrics is not None else network.metrics

    def connect(self, client_node: str, service: Service,
                capability: Optional[Capability] = None) -> Generator:
        """Open a session: one handshake RTT + one credential check.

        Returns the :class:`Session`. When a capability registry is
        configured, the capability is verified cryptographically here —
        once — instead of on every operation.
        """
        yield from self.network.round_trip(client_node, service.node_id,
                                           SESSION_FRAME_BYTES,
                                           SESSION_FRAME_BYTES,
                                           purpose="session:handshake")
        if self.registry is not None:
            if capability is None:
                raise ValueError("session connect requires a capability "
                                 "when a registry is configured")
            yield self.sim.timeout(CAPABILITY_MINT_TIME)
            # Verify the credential itself (revocation etc.); specific
            # rights are checked per operation at frame cost.
            self.registry.check(capability, Right(0))
        self.metrics.counter("session.connects").add(1)
        return Session(self, client_node, service, capability)

    def _call(self, session: Session, op: str, body: Any, right: Right,
              response_size_hint: Optional[int]) -> Generator:
        sim = self.sim
        start = sim.now
        req_size = estimate_size(body) + SESSION_FRAME_BYTES

        # Frame encode (no marshaling walk) and ship.
        yield sim.timeout(FRAME_ENCODE_TIME)
        yield from self.network.transfer(session.client_node,
                                         session.service.node_id, req_size,
                                         purpose=f"session:{op}")
        # Constant-time capability check on the server.
        if self.registry is not None and session.capability is not None:
            yield sim.timeout(CAPABILITY_CHECK_TIME)
            self.registry.check(session.capability, right)
            self.metrics.counter("session.cap_checks").add(1)

        ctx = RequestContext(op=op, body=body,
                             client_node=session.client_node,
                             auth=session.capability)
        response = yield from session.service.serve(ctx)

        resp_size = (response_size_hint if response_size_hint is not None
                     else estimate_size(response)) + SESSION_FRAME_BYTES
        yield sim.timeout(FRAME_ENCODE_TIME)
        yield from self.network.transfer(session.service.node_id,
                                         session.client_node, resp_size,
                                         purpose=f"session:{op}")

        self.metrics.histogram("session.latency").observe(sim.now - start)
        return response

    def per_op_overhead(self) -> float:
        """Closed-form per-op protocol tax (excl. network + handler)."""
        overhead = 2 * FRAME_ENCODE_TIME
        if self.registry is not None:
            overhead += CAPABILITY_CHECK_TIME
        return overhead
