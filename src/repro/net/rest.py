"""The REST transport: today's stateless cloud-API protocol (§2.1).

Every call pays the full statelessness tax, itemized straight from
Table 1 and Section 2.1 of the paper:

1. client-side object marshaling (>50 us/KB),
2. HTTP protocol processing (50 us),
3. socket + network transfer each way (5 us + RTT/2 + wire time),
4. server-side unmarshaling,
5. **per-request access-control check** (token validation + ACL
   lookup) — repeated on every call because the server holds no
   session state,
6. response marshal/unmarshal.

These costs are real and intrinsic to the protocol, which is exactly
why the paper argues a "simple translation" away from REST is not
enough: statelessness itself forces 5 to recur.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..cluster.network import Network
from ..security.acl import STATELESS_AUTH_TIME, AclAuthenticator, Token
from ..security.capabilities import Right
from ..sim.metrics_registry import LabeledMetricsRegistry
from .marshal import REST_ENVELOPE_BYTES, estimate_size
from .service import RequestContext, Service


class RestTransport:
    """Issues REST calls from client nodes to services."""

    def __init__(self, network: Network,
                 authenticator: Optional[AclAuthenticator] = None,
                 metrics: Optional[LabeledMetricsRegistry] = None):
        self.network = network
        self.sim = network.sim
        self.profile = network.profile
        self.authenticator = authenticator
        self.metrics = metrics if metrics is not None else network.metrics

    def call(self, client_node: str, service: Service, op: str, body: Any,
             token: Optional[Token] = None,
             resource: Optional[str] = None,
             right: Right = Right.READ,
             response_size_hint: Optional[int] = None) -> Generator:
        """One REST request/response; returns the handler's response.

        ``resource``/``right`` drive the per-request ACL check when an
        authenticator is configured. ``response_size_hint`` lets callers
        model large GET responses without materializing them.
        """
        sim = self.sim
        start = sim.now
        req_size = estimate_size(body) + REST_ENVELOPE_BYTES

        # 1. Client marshals the request object.
        yield sim.timeout(self.profile.marshal_time(req_size))
        # 2. HTTP protocol processing (request line, headers, parsing).
        yield sim.timeout(self.profile.http_protocol)
        # 3. Request travels to the server.
        yield from self.network.transfer(client_node, service.node_id,
                                         req_size, purpose=f"rest:{op}")
        # 4. Server unmarshals.
        yield sim.timeout(self.profile.marshal_time(req_size))
        # 5. Stateless access control, every single time.
        principal = None
        if self.authenticator is not None:
            if token is None:
                raise ValueError("REST call requires a token when "
                                 "an authenticator is configured")
            yield sim.timeout(STATELESS_AUTH_TIME)
            principal = self.authenticator.check_request(
                token, resource or service.name, right, now=sim.now)
            self.metrics.counter("rest.auth_checks").add(1)

        ctx = RequestContext(op=op, body=body, client_node=client_node,
                             auth=token, principal=principal)
        response = yield from service.serve(ctx)

        resp_size = (response_size_hint if response_size_hint is not None
                     else estimate_size(response)) + REST_ENVELOPE_BYTES
        # 6. Server marshals the response.
        yield sim.timeout(self.profile.marshal_time(resp_size))
        # 7. Response travels back.
        yield from self.network.transfer(service.node_id, client_node,
                                         resp_size, purpose=f"rest:{op}")
        # 8. Client unmarshals.
        yield sim.timeout(self.profile.marshal_time(resp_size))

        self.metrics.histogram("rest.latency").observe(sim.now - start)
        return response

    def protocol_overhead(self, req_nbytes: int, resp_nbytes: int) -> float:
        """Closed-form per-call protocol tax, excluding network + handler.

        Used by analytic checks in the Table 1 experiment.
        """
        req = req_nbytes + REST_ENVELOPE_BYTES
        resp = resp_nbytes + REST_ENVELOPE_BYTES
        overhead = (2 * self.profile.marshal_time(req)
                    + 2 * self.profile.marshal_time(resp)
                    + self.profile.http_protocol)
        if self.authenticator is not None:
            overhead += STATELESS_AUTH_TIME
        return overhead
