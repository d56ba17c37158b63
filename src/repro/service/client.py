"""Blocking client for the optimization service (``repro.rpc/1``).

:class:`ServiceClient` owns one socket connection to a ``repro serve``
daemon.  Connecting performs the ``hello`` handshake and verifies the
server speaks this client's wire schemas, so version skew fails fast
with a clear message instead of a decode error mid-request.

The high-level calls (:meth:`ServiceClient.optimize`,
:meth:`ServiceClient.sweep`) submit a typed request object and block
for the decoded :class:`~repro.core.requests.ServiceReply`.  By
default they honor backpressure: a ``rejected`` reply is retried after
the server's suggested ``retry_after`` delay until ``max_wait_s`` is
exhausted — so a caller either gets an answer or an explicit timeout,
never a silent drop.  Pass ``wait=False`` to surface rejections
directly.

The client is not thread-safe; use one client per thread (the server
happily serves many connections).
"""

from __future__ import annotations

import dataclasses
import socket
import time
import uuid
from typing import Any, Dict, Optional, Tuple, Union

from repro import api
from repro.observability.tracer import active_tracer
from repro.service import protocol
from repro.utils.validation import ValidationError, require

Address = Union[str, Tuple[str, int]]


class ServiceError(RuntimeError):
    """The server answered with a protocol-level error reply."""


class ServiceUnavailable(RuntimeError):
    """The request kept being rejected until ``max_wait_s`` ran out."""

    def __init__(self, message: str, reply: "api.ServiceReply") -> None:
        super().__init__(message)
        self.reply = reply


class ServiceClient:
    """One blocking connection to an optimization service daemon."""

    def __init__(
        self,
        address: Address,
        connect_timeout: float = 10.0,
        handshake: bool = True,
    ) -> None:
        self._address = address
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(connect_timeout)
        sock.connect(address if isinstance(address, str)
                     else tuple(address))
        sock.settimeout(None)
        self._sock = sock
        self._stream = sock.makefile("rb", buffering=protocol.MAX_FRAME_BYTES)
        self._next_id = 0
        self.capabilities: Optional[Dict[str, Any]] = None
        if handshake:
            self.capabilities = self.hello()

    # -- plumbing -----------------------------------------------------

    def call(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> "api.ServiceReply":
        """One raw round trip: send a frame, block for its reply."""
        frame_id = self._next_id
        self._next_id += 1
        frame = protocol.request_frame(op, frame_id, payload)
        self._sock.sendall(protocol.encode_frame(frame))
        while True:
            line = self._stream.readline()
            if not line:
                raise ServiceError(
                    f"connection to {self._address!r} closed mid-call"
                )
            if not line.strip():
                continue
            reply_frame = protocol.decode_line(line)
            protocol.validate_reply_frame(reply_frame)
            if reply_frame["id"] != frame_id:
                continue  # stale reply from an earlier abandoned call
            return api.ServiceReply.from_dict(reply_frame["reply"])

    def _submit(
        self,
        op: str,
        payload: Dict[str, Any],
        wait: bool,
        max_wait_s: float,
    ) -> "api.ServiceReply":
        deadline = time.monotonic() + max_wait_s
        while True:
            reply = self.call(op, payload)
            if not reply.rejected or not wait:
                return reply
            delay = reply.retry_after or 0.01
            if time.monotonic() + delay > deadline:
                raise ServiceUnavailable(
                    f"{op} request kept being rejected for "
                    f"{max_wait_s:.1f}s ({reply.error})",
                    reply,
                )
            time.sleep(delay)

    # -- operations ---------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        """Handshake; returns the server's capability payload."""
        reply = self.call("hello")
        if not reply.ok or not isinstance(reply.result, dict):
            raise ServiceError(f"handshake failed: {reply.error}")
        schemas = reply.result.get("rpc_schemas", [])
        for needed in (protocol.RPC_SCHEMA, api.REQUEST_SCHEMA,
                       api.REPLY_SCHEMA):
            require(
                needed in schemas,
                f"server does not speak {needed!r} "
                f"(offers {schemas!r})",
            )
        return reply.result

    def optimize(
        self,
        request: "api.OptimizeRequest",
        wait: bool = True,
        max_wait_s: float = 60.0,
    ) -> "api.ServiceReply":
        """Submit one optimize request; blocks for the reply.

        When the calling thread has an active tracer and the request
        carries no trace context yet, the call participates in
        distributed tracing: a ``service.optimize`` client span is
        opened, a fresh ``trace_id`` plus that span's id travel with
        the request, and the server-side span subtree returned in the
        reply is grafted under the client span — one stitched trace
        whose counters equal the server's work exactly.
        """
        require(
            isinstance(request, api.OptimizeRequest),
            f"expected an OptimizeRequest, got {type(request)!r}",
        )
        tracer = active_tracer()
        if tracer is None or request.trace_id is not None:
            return self._submit(
                "optimize", request.to_dict(), wait, max_wait_s
            )
        trace_id = uuid.uuid4().hex
        with tracer.span("service.optimize"):
            traced = dataclasses.replace(
                request,
                trace_id=trace_id,
                parent_span=tracer.current_span_id,
            )
            reply = self._submit(
                "optimize", traced.to_dict(), wait, max_wait_s
            )
            if reply.trace_records:
                tracer.graft(
                    list(reply.trace_records),
                    origin=f"service-{trace_id[:8]}",
                )
            return reply

    def sweep(
        self,
        spec: "api.SweepSpec",
        wait: bool = True,
        max_wait_s: float = 300.0,
    ) -> "api.ServiceReply":
        """Submit one sweep spec; blocks for the reply."""
        require(
            isinstance(spec, api.SweepSpec),
            f"expected a SweepSpec, got {type(spec)!r}",
        )
        return self._submit("sweep", spec.to_dict(), wait, max_wait_s)

    def metrics(self) -> Dict[str, Any]:
        """The server's live ``repro.metrics/1`` telemetry snapshot."""
        reply = self.call("metrics")
        if not reply.ok or not isinstance(reply.result, dict):
            raise ServiceError(f"metrics call failed: {reply.error}")
        return reply.result

    def shutdown_server(self) -> "api.ServiceReply":
        """Ask the server to drain and exit (equivalent to SIGTERM)."""
        return self.call("shutdown")

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "ValidationError",
]
