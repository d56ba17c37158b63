"""The ``repro.rpc/1`` wire protocol: newline-delimited JSON frames.

One frame per line, UTF-8, ``\\n``-terminated.  A client sends request
frames::

    {"rpc": "repro.rpc/1", "id": 7, "op": "optimize", "payload": {...}}

and receives exactly one reply frame per request, carrying a
``repro.reply/1`` :class:`~repro.core.requests.ServiceReply` payload::

    {"rpc": "repro.rpc/1", "id": 7, "reply": {...}}

``id`` is a client-chosen integer echoed verbatim, so a client may
pipeline requests over one connection and match replies out of order
(the server answers cache hits immediately while computations are
still queued).

Operations:

* ``hello`` — handshake; replies with :func:`repro.api.capabilities`.
* ``optimize`` — payload is a ``repro.request/1`` optimize_request.
* ``sweep`` — payload is a ``repro.request/1`` sweep_spec.
* ``metrics`` — replies with the live ``repro.metrics/1`` snapshot of
  the daemon's telemetry registry, its only counter store (``repro
  top`` and ``repro request --stats`` read this).
* ``shutdown`` — ask the server to drain and exit (same as SIGTERM).

Framing errors (non-JSON line, wrong schema, unknown op) produce an
``error`` reply with ``id`` echoed when recoverable; a line that is
not a JSON object at all closes the connection.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.utils.validation import ValidationError, require

RPC_SCHEMA = "repro.rpc/1"

#: Every operation a request frame may carry.
OPS: Tuple[str, ...] = (
    "hello", "optimize", "sweep", "metrics", "shutdown"
)

#: Operations that enqueue a computation (admission-controlled); the
#: rest are answered inline by the connection reader.
COMPUTE_OPS: Tuple[str, ...] = ("optimize", "sweep")

#: Hard cap on one frame's wire size (16 MiB) — a line longer than
#: this is a protocol violation, not a request.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def request_frame(
    op: str, frame_id: int, payload: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Build a request frame (client side)."""
    if op not in OPS:
        raise ValidationError(f"unknown op {op!r}; known: {list(OPS)}")
    return {"rpc": RPC_SCHEMA, "id": frame_id, "op": op,
            "payload": payload}


def reply_frame(frame_id: int, reply: Dict[str, Any]) -> Dict[str, Any]:
    """Build a reply frame (server side) around a reply payload."""
    return {"rpc": RPC_SCHEMA, "id": frame_id, "reply": reply}


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One frame as its wire line (terminator included)."""
    return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ValidationError` on anything that is not a JSON
    object, or one nested deeper than the interpreter's recursion limit
    — the caller decides whether that kills the connection.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ValidationError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"undecodable frame: {exc}")
    except RecursionError:
        raise ValidationError("frame nested too deeply")
    require(isinstance(frame, dict), "frame must be a JSON object")
    return frame


def validate_request_frame(frame: Dict[str, Any]) -> None:
    """Schema-check a request frame; raises :class:`ValidationError`."""
    if frame.get("rpc") != RPC_SCHEMA:
        raise ValidationError(
            f"frame rpc must be {RPC_SCHEMA!r}, got {frame.get('rpc')!r}"
        )
    frame_id = frame.get("id")
    require(
        isinstance(frame_id, int) and not isinstance(frame_id, bool),
        "frame id must be an integer",
    )
    op = frame.get("op")
    if op not in OPS:
        raise ValidationError(f"unknown op {op!r}; known: {list(OPS)}")
    payload = frame.get("payload")
    require(
        payload is None or isinstance(payload, dict),
        "frame payload must be null or an object",
    )
    if op in COMPUTE_OPS and not isinstance(payload, dict):
        raise ValidationError(f"op {op!r} requires a request payload")


def validate_reply_frame(frame: Dict[str, Any]) -> None:
    """Schema-check a reply frame; raises :class:`ValidationError`."""
    if frame.get("rpc") != RPC_SCHEMA:
        raise ValidationError(
            f"frame rpc must be {RPC_SCHEMA!r}, got {frame.get('rpc')!r}"
        )
    frame_id = frame.get("id")
    require(
        isinstance(frame_id, int) and not isinstance(frame_id, bool),
        "frame id must be an integer",
    )
    require(
        isinstance(frame.get("reply"), dict),
        "reply frame must carry a reply object",
    )


__all__ = [
    "COMPUTE_OPS",
    "MAX_FRAME_BYTES",
    "OPS",
    "RPC_SCHEMA",
    "ValidationError",
    "decode_line",
    "encode_frame",
    "reply_frame",
    "request_frame",
    "validate_reply_frame",
    "validate_request_frame",
]
