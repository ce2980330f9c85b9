"""Length-prefixed message framing for the query-service wire protocol.

The 1995 system spoke to CPL clients over the Internet; the reproduction's
:mod:`repro.server` does the same over TCP.  A *frame* is::

    +----------------+----------------------------+
    | 4-byte length  |  UTF-8 JSON payload        |
    |  (big-endian)  |  (exactly `length` bytes)  |
    +----------------+----------------------------+

Framing and the payload codec live here — next to the simulated
:class:`~repro.net.remote.RemoteSource` wire layer — so the server front-end,
the client library, and any future driver that ships requests over a real
socket all share one definition of "a message".

Guarantees:

* :func:`recv_message` returns ``None`` on a clean EOF *between* frames
  (the peer hung up) and raises
  :class:`~repro.core.errors.WireProtocolError` on a truncated frame, an
  oversized length prefix, or undecodable payload (JSON nested too deep for
  the parser included) — a half-written frame is never silently passed off
  as a message.
* Frames larger than :data:`MAX_FRAME_BYTES` are refused on both send and
  receive, so one runaway result cannot wedge a connection (or balloon the
  peer's memory) — stream large results cursor-wise instead.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from ..core.errors import WireProtocolError

__all__ = ["MAX_FRAME_BYTES", "encode_frame", "send_message", "recv_message"]

_HEADER = struct.Struct(">I")

#: Hard cap on one frame's payload size (16 MiB).  Large query results
#: should be fetched through a cursor, a batch per frame.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def encode_frame(message: dict) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    try:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireProtocolError(f"message is not JSON-serializable: {error}")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            f"cap; fetch large results through a cursor")
    return _HEADER.pack(len(payload)) + payload


def send_message(sock: socket.socket, message: dict) -> None:
    """Send one framed message over a connected socket."""
    sock.sendall(encode_frame(message))


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise WireProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[dict]:
    """Receive one framed message; ``None`` when the peer closed cleanly."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES}); "
            f"refusing to buffer it")
    payload = _recv_exactly(sock, length) if length else b""
    if payload is None:
        raise WireProtocolError("connection closed between header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as error:
        # RecursionError: JSON nested deeper than the parser's stack allows.
        raise WireProtocolError(f"undecodable frame payload: {error}")
    if not isinstance(message, dict):
        raise WireProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}")
    return message
