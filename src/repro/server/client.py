"""A blocking client for the Kleisli query service.

:class:`KleisliClient` speaks the framed-JSON protocol documented in the
package docstring and lifts wire payloads back into CPL values, so client
code sees the same values a local :class:`~repro.kleisli.session.Session`
would return.  Typed errors travel: an overloaded server raises
:class:`~repro.core.errors.ServerOverloadedError` client-side; any other
server-side failure raises :class:`~repro.core.errors.RemoteQueryError`
carrying the original ``error_type``.

The ops that run a query take the run options of
:class:`~repro.kleisli.engine.QueryOptions` that cross the wire
(:data:`_WIRE_OPTIONS`); the server checks them again.
"""

from __future__ import annotations

import socket
from typing import Dict, Iterator, Optional, Tuple

from ..core.errors import (
    RemoteQueryError,
    ServerOverloadedError,
    WireProtocolError,
)
from ..core.values import CList
from ..net.framing import recv_message, send_message
from .wire import decode_value

__all__ = ["KleisliClient"]

#: The run options a request carries, in the order it carries them.
_WIRE_OPTIONS = ("deadline", "on_source_failure", "memory_budget", "spill",
                 "profile")


class KleisliClient:
    """One client session against a :class:`~repro.server.KleisliServer`."""

    def __init__(self, address: Tuple[str, int], timeout: float = 30.0):
        host, port = address
        if isinstance(host, str) and host.isascii():
            # As bytes, ``getaddrinfo`` leaves the host alone; as ``str`` it
            # loads the IDNA codec (and ``unicodedata``) to encode it.
            host = host.encode()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        #: The ``admission`` field of the last admitted request
        #: (``"immediate"`` or ``"queued"``) — how much pressure we saw.
        self.last_admission: Optional[str] = None
        #: The ``warnings`` field of the last response that carried one:
        #: typed degradation records (dicts with ``driver``/``error_type``/
        #: ``reason``/``requests_dropped``).  Empty = complete results.
        self.last_warnings: list = []

    # -- plumbing ------------------------------------------------------------

    def request(self, message: dict) -> dict:
        """Send one op and return its ``ok: true`` response payload.

        Raises the typed counterpart of an ``ok: false`` response, and
        :class:`WireProtocolError` if the server hangs up mid-exchange.
        """
        if self._closed:
            raise WireProtocolError("client is closed")
        send_message(self._sock, message)
        response = recv_message(self._sock)
        if response is None:
            raise WireProtocolError("server closed the connection")
        if response.get("ok"):
            if "admission" in response:
                self.last_admission = response["admission"]
            if "warnings" in response:
                self.last_warnings = response["warnings"]
            return response
        error = response.get("error", "unspecified server error")
        error_type = response.get("error_type", "ReproError")
        if error_type == "ServerOverloadedError":
            raise ServerOverloadedError(error)
        raise RemoteQueryError(error, error_type=error_type)

    # -- the protocol ops ----------------------------------------------------

    def hello(self) -> dict:
        return self.request({"op": "hello"})

    @staticmethod
    def _with_options(message: dict, options: dict) -> dict:
        """``message`` with the given run options that are not ``None``;
        a name the wire does not carry is a ``TypeError``, before anything
        is sent."""
        for name in options:
            if name not in _WIRE_OPTIONS:
                raise TypeError(f"{message['op']}() got an unexpected "
                                f"run option {name!r}")
        for name in _WIRE_OPTIONS:
            if options.get(name) is not None:
                message[name] = options[name]
        return message

    def run(self, source: str, **options) -> object:
        """Run a CPL program (defines allowed); return the last query's value.

        With ``on_source_failure="degrade"`` a federated run's partial
        results are announced in :attr:`last_warnings`; ``profile=True``
        records a server-side EXPLAIN ANALYZE readable afterwards with
        :meth:`profile`.
        """
        return decode_value(self.request(self._with_options(
            {"op": "run", "source": source}, options))["value"])

    def query(self, source: str, **options) -> object:
        """Run one CPL expression; return its value (options as in :meth:`run`)."""
        return decode_value(self.request(self._with_options(
            {"op": "query", "source": source}, options))["value"])

    def open(self, source: str, **options) -> str:
        """Open a server-side cursor; return its id (see :meth:`fetch`,
        :meth:`cancel`, :meth:`close_cursor`).  :meth:`stream` wraps this."""
        return self.request(self._with_options(
            {"op": "open", "source": source}, options))["cursor"]

    def fetch(self, cursor: str, batch: int = 16) -> dict:
        """One fetch batch: ``{"values": [...], "done": bool}`` (decoded).

        The batch crosses the wire as one encoded CPL list, so same-shape
        rows arrive as one ``rows`` block and share a directory.
        """
        reply = self.request({"op": "fetch", "cursor": cursor, "n": batch})
        values = decode_value(reply.get("values"))
        if not isinstance(values, CList):
            raise WireProtocolError("fetch reply carries no encoded list")
        reply["values"] = list(values)
        return reply

    def cancel(self, cursor: str) -> bool:
        """Cancel a cursor mid-stream: the server cancels the run's token
        (counted in the governance books) and tears the cursor down.
        Returns whether the cursor existed; cancelling twice is ``False``."""
        return bool(self.request({"op": "cancel", "cursor": cursor})
                    .get("cancelled", False))

    def close_cursor(self, cursor: str) -> bool:
        """Close a cursor without the cancellation bookkeeping."""
        return bool(self.request({"op": "close", "cursor": cursor})
                    .get("closed", False))

    def stream(self, source: str, batch: int = 16,
               **options) -> Iterator[object]:
        """Run a streamed query, yielding elements as fetch batches arrive.

        Closing the generator early (or abandoning it) sends a ``close`` op,
        releasing the server-side cursor and its admission slot.  Each fetch
        refreshes :attr:`last_warnings` with the degradation records the
        stream has accumulated so far.  Options as in :meth:`run`.
        """
        cursor = self.open(source, **options)
        done = False
        try:
            while not done:
                reply = self.fetch(cursor, batch)
                done = reply["done"]
                yield from reply["values"]
        finally:
            if not done and not self._closed:
                try:
                    self.request({"op": "close", "cursor": cursor})
                except (WireProtocolError, OSError):
                    pass

    def view(self, path: str, form: Optional[Dict[str, object]] = None,
             section: Optional[str] = None,
             offset: Optional[int] = None) -> dict:
        """Dispatch a view path + form; returns the payload with ``value``
        (when the view produced one) decoded to a CPL value.

        Oversized replies are frame-capped server-side: a shed ``value``
        or cut ``body`` is listed in the reply's ``truncated`` field, and
        ``section`` (``"body"`` | ``"value"``) + ``offset`` (body
        character position, continue from ``next_offset``) re-request one
        piece at a time.
        """
        message: dict = {"op": "view", "path": path, "form": form}
        if section is not None:
            message["section"] = section
        if offset is not None:
            message["offset"] = offset
        response = self.request(message)
        if "value" in response:
            response["value"] = decode_value(response["value"])
        return response

    def server_stats(self, section: Optional[str] = None) -> dict:
        """Service counters, engine health, and admission configuration.

        ``section`` (``"server"`` | ``"engine"`` | ``"sessions"`` |
        ``"admission"`` | ``"governance"`` | ``"observability"`` |
        ``"slow_queries"``) requests just that piece — the way to read a
        section the full reply listed under ``truncated`` because it would
        not fit one frame.
        """
        message: dict = {"op": "stats"}
        if section is not None:
            message["section"] = section
        return self.request(message)

    def metrics(self, offset: Optional[int] = None) -> dict:
        """The server's Prometheus-style metrics exposition.

        Returns ``{"attached": bool, "text": str, "complete": bool, ...}``;
        when ``complete`` is ``False``, continue from ``next_offset`` with
        ``metrics(offset=reply["next_offset"])`` and concatenate.
        """
        message: dict = {"op": "metrics"}
        if offset is not None:
            message["offset"] = offset
        return self.request(message)

    def metrics_text(self) -> str:
        """The full exposition text, paging past the frame cap as needed."""
        parts = []
        offset: Optional[int] = None
        while True:
            reply = self.metrics(offset)
            parts.append(reply.get("text", ""))
            if reply.get("complete", True):
                return "".join(parts)
            offset = reply["next_offset"]

    def trace(self, limit: Optional[int] = None) -> dict:
        """Recent finished query traces (``{"tracer": ..., "traces": [...]}``)."""
        message: dict = {"op": "trace"}
        if limit is not None:
            message["limit"] = limit
        return self.request(message)

    def profile(self) -> dict:
        """EXPLAIN ANALYZE for this session's last ``profile=True`` query.

        Returns ``{"available": bool, "render": str, "profile": {...}}`` —
        ``render`` is the annotated physical-plan tree, ``profile`` the
        structured record (stages, drivers, books, trace).
        """
        return self.request({"op": "profile"})

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Say goodbye (best-effort) and close the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            send_message(self._sock, {"op": "bye"})
            recv_message(self._sock)
        except (WireProtocolError, OSError):
            pass
        finally:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - teardown race
                pass

    def kill(self) -> None:
        """Drop the connection without a goodbye — simulates a client crash.

        The harness uses this to prove a dirty disconnect still releases the
        session's server-side cursors.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown race
            pass

    def __enter__(self) -> "KleisliClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
