"""The concurrent multi-session Kleisli query server.

See the package docstring (:mod:`repro.server`) for the wire protocol,
session lifecycle, backpressure policy, and the shared-vs-per-session state
map.  This module implements it:

* :class:`KleisliServer` — a TCP front-end (thread per connection, capped at
  ``max_sessions``) multiplexing CPL sessions onto **one** shared
  :class:`~repro.kleisli.engine.KleisliEngine`;
* the service books — a :class:`~repro.obs.metrics.Books` of sessions,
  queries, cursors and rejections the soak tests assert consistency on;
* admission control — a bounded-semaphore pool of in-flight query slots with
  a queue-or-reject policy, surfaced in every response's ``admission`` field
  and, on rejection, as a typed
  :class:`~repro.core.errors.ServerOverloadedError`.
"""

from __future__ import annotations

import socket
import threading
import time
from itertools import islice
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.errors import (
    QueryServiceError,
    ReproError,
    ServerOverloadedError,
    WireProtocolError,
)
from ..core.values import CList
from ..kleisli.engine import KleisliEngine
from ..kleisli.governance import CancellationToken
from ..kleisli.session import Session
from ..net.framing import MAX_FRAME_BYTES, encode_frame, recv_message, send_message
from ..obs.metrics import Books
from .wire import encode_value, encode_warnings

if TYPE_CHECKING:
    from ..views.gateway import ViewGateway
    from ..views.registry import ViewRegistry

__all__ = ["KleisliServer", "PROTOCOL_VERSION"]

PROTOCOL_VERSION = 3

#: Most elements one ``fetch`` reply may carry (keeps frames bounded).
MAX_FETCH_BATCH = 1024

#: Soft budget for one ``stats`` reply frame: half the hard wire cap, so
#: the reply fits with ample room even after transport envelope fields.
_STATS_BYTE_BUDGET = MAX_FRAME_BYTES // 2


#: The service books.  Invariants the concurrency tests assert: once every
#: client has disconnected, ``sessions_opened == sessions_closed`` and
#: ``cursors_opened == cursors_closed`` — a difference is a leaked session
#: thread or a cursor whose admission slot was never returned.
#: ``rejections`` counts every request admission control refused: a
#: draining server, a full one under the reject policy, a queue timeout, and
#: a session at its cursor quota.
SERVER_BOOKS = ("sessions_opened", "sessions_closed", "sessions_refused",
                "queries", "rejections", "queued", "failures",
                "cursors_opened", "cursors_closed")


def _fits(message: dict) -> bool:
    """Does ``message`` frame within the reply budget?  A message the
    framing layer refuses outright does not."""
    try:
        return len(encode_frame(message)) <= _STATS_BYTE_BUDGET
    except WireProtocolError:
        return False


def _offset(message: dict, op: str) -> int:
    offset = message.get("offset", 0)
    if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
        raise WireProtocolError(f"{op} 'offset' must be a non-negative integer")
    return offset


class _AdmissionSlot:
    """One held in-flight-query slot; release is idempotent.

    ``on_release`` (when given) runs exactly once, after the semaphore is
    returned — the server's drain accounting: open cursors hold their slot
    for their whole lifetime, so "every slot released" *is* "every
    in-flight query and cursor finished".
    """

    __slots__ = ("_semaphore", "_released", "_lock", "_on_release")

    def __init__(self, semaphore: threading.Semaphore,
                 on_release: Optional[Callable[[], None]] = None):
        self._semaphore = semaphore
        self._released = False
        self._lock = threading.Lock()
        self._on_release = on_release

    def release(self) -> None:
        with self._lock:
            if self._released:
                return
            self._released = True
        self._semaphore.release()
        if self._on_release is not None:
            self._on_release()


class _Cursor:
    """A server-side streamed query: the session's stream plus the
    admission slot it holds for its whole lifetime (open cursors *are* the
    in-flight queries backpressure counts)."""

    __slots__ = ("stream", "statistics", "token", "opened_at",
                 "watchdog_killed", "_slot", "_stats", "_closed",
                 "_released")

    def __init__(self, stream, slot: _AdmissionSlot, stats: Books,
                 statistics=None, token: Optional[CancellationToken] = None):
        self.stream = stream
        #: The run's ``EvalStatistics`` — captured at open time so fetch
        #: replies can report degradation warnings accumulated as the
        #: stream drains, regardless of what other sessions ran since.
        self.statistics = statistics
        #: The run's cancellation token: the ``cancel`` op and the watchdog
        #: cancel through it, so teardown is cooperative and typed.
        self.token = token
        self.opened_at = time.monotonic()
        #: Set by the watchdog the one time it kills this cursor, so the
        #: ``watchdog_kills`` book counts each runaway query exactly once.
        self.watchdog_killed = False
        self._slot = slot
        self._stats = stats
        self._closed = False
        self._released = False

    def retire(self) -> None:
        """Close the stream and count the cursor closed — but keep holding
        the admission slot.  ``release_slot`` hands it back once the reply
        announcing the close has actually been sent."""
        if self._closed:
            return
        self._closed = True
        try:
            self.stream.close()
        finally:
            self._stats.count("cursors_closed")

    def release_slot(self) -> None:
        if self._released:
            return
        self._released = True
        self._slot.release()

    def close(self) -> None:
        try:
            self.retire()
        finally:
            self.release_slot()


class _Connection:
    """Per-connection state: the CPL session, its open cursors, the lazily
    built view gateway.  Owned by exactly one serving thread."""

    __slots__ = ("session", "cursors", "gateway", "pending")

    def __init__(self, session: Session, gateway: Optional[ViewGateway]):
        self.session = session
        self.cursors: Dict[str, _Cursor] = {}
        self.gateway = gateway
        #: Retired cursors whose admission slot is held until the response
        #: that announced the close (``done: true`` / ``closed: true``)
        #: has been SENT: releasing the slot earlier lets a graceful
        #: drain decide "nothing in flight" and cut the connection
        #: between the handler and the send, losing the client its final
        #: reply.
        self.pending: List[_Cursor] = []

    def flush_pending(self) -> None:
        for cursor in self.pending:
            try:
                cursor.release_slot()
            except Exception:  # pragma: no cover - best-effort release
                pass
        self.pending.clear()

    def close(self) -> None:
        self.flush_pending()
        for cursor in list(self.cursors.values()):
            try:
                cursor.close()
            except Exception:  # pragma: no cover - best-effort release
                pass
        self.cursors.clear()
        self.session.close()


class KleisliServer:
    """Serve concurrent CPL sessions over one shared engine.

    ``session_setup`` (when given) runs once per new connection's
    :class:`~repro.kleisli.session.Session` — the hook tests and
    deployments use to bind per-session values or definitions.  Drivers
    registered on the shared ``engine`` are bound into every session
    automatically.

    ``admission`` is ``"queue"`` (wait up to ``queue_timeout`` seconds for
    a free in-flight-query slot, then reject) or ``"reject"`` (reject
    immediately when saturated).  Rejections are typed
    (``error_type: "ServerOverloadedError"``) and leave the server — and
    the session that was rejected — fully usable.
    """

    def __init__(self, engine: Optional[KleisliEngine] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_sessions: int = 64,
                 max_concurrent_queries: int = 8,
                 admission: str = "queue",
                 queue_timeout: float = 5.0,
                 drain_timeout: float = 5.0,
                 view_registry: Optional[ViewRegistry] = None,
                 session_setup: Optional[Callable[[Session], None]] = None,
                 max_query_runtime: Optional[float] = None,
                 watchdog_interval: float = 0.25,
                 session_cursor_quota: Optional[int] = None,
                 session_memory_limit: Optional[int] = None):
        if admission not in ("queue", "reject"):
            raise ValueError("admission must be 'queue' or 'reject'")
        if max_concurrent_queries < 1:
            raise ValueError("max_concurrent_queries must be at least 1")
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if max_query_runtime is not None and max_query_runtime <= 0:
            raise ValueError("max_query_runtime must be positive")
        if session_cursor_quota is not None and session_cursor_quota < 1:
            raise ValueError("session_cursor_quota must be at least 1")
        self.engine = engine if engine is not None else KleisliEngine()
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        self.max_concurrent_queries = max_concurrent_queries
        self.admission = admission
        self.queue_timeout = queue_timeout
        #: How long a graceful :meth:`stop` waits for in-flight queries and
        #: open cursors to finish before force-disconnecting what remains.
        self.drain_timeout = drain_timeout
        self.view_registry = view_registry
        self.session_setup = session_setup
        #: The watchdog's kill threshold: a cursor older than this many
        #: seconds has its token cancelled (typed error on the client's next
        #: fetch) and is counted in the ``watchdog_kills`` book.  ``None``
        #: (the default) runs no watchdog thread at all.
        self.max_query_runtime = max_query_runtime
        self.watchdog_interval = watchdog_interval
        #: Per-session admission quotas: most open cursors one session may
        #: hold at once, and the session-wide memory cap its governed runs
        #: charge.  ``None`` = unlimited, exactly as before.
        self.session_cursor_quota = session_cursor_quota
        self.session_memory_limit = session_memory_limit
        self.stats = Books(SERVER_BOOKS)
        self.address: Optional[Tuple[str, int]] = None
        self._slots = threading.BoundedSemaphore(max_concurrent_queries)
        self._closing = threading.Event()
        #: Set while a graceful stop drains: new connections and new query
        #: admissions are refused, but in-flight work — including open
        #: cursors' fetches — keeps being served until the drain deadline.
        self._draining = threading.Event()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._connections: set = set()
        self._states: set = set()
        self._threads: List[threading.Thread] = []
        self._active_sessions = 0
        self._cursor_counter = 0
        self._watchdog_stop = threading.Event()
        self._watchdog_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "KleisliServer":
        """Bind, listen, and start accepting connections in the background."""
        if self._listener is not None:
            raise QueryServiceError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self.address = listener.getsockname()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="kleisli-server-accept", daemon=True)
        self._accept_thread.start()
        if self.max_query_runtime is not None:
            self._watchdog_stop.clear()
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, name="kleisli-server-watchdog",
                daemon=True)
            self._watchdog_thread.start()
        return self

    def stop(self) -> None:
        """Gracefully stop: drain in-flight work, flush, then tear down.

        Three phases.  **Drain**: stop accepting connections and refuse
        new query admissions (typed ``ServerOverloadedError``, so a
        retrying client sees backpressure, not a vanished server), while
        in-flight queries and open cursors keep being served — a client
        mid-stream gets to finish — for up to ``drain_timeout`` seconds.
        **Teardown**: whatever is still in flight after the deadline is
        force-disconnected exactly as the old abrupt stop did, and every
        thread is joined.  **Flush**: the engine's plan store (when one is
        attached) is durably flushed, so the learned state of everything
        this server ran survives to warm-start the next process.
        """
        hub = self.engine.observability
        if hub is not None and not self._draining.is_set():
            hub.drains.inc()
        self._draining.set()
        self._watchdog_stop.set()
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(timeout=5.0)
            self._watchdog_thread = None
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                # shutdown() wakes a thread blocked in accept(); close()
                # alone leaves it stuck until a connection happens by.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - teardown race
                pass
        # Wait for the slots to come home: open cursors hold theirs until
        # closed/drained, so zero in flight means no client is mid-query
        # or mid-stream.  Idle sessions hold no slots and don't delay this.
        deadline = time.monotonic() + self.drain_timeout
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(timeout=remaining)
        self._closing.set()
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)
        self.engine.flush_plan_store()
        self._closing.clear()
        self._draining.clear()
        self.address = None

    def __enter__(self) -> "KleisliServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active_sessions

    # -- accept / serve loops ------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        # Its own reference: stop() clears ``self._listener`` while this
        # thread may be between accepts; the closed socket then ends it.
        while not self._closing.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closing.is_set() or self._draining.is_set():
                    conn.close()
                    return
                if self._active_sessions >= self.max_sessions:
                    admit = False
                else:
                    admit = True
                    self._active_sessions += 1
                    self._connections.add(conn)
            if not admit:
                self.stats.count("sessions_refused")
                try:
                    send_message(conn, {
                        "ok": False,
                        "error_type": "ServerOverloadedError",
                        "error": f"server at its {self.max_sessions}-session "
                                 f"capacity; retry later"})
                except OSError:
                    pass
                conn.close()
                continue
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            with self._lock:
                # Prune finished threads BEFORE appending: the new thread
                # has not started yet, so it is not alive, and pruning after
                # the append would silently drop it from the join list —
                # stop() would then tear down under still-running sessions.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
            thread.start()

    def _watchdog_loop(self) -> None:
        """Cancel every cursor that has outlived ``max_query_runtime``.

        The kill is cooperative: only the token is cancelled, so the run
        raises its typed :class:`~repro.core.errors.QueryCancelledError` at
        the next checkpoint (the client's next fetch surfaces it) and its
        ``EvalScope`` releases every cursor on the way out.  The serving
        thread — not this one — does the teardown, so the watchdog can
        never race a fetch mid-value.
        """
        limit = self.max_query_runtime
        while not self._watchdog_stop.wait(self.watchdog_interval):
            now = time.monotonic()
            with self._lock:
                states = list(self._states)
            for state in states:
                try:
                    cursors = list(state.cursors.values())
                except RuntimeError:  # pragma: no cover - dict resize race
                    continue
                for cursor in cursors:
                    if (cursor.token is not None
                            and not cursor.watchdog_killed
                            and now - cursor.opened_at > limit):
                        cursor.watchdog_killed = True
                        cursor.token.cancel(
                            f"watchdog: query exceeded max runtime "
                            f"of {limit}s")
                        self.engine.governor.count("watchdog_kills")

    def _serve_connection(self, conn: socket.socket) -> None:
        self.stats.count("sessions_opened")
        session = Session(engine=self.engine,
                          memory_limit=self.session_memory_limit)
        gateway = None
        if self.view_registry is not None:
            from ..views.gateway import ViewGateway
            gateway = ViewGateway(session, self.view_registry)
        state = _Connection(session, gateway)
        with self._lock:
            self._states.add(state)
        try:
            if self.session_setup is not None:
                self.session_setup(session)
            while not self._closing.is_set():
                try:
                    message = recv_message(conn)
                except (WireProtocolError, OSError):
                    break
                if message is None:
                    break
                if message.get("op") == "bye":
                    try:
                        send_message(conn, {"ok": True, "op": "bye"})
                    except OSError:
                        pass
                    break
                response = self._handle(state, message)
                try:
                    send_message(conn, response)
                except (WireProtocolError, OSError):
                    break
                finally:
                    state.flush_pending()
        finally:
            # One client's exit — clean, mid-stream, or mid-query — releases
            # exactly its own resources: its cursors' EvalScopes and
            # admission slots.  Nothing here touches shared engine state.
            state.close()
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown race
                pass
            with self._lock:
                self._connections.discard(conn)
                self._states.discard(state)
                self._active_sessions -= 1
            self.stats.count("sessions_closed")

    # -- admission control ---------------------------------------------------

    def _admit(self) -> Tuple[str, _AdmissionSlot]:
        """Acquire one in-flight-query slot, honouring the policy.

        Returns ``(how, slot)`` where ``how`` is ``"immediate"`` or
        ``"queued"`` (the response surfaces it, so clients can observe
        backpressure building before rejections start).  Raises
        :class:`ServerOverloadedError` when the policy rejects.
        """
        hub = self.engine.observability
        if self._draining.is_set():
            # A draining server admits nothing new; in-flight work (and
            # open cursors' fetches, which hold their slot already) keeps
            # being served until the drain deadline.
            self.stats.count("rejections")
            raise ServerOverloadedError("server is draining; retry elsewhere")
        if self._slots.acquire(blocking=False):
            if hub is not None:
                hub.admissions_immediate.inc()
            return "immediate", self._make_slot()
        if self.admission == "reject":
            self.stats.count("rejections")
            raise ServerOverloadedError(
                f"server at its {self.max_concurrent_queries} in-flight "
                f"query cap (policy: reject)")
        self.stats.count("queued")
        queued_at = time.monotonic()
        admitted = self._slots.acquire(timeout=self.queue_timeout)
        if hub is not None:
            hub.observe_queue_wait(time.monotonic() - queued_at, admitted)
        if admitted:
            return "queued", self._make_slot()
        self.stats.count("rejections")
        raise ServerOverloadedError(
            f"no in-flight query slot freed within {self.queue_timeout}s "
            f"(cap {self.max_concurrent_queries}, policy: queue)")

    def _make_slot(self) -> _AdmissionSlot:
        with self._inflight_cond:
            self._inflight += 1
        return _AdmissionSlot(self._slots, on_release=self._slot_released)

    def _slot_released(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if self._inflight <= 0:
                self._inflight_cond.notify_all()

    # -- request dispatch ----------------------------------------------------

    def _handle(self, state: _Connection, message: dict) -> dict:
        op = message.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            return {"ok": False, "error_type": "WireProtocolError",
                    "error": f"unknown op {op!r}"}
        try:
            return handler(self, state, message)
        except ServerOverloadedError as error:
            # Not a failure: the request was *never admitted*; the session
            # stays healthy and may retry.
            return {"ok": False, "error_type": "ServerOverloadedError",
                    "error": str(error), "admission": "rejected"}
        except ReproError as error:
            self.stats.count("failures")
            return {"ok": False, "error_type": type(error).__name__,
                    "error": str(error)}
        except Exception as error:  # noqa: BLE001 - the server must survive
            self.stats.count("failures")
            return {"ok": False, "error_type": "InternalError",
                    "error": f"{type(error).__name__}: {error}"}

    @staticmethod
    def _required_str(message: dict, key: str) -> str:
        value = message.get(key)
        if not isinstance(value, str):
            raise WireProtocolError(f"op requires a string {key!r} field")
        return value

    def _op_hello(self, state: _Connection, message: dict) -> dict:
        return {"ok": True, "server": "kleisli-query-service",
                "protocol": PROTOCOL_VERSION,
                "ops": sorted([*self._OPS, "bye"])}

    @staticmethod
    def _run_options(message: dict) -> Dict[str, object]:
        """The run options a request carries: the five of
        :class:`~repro.kleisli.engine.QueryOptions` that cross the wire.

        All are optional on every query-running op.  They arrive as
        untrusted input, so they are checked here and a bad one is a wire
        error (the request never reaches the engine).
        """
        options: Dict[str, object] = {}
        deadline = message.get("deadline")
        if deadline is not None:
            if isinstance(deadline, bool) \
                    or not isinstance(deadline, (int, float)) or deadline <= 0:
                raise WireProtocolError(
                    "'deadline' must be a positive number of seconds")
            options["deadline"] = float(deadline)
        policy = message.get("on_source_failure")
        if policy is not None:
            if policy not in ("fail", "degrade"):
                raise WireProtocolError(
                    "'on_source_failure' must be 'fail' or 'degrade'")
            options["on_source_failure"] = policy
        budget = message.get("memory_budget")
        if budget is not None:
            if isinstance(budget, bool) or not isinstance(budget, int) \
                    or budget <= 0:
                raise WireProtocolError(
                    "'memory_budget' must be a positive integer of bytes")
            options["memory_budget"] = budget
        for flag in ("spill", "profile"):
            value = message.get(flag)
            if value is not None:
                if not isinstance(value, bool):
                    raise WireProtocolError(f"'{flag}' must be a boolean")
                options[flag] = value
        return options

    def _op_run(self, state: _Connection, message: dict,
                query: bool = False) -> dict:
        source = self._required_str(message, "source")
        options = self._run_options(message)
        how, slot = self._admit()
        try:
            if query:
                value = state.session.query(source, **options).value
            else:
                value = state.session.run(source, **options)
        finally:
            slot.release()
        self.stats.count("queries")
        return {"ok": True, "value": encode_value(value), "admission": how,
                "warnings": encode_warnings(
                    self.engine.thread_eval_statistics())}

    def _op_query(self, state: _Connection, message: dict) -> dict:
        return self._op_run(state, message, query=True)

    def _op_open(self, state: _Connection, message: dict) -> dict:
        source = self._required_str(message, "source")
        options = self._run_options(message)
        quota = self.session_cursor_quota
        if quota is not None and len(state.cursors) >= quota:
            # Admission control, not failure: the quota protects the shared
            # slot pool from one session holding every slot through idle
            # cursors; close (or drain) one and retry.
            self.stats.count("rejections")
            raise ServerOverloadedError(
                f"session at its {quota}-cursor quota; close a cursor first")
        token = CancellationToken()
        how, slot = self._admit()
        try:
            stream = state.session.stream(source, cancellation=token,
                                          **options)
        except BaseException:
            slot.release()
            raise
        with self._lock:
            self._cursor_counter += 1
            cursor_id = f"c{self._cursor_counter}"
        state.cursors[cursor_id] = _Cursor(
            stream, slot, self.stats,
            statistics=self.engine.thread_eval_statistics(), token=token)
        self.stats.count("cursors_opened")
        self.stats.count("queries")
        return {"ok": True, "cursor": cursor_id, "admission": how}

    def _op_fetch(self, state: _Connection, message: dict) -> dict:
        cursor_id = self._required_str(message, "cursor")
        cursor = state.cursors.get(cursor_id)
        if cursor is None:
            raise QueryServiceError(f"unknown cursor {cursor_id!r}")
        count = message.get("n", 32)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise WireProtocolError("fetch requires a positive integer 'n'")
        count = min(count, MAX_FETCH_BATCH)
        try:
            rows = list(islice(cursor.stream, count))
            # One encoded list per batch: a run of same-shape rows ships
            # its labels once (the ``rows`` block of :mod:`.wire`).
            values = encode_value(CList(rows))
        except Exception:
            # A mid-stream failure ends the cursor: its EvalScope has
            # already released the run's cursors; drop the partial batch
            # and surface the error (the session itself stays usable).
            state.cursors.pop(cursor_id, None)
            cursor.close()
            raise
        done = len(rows) < count
        if done:
            state.cursors.pop(cursor_id, None)
            cursor.retire()
            state.pending.append(cursor)
        return {"ok": True, "values": values, "done": done,
                "warnings": encode_warnings(cursor.statistics)}

    def _op_close(self, state: _Connection, message: dict) -> dict:
        cursor_id = self._required_str(message, "cursor")
        cursor = state.cursors.pop(cursor_id, None)
        if cursor is not None:
            cursor.retire()
            state.pending.append(cursor)
        return {"ok": True, "closed": cursor is not None}

    def _op_cancel(self, state: _Connection, message: dict) -> dict:
        """Cancel one of this session's cursors mid-stream.

        The token is cancelled first — so the run's books record a
        cancellation, not a routine close — then the cursor is torn down
        exactly like ``close``: its ``EvalScope`` releases the run's
        cursors, and the admission slot is returned once this reply is on
        the wire.  Only the target query is touched; the session (and every
        other session on the shared engine) keeps working.
        """
        cursor_id = self._required_str(message, "cursor")
        cursor = state.cursors.pop(cursor_id, None)
        if cursor is not None:
            if cursor.token is not None:
                cursor.token.cancel("cancelled by client")
            cursor.retire()
            state.pending.append(cursor)
        return {"ok": True, "cancelled": cursor is not None}

    def _op_view(self, state: _Connection, message: dict) -> dict:
        if state.gateway is None:
            raise QueryServiceError("this server exposes no views")
        path = self._required_str(message, "path")
        form = message.get("form")
        if form is not None and not isinstance(form, dict):
            raise WireProtocolError("view 'form' must be an object")
        section = message.get("section")
        if section is not None and section not in ("body", "value"):
            raise WireProtocolError("view 'section' must be 'body' or 'value'")
        offset = _offset(message, "view")
        how, slot = self._admit()
        try:
            response = state.gateway.handle(path, form)
        finally:
            slot.release()
        self.stats.count("queries")
        payload = response.as_payload()
        payload["ok"] = True
        payload["admission"] = how
        if response.value is not None:
            payload["value"] = encode_value(response.value)
        if section is not None:
            keep = {"ok", "admission", "status", "view_ok", "content_type",
                    section}
            payload = {key: value for key, value in payload.items()
                       if key in keep}
            if section == "body" and "body" not in payload:
                payload["body"] = ""
        return self._cap_view(payload, offset, section)

    def _cap_view(self, payload: dict, offset: int,
                  section: Optional[str]) -> dict:
        """Keep a ``view`` reply under the wire frame cap.

        A view body (markup rendered over an unbounded query result) and
        its CPL value can each outgrow a frame, and an oversized reply
        would kill the connection at the framing layer — exactly the
        failure :meth:`_cap_stats` guards the ``stats`` op against.  Over
        budget, the ``value`` is shed first (re-request it as its own
        ``section: "value"`` frame), then the body is cut and ``next_offset``
        tells the client where to resume (``section: "body", offset: n``).
        """
        body = payload.get("body")
        if offset and isinstance(body, str):
            payload["body"] = body[offset:]
        if _fits(payload):
            return payload
        dropped: List[str] = []
        if section != "value" and "value" in payload:
            del payload["value"]
            dropped.append("value")
        body = payload.get("body")
        if not _fits(payload) and isinstance(body, str):
            kept = body
            while not _fits(payload) and kept:
                kept = kept[: len(kept) // 2]
                payload["body"] = kept
            if len(kept) < len(body):
                dropped.append("body")
                payload["next_offset"] = offset + len(kept)
        if not _fits(payload):
            # The one un-pageable case: a single encoded value larger than
            # a frame, explicitly requested.  Refuse it typed instead of
            # letting the framing layer kill the connection.
            raise WireProtocolError(
                "view section does not fit one frame even alone; "
                "stream the underlying query through a cursor instead")
        if dropped:
            payload["truncated"] = dropped
            payload["hint"] = ("re-request one section at a time: "
                               "{'op': 'view', 'section': <name>, "
                               "'offset': <next_offset>}")
        return payload

    def _op_metrics(self, state: _Connection, message: dict) -> dict:
        """Prometheus-style text exposition of the engine's metrics registry.

        Frame-capped like ``stats``: an oversized rendering is cut and the
        reply carries ``next_offset`` so the client pages through with
        ``{'op': 'metrics', 'offset': <next_offset>}``.
        """
        offset = _offset(message, "metrics")
        hub = self.engine.observability
        if hub is None:
            return {"ok": True, "attached": False, "text": "",
                    "complete": True}
        engine = self.engine
        text = hub.render({"resilience": engine.resilience.totals(),
                           "governance": engine.governor.snapshot(),
                           "server": self.stats.snapshot()})
        reply = {"ok": True, "attached": True, "offset": offset,
                 "total_chars": len(text), "text": text[offset:],
                 "complete": True}
        return self._cap_text(reply, "text", offset)

    def _op_trace(self, state: _Connection, message: dict) -> dict:
        """Recent finished query traces from the hub's bounded ring.

        ``limit`` bounds how many traces are returned (newest last); the
        reply is frame-capped by dropping the oldest traces, reported in
        ``dropped`` so the client can lower ``limit`` and page.
        """
        limit = message.get("limit")
        if limit is not None and (isinstance(limit, bool)
                                  or not isinstance(limit, int) or limit < 1):
            raise WireProtocolError("trace 'limit' must be a positive integer")
        hub = self.engine.observability
        if hub is None:
            return {"ok": True, "attached": False, "traces": []}
        reply = {"ok": True, "attached": True,
                 "tracer": hub.tracer.snapshot(),
                 "traces": hub.tracer.recent(limit)}
        dropped = 0
        while not _fits(reply) and reply["traces"]:
            reply["traces"] = reply["traces"][1:]
            dropped += 1
        if dropped:
            reply["dropped"] = dropped
            reply["hint"] = "re-request with a smaller 'limit'"
        return reply

    def _op_profile(self, state: _Connection, message: dict) -> dict:
        """EXPLAIN ANALYZE for this connection's most recent profiled run.

        Works because every connection is served by exactly one thread:
        the engine parks each finished profile thread-locally, so the
        profile returned here is always *this* session's last query, never
        a concurrent neighbour's.
        """
        profile = self.engine.thread_profile()
        if profile is None:
            return {"ok": True, "available": False,
                    "hint": "run a query with {'profile': true} first"}
        reply = {"ok": True, "available": True, "render": profile.render(),
                 "profile": profile.as_dict()}
        if not _fits(reply):
            # The span tree is the only unbounded part (bounded per query,
            # but up to max_spans nodes with attributes); the tabular
            # profile always fits.
            reply["profile"]["trace"] = {"truncated": True}
            reply["truncated"] = ["profile.trace"]
        return reply

    def _cap_text(self, reply: dict, key: str, offset: int) -> dict:
        """Cut an oversized text field and advertise ``next_offset``."""
        full = reply.get(key, "")
        kept = full
        while not _fits(reply) and kept:
            kept = kept[: len(kept) // 2]
            reply[key] = kept
        if len(kept) < len(full):
            reply["complete"] = False
            reply["next_offset"] = offset + len(kept)
        return reply

    def _op_stats(self, state: _Connection, message: dict) -> dict:
        sections: Dict[str, Callable[[], object]] = {
            "server": self.stats.snapshot,
            "engine": self.engine.health,
            "sessions": lambda: self.active_sessions,
            "admission": lambda: {"policy": self.admission,
                                  "max_concurrent_queries":
                                      self.max_concurrent_queries,
                                  "queue_timeout": self.queue_timeout},
            # The governance books alone — what a monitoring poll wants,
            # without the whole engine health payload.
            "governance": self.engine.governor.snapshot,
            "observability": self._observability_section,
            "slow_queries": self._slow_queries_section,
        }
        section = message.get("section")
        if section is not None:
            if not isinstance(section, str) or section not in sections:
                raise WireProtocolError(
                    f"unknown stats section {section!r}; "
                    f"one of {sorted(sections)}")
            return self._cap_stats({"ok": True, section: sections[section]()})
        reply: dict = {"ok": True}
        for name, build in sections.items():
            if name in ("governance", "observability"):
                continue  # already inside the engine health payload
            if name == "slow_queries":
                continue  # full profiles are bulky; section-only
            reply[name] = build()
        return self._cap_stats(reply)

    def _observability_section(self) -> dict:
        hub = self.engine.observability
        return hub.snapshot() if hub is not None else {"attached": False}

    def _slow_queries_section(self) -> list:
        hub = self.engine.observability
        return hub.slow_queries.entries(limit=8) if hub is not None else []

    def _cap_stats(self, reply: dict) -> dict:
        """Keep a ``stats`` reply under the wire frame cap.

        The engine health payload is unbounded in principle (per-driver
        request counts, resilience books, persistence books all grow with
        configuration), and an oversized reply would kill the connection at
        the framing layer — the one op meant for observing an unhealthy
        server must never do that.  Over budget, the bulkiest sub-sections
        are shed (replaced by ``{"truncated": true}``) biggest-risk first
        and listed in ``truncated``, so the client can re-request each as
        its own ``section`` frame.
        """
        if _fits(reply):
            return reply
        dropped: List[str] = []
        victims: List[Tuple[str, dict, str]] = []
        engine = reply.get("engine")
        if isinstance(engine, dict):
            victims += [("engine." + key, engine, key)
                        for key in ("drivers", "resilience", "persistence",
                                    "observability")]
        victims += [(key, reply, key) for key in ("engine", "server")]
        for label, container, key in victims:
            if key not in container or container[key] == {"truncated": True}:
                continue
            container[key] = {"truncated": True}
            dropped.append(label)
            if _fits(reply):
                break
        reply["truncated"] = dropped
        reply["hint"] = "re-request one section at a time: " \
                        "{'op': 'stats', 'section': <name>}"
        return reply

    _OPS = {
        "hello": _op_hello,
        "run": _op_run,
        "query": _op_query,
        "open": _op_open,
        "fetch": _op_fetch,
        "close": _op_close,
        "cancel": _op_cancel,
        "view": _op_view,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "trace": _op_trace,
        "profile": _op_profile,
    }
