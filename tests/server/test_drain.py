"""Graceful drain: ``KleisliServer.stop()`` lets in-flight work finish.

The drain contract, one behaviour at a time: a mid-stream client drains
its cursor to the last element while the server is stopping; new
admissions during the drain are refused with a typed overload error (not a
vanished connection); a cursor held past the drain deadline is
force-closed exactly as the old abrupt stop did; and the engine's plan
store is written at the end of the stop, so everything the
server's queries taught the planner survives the process.
"""

import os
import socket
import threading
import time

import pytest

from conftest import wait_until
from fault_drivers import FaultInjectingDriver

from repro.core.errors import ServerOverloadedError
from repro.core.planner import PlanStore
from repro.kleisli.engine import KleisliEngine
from repro.server import KleisliClient, KleisliServer

QUERY = "{x | \\x <- Faulty(40)}"


def _server(tmp_path=None, drain_timeout=5.0, latency=None):
    engine = KleisliEngine(
        plan_store=PlanStore(os.fspath(tmp_path / "plans"))
        if tmp_path is not None else None)
    engine.register_driver(
        FaultInjectingDriver(total=1000, latency=latency))
    return KleisliServer(engine=engine, max_concurrent_queries=4,
                         drain_timeout=drain_timeout)


def test_mid_stream_client_finishes_during_drain(tmp_path):
    server = _server().start()
    try:
        with KleisliClient(server.address) as client:
            stream = client.stream(QUERY, batch=4)
            consumed = [next(stream) for _ in range(8)]  # mid-stream now
            results = {}

            def finish():
                results["rest"] = list(stream)

            def stop():
                server.stop()

            stopper = threading.Thread(target=stop)
            stopper.start()
            # The drain must keep serving this cursor's fetches: the
            # client finishes its stream while the server is stopping.
            finisher = threading.Thread(target=finish)
            finisher.start()
            finisher.join(timeout=10.0)
            stopper.join(timeout=10.0)
            assert not finisher.is_alive()
            assert not stopper.is_alive()
            assert consumed + results["rest"] == list(range(40))
    finally:
        if server.address is not None:  # pragma: no cover - failure path
            server.stop()


def test_drain_refuses_new_admissions_with_typed_error():
    server = _server().start()
    client = KleisliClient(server.address)
    try:
        stream = client.stream(QUERY, batch=4)
        next(stream)  # hold one cursor so the drain has work to wait on
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        assert wait_until(lambda: server._draining.is_set())
        # A new query on the existing connection during the drain: typed
        # rejection, session and connection stay usable for the cursor.
        with pytest.raises(ServerOverloadedError):
            client.query("{x | \\x <- Faulty(3)}")
        rest = list(stream)
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert len(rest) == 39
    finally:
        client.close()
        if server.address is not None:
            server.stop()


def test_drain_deadline_force_closes_stuck_cursors():
    server = _server(drain_timeout=0.2).start()
    client = KleisliClient(server.address)
    try:
        stream = client.stream(QUERY, batch=4)
        next(stream)
        # Nobody drains the cursor: stop() must give up at the deadline
        # and force-disconnect, not hang.
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        assert server.stats.cursors_opened == server.stats.cursors_closed
    finally:
        client.close()
        if server.address is not None:  # pragma: no cover - failure path
            server.stop()


def test_accept_thread_survives_stop_racing_new_connections():
    """The drain-deadline scenario with clients still knocking: ``stop()``
    clears the listener while the accept loop is between accepts, and no
    server thread may die of an unhandled exception over it."""
    unhandled = []
    previous, threading.excepthook = threading.excepthook, unhandled.append
    try:
        for _ in range(3):
            server = _server(drain_timeout=0.05).start()
            address = server.address
            client = KleisliClient(address)
            stopped = threading.Event()

            def knock():
                while not stopped.is_set():
                    try:
                        socket.create_connection(address, timeout=0.2).close()
                    except OSError:
                        return

            knockers = [threading.Thread(target=knock) for _ in range(4)]
            try:
                stream = client.stream(QUERY, batch=4)
                next(stream)  # a cursor nobody drains: stop() waits on it
                for knocker in knockers:
                    knocker.start()
                server.stop()
            finally:
                stopped.set()
                for knocker in knockers:
                    knocker.join(timeout=5.0)
                client.close()
            assert not any(knocker.is_alive() for knocker in knockers)
    finally:
        threading.excepthook = previous
    assert [(args.thread.name, args.exc_type) for args in unhandled] == []


def test_stop_flushes_plan_store_for_warm_restart(tmp_path):
    server = _server(tmp_path).start()
    with KleisliClient(server.address) as client:
        values = list(client.stream(QUERY, batch=16))
        assert values == list(range(40))
    server.stop()
    books = server.engine.health()["persistence"]
    assert books["writes"] >= 2                 # the registration, the stop
    assert books["write_failures"] == 0

    # A fresh engine on the same store warm-starts from this server's
    # statistics.
    warm = KleisliEngine(plan_store=PlanStore(os.fspath(tmp_path / "plans")))
    assert warm.health()["persistence"]["entries_loaded"] >= 1
    assert warm.statistics_registry.cardinality("Faulty", "t") == 1000


def test_stats_op_reports_persistence_books(tmp_path):
    server = _server(tmp_path).start()
    try:
        with KleisliClient(server.address) as client:
            list(client.stream(QUERY, batch=16))
            stats = client.server_stats()
            books = stats["engine"]["persistence"]
            assert books["attached"] is True
            assert books["writes"] >= 1
    finally:
        server.stop()


def test_storeless_server_stop_is_unchanged():
    server = _server().start()
    with KleisliClient(server.address) as client:
        assert client.query("{x | \\x <- Faulty(3)}") is not None
    server.stop()
    assert server.address is None
    assert server.engine.health()["persistence"] == {"attached": False}
