"""The query service, one behaviour at a time.

Protocol basics (framing, codec, handshake), single-session semantics
(run/query/stream parity with a local session), session isolation on
disconnect, admission control (queue and reject policies, typed rejections,
drainability afterwards), the view op, and fault propagation — the
concurrency soak lives in ``test_concurrency.py``.
"""

import socket
import threading
import time

import pytest

from conftest import wait_until
from fault_drivers import FaultInjectingDriver

from repro.core.errors import (
    RemoteQueryError,
    ServerOverloadedError,
    WireProtocolError,
)
from repro.core.nrc.eval import EvalScope
from repro.core.values import CBag, CList, CSet, Record, UNIT_VALUE, Variant
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session
from repro.net.framing import encode_frame, recv_message, send_message
from repro.server import KleisliClient, KleisliServer
from repro.server.service import MAX_FETCH_BATCH
from repro.server.wire import decode_value, encode_value
from repro.views.parameters import ViewParameter
from repro.views.registry import ViewRegistry
from repro.views.view import UserView

DEFINE_DB = ('define DB == {[title = "perforin", year = 1989], '
             '[title = "bcr", year = 1992], '
             '[title = "exons", year = 1992]}')
YEAR_QUERY = '{p.title | \\p <- DB, p.year = 1992}'


@pytest.fixture()
def server():
    with KleisliServer(max_concurrent_queries=4) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with KleisliClient(server.address) as c:
        yield c


# ---------------------------------------------------------------------------
# wire codec + framing
# ---------------------------------------------------------------------------

class TestWireCodec:
    VALUES = [
        None, True, 0, -7, 3.5, "hello", b"\x00\xffraw", UNIT_VALUE,
        Record({"title": "t", "year": 1989}),
        CSet(["b", "a", "c"]),
        CBag([1, 1, 2]),
        CList([3, 1, 2, 1]),
        Variant("controlled", Variant("medline-jta", "J Immunol")),
        CList([Record({"authors": CList([Record({"name": "Hart"})]),
                       "keywd": CSet(["Exons"]),
                       "journal": Variant("uncontrolled", "preprint")})]),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=[str(i) for i in range(len(VALUES))])
    def test_round_trip_is_identity(self, value):
        assert decode_value(encode_value(value)) == value

    def test_list_order_survives(self):
        value = CList([5, 3, 5, 1])
        assert list(decode_value(encode_value(value))) == [5, 3, 5, 1]

    def test_record_label_named_percent_cannot_be_confused(self):
        value = Record({"%": "not-a-tag", "x": 1})
        assert decode_value(encode_value(value)) == value

    def test_unencodable_value_raises(self):
        with pytest.raises(WireProtocolError):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(WireProtocolError):
            decode_value({"%": "frobnicate"})


class TestFraming:
    def test_messages_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_message(left, {"op": "hello", "n": 3})
            send_message(left, {"values": ["a", "b"]})
            assert recv_message(right) == {"op": "hello", "n": 3}
            assert recv_message(right) == {"values": ["a", "b"]}
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none_truncation_raises(self):
        left, right = socket.socketpair()
        try:
            left.close()
            assert recv_message(right) is None
        finally:
            right.close()
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame({"op": "hello"})[:-2])
            left.close()
            with pytest.raises(WireProtocolError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()


# ---------------------------------------------------------------------------
# protocol basics
# ---------------------------------------------------------------------------

class TestProtocolBasics:
    def test_hello_reports_protocol_and_ops(self, client):
        reply = client.hello()
        assert reply["protocol"] == 3
        assert {"run", "query", "open", "fetch", "close", "bye"} <= set(reply["ops"])

    def test_unknown_op_is_a_typed_protocol_error(self, client):
        with pytest.raises(RemoteQueryError) as info:
            client.request({"op": "frobnicate"})
        assert info.value.error_type == "WireProtocolError"

    def test_missing_source_is_a_typed_protocol_error(self, client):
        with pytest.raises(RemoteQueryError) as info:
            client.request({"op": "query"})
        assert info.value.error_type == "WireProtocolError"

    def test_define_only_program_returns_none(self, client):
        assert client.run(DEFINE_DB) is None

    def test_a_failing_query_does_not_poison_the_session(self, client):
        client.run(DEFINE_DB)
        with pytest.raises(RemoteQueryError):
            client.query('{p.title | \\p <- NoSuchSource}')
        assert client.query('{p.title | \\p <- DB, p.year = 1989}') == \
            CSet(["perforin"])
        assert client._closed is False

    def test_over_nested_text_is_a_typed_error_and_the_session_goes_on(self, client):
        with pytest.raises(RemoteQueryError, match="nests too deeply") as info:
            client.query("{" * 100 + "1" + "}" * 100)
        assert info.value.error_type == "CPLSyntaxError"
        assert client.query("{1}") == CSet([1])

    @pytest.mark.parametrize("wrapper", ["[a = f({})]", "<t = f({})>", "{{[a = f({})]}}"])
    def test_thirty_nested_speculations_answer_at_once(self, client, wrapper):
        # Under 350 characters that pinned the serving thread for hours: each
        # level's "is this a lambda?" speculation re-parsed all those below.
        client.run("define f == \\x => x")
        text = "1"
        for _ in range(30):
            text = wrapper.format(text)
        started = time.monotonic()
        value = client.query(text)
        assert time.monotonic() - started < 2.0
        for _ in range(30):
            if isinstance(value, CSet):
                (value,) = value
            value = value.project("a") if isinstance(value, Record) else value.value
        assert value == 1
        assert client.query("{1}") == CSet([1])


# ---------------------------------------------------------------------------
# parity with a local session
# ---------------------------------------------------------------------------

class TestParity:
    def test_query_value_is_bit_identical_to_local_execute(self, client):
        client.run(DEFINE_DB)
        served = client.query(YEAR_QUERY)
        reference = Session(engine=KleisliEngine())
        reference.run(DEFINE_DB)
        expected = reference.query(YEAR_QUERY).value
        assert served == expected
        assert type(served) is type(expected)

    def test_streamed_elements_match_execute_order(self, client):
        client.run('define Xs == [|9, 3, 7, 3, 1|]')
        reference = Session(engine=KleisliEngine())
        reference.run('define Xs == [|9, 3, 7, 3, 1|]')
        expected = list(reference.query('{x * 2 | \\x <- Xs}').value)
        for batch in (1, 2, 100):
            assert list(client.stream('{x * 2 | \\x <- Xs}', batch=batch)) == \
                expected

    def test_definitions_are_per_session(self, server):
        with KleisliClient(server.address) as a, \
                KleisliClient(server.address) as b:
            a.run('define N == 1')
            b.run('define N == 2')
            assert a.query('N + 0') == 1
            assert b.query('N + 0') == 2


# ---------------------------------------------------------------------------
# cursors and disconnects
# ---------------------------------------------------------------------------

def _cursor_server(**kwargs):
    engine = KleisliEngine()
    driver = engine.register_driver(FaultInjectingDriver(total=1000))
    return KleisliServer(engine, **kwargs), driver


class TestCursors:
    def test_drained_cursor_releases_itself(self):
        server, driver = _cursor_server()
        with server, KleisliClient(server.address) as client:
            values = list(client.stream('{x | \\x <- Faulty(5)}', batch=2))
            assert values == [0, 1, 2, 3, 4]
            assert driver.open_cursors == 0
            stats = server.stats.snapshot()
            assert stats["cursors_opened"] == stats["cursors_closed"] == 1

    def test_fetch_after_done_reports_unknown_cursor(self):
        server, _ = _cursor_server()
        with server, KleisliClient(server.address) as client:
            reply = client.request({"op": "open",
                                    "source": '{x | \\x <- Faulty(2)}'})
            cursor = reply["cursor"]
            reply = client.request({"op": "fetch", "cursor": cursor, "n": 10})
            assert reply["done"] is True
            with pytest.raises(RemoteQueryError) as info:
                client.request({"op": "fetch", "cursor": cursor, "n": 1})
            assert info.value.error_type == "QueryServiceError"

    def test_a_boolean_batch_size_is_rejected_and_the_cursor_survives(self):
        server, _ = _cursor_server()
        with server, KleisliClient(server.address) as client:
            cursor = client.open('{x | \\x <- Faulty(3)}')
            for bad in (True, False, 0, -1, 1.5, "2", None):
                with pytest.raises(RemoteQueryError) as info:
                    client.request({"op": "fetch", "cursor": cursor,
                                    "n": bad})
                assert info.value.error_type == "WireProtocolError"
            assert client.fetch(cursor, batch=10) == {
                "ok": True, "values": [0, 1, 2], "done": True,
                "warnings": []}

    @pytest.mark.parametrize("op", ["fetch", "close", "cancel"])
    def test_a_cursor_id_that_is_not_a_string_is_a_wire_error(self, op):
        server, _ = _cursor_server()
        with server, KleisliClient(server.address) as client:
            cursor = client.open('{x | \\x <- Faulty(3)}')
            for bad in ([cursor], {"id": cursor}, 1, None):
                with pytest.raises(RemoteQueryError) as info:
                    client.request({"op": op, "cursor": bad})
                assert info.value.error_type == "WireProtocolError"
            assert client.fetch(cursor, batch=10)["values"] == [0, 1, 2]

    def test_a_batch_is_clamped_to_the_fetch_cap(self):
        server, _ = _cursor_server()
        with server, KleisliClient(server.address) as client:
            cursor = client.open(f'{{x | \\x <- Faulty({MAX_FETCH_BATCH + 5})}}')
            first = client.fetch(cursor, batch=10**9)
            assert first["values"] == list(range(MAX_FETCH_BATCH))
            assert first["done"] is False
            rest = client.fetch(cursor, batch=10**9)
            assert rest["values"] == list(range(MAX_FETCH_BATCH,
                                                MAX_FETCH_BATCH + 5))
            assert rest["done"] is True

    def test_a_midstream_failure_drops_the_batch_and_closes_the_cursor(self):
        engine = KleisliEngine()
        driver = engine.register_driver(FaultInjectingDriver(
            total=1000, midstream_fail_on={1}, midstream_after=5))
        with KleisliServer(engine) as server, \
                KleisliClient(server.address) as client:
            cursor = client.open('{x | \\x <- Faulty(50)}')
            assert client.fetch(cursor, batch=2)["values"] == [0, 1]
            # The next batch would hold 2, 3, 4 and then the fault: none of
            # it is delivered, the error is, and the cursor is gone.
            with pytest.raises(RemoteQueryError) as info:
                client.fetch(cursor, batch=10)
            assert info.value.error_type == "DriverError"
            with pytest.raises(RemoteQueryError) as info:
                client.fetch(cursor, batch=10)
            assert info.value.error_type == "QueryServiceError"
            assert driver.open_cursors == 0
            stats = server.stats.snapshot()
            assert stats["cursors_opened"] == stats["cursors_closed"] == 1
            assert client.query('1 + 1') == 2

    def test_abandoning_the_client_generator_closes_the_cursor(self):
        server, driver = _cursor_server()
        with server, KleisliClient(server.address) as client:
            stream = client.stream('{x | \\x <- Faulty(1000)}', batch=2)
            assert next(stream) == 0
            assert driver.open_cursors == 1
            stream.close()
            assert wait_until(lambda: driver.open_cursors == 0)
            stats = server.stats.snapshot()
            assert stats["cursors_opened"] == stats["cursors_closed"] == 1

    def test_dirty_disconnect_closes_only_that_sessions_cursors(self):
        """A client that vanishes mid-stream (no goodbye) must have exactly
        its own cursors released; the surviving session keeps streaming."""
        server, driver = _cursor_server()
        baseline_scopes = EvalScope.live_count()
        with server:
            victim = KleisliClient(server.address)
            survivor = KleisliClient(server.address)
            victim_stream = victim.stream('{x | \\x <- Faulty(1000)}', batch=2)
            survivor_stream = survivor.stream('{x | \\x <- Faulty(1000)}',
                                              batch=2)
            assert next(victim_stream) == 0
            assert next(survivor_stream) == 0
            assert driver.open_cursors == 2
            victim.kill()
            assert wait_until(lambda: driver.open_cursors == 1), \
                "dead session's cursor not released"
            assert [next(survivor_stream) for _ in range(4)] == [1, 2, 3, 4]
            survivor.close()
        assert wait_until(lambda: driver.open_cursors == 0)
        assert EvalScope.live_count() == baseline_scopes, "leaked EvalScope"
        stats = server.stats.snapshot()
        assert stats["cursors_opened"] == stats["cursors_closed"] == 2
        assert stats["sessions_opened"] == stats["sessions_closed"] == 2


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_reject_policy_returns_typed_error_and_stays_drainable(self):
        server, driver = _cursor_server(max_concurrent_queries=1,
                                        admission="reject")
        with server, KleisliClient(server.address) as client:
            stream = client.stream('{x | \\x <- Faulty(1000)}', batch=2)
            assert next(stream) == 0  # the open cursor holds the only slot
            with pytest.raises(ServerOverloadedError):
                client.query('{x | \\x <- Faulty(3)}')
            assert server.stats.rejections == 1
            stream.close()  # frees the slot ...
            assert client.query('{x | \\x <- Faulty(3)}') == CSet([0, 1, 2])
            assert client.last_admission == "immediate"

    def test_queue_policy_waits_for_a_slot(self):
        server, _ = _cursor_server(max_concurrent_queries=1,
                                   admission="queue", queue_timeout=10.0)
        with server, KleisliClient(server.address) as holder, \
                KleisliClient(server.address) as waiter:
            stream = holder.stream('{x | \\x <- Faulty(1000)}', batch=2)
            assert next(stream) == 0
            outcome = {}

            def blocked_query():
                outcome["value"] = waiter.query('{x | \\x <- Faulty(3)}')
                outcome["admission"] = waiter.last_admission

            thread = threading.Thread(target=blocked_query)
            thread.start()
            assert wait_until(lambda: server.stats.queued == 1), \
                "waiter never queued"
            assert not outcome, "query finished while the slot was held"
            stream.close()
            thread.join(timeout=10.0)
            assert outcome["value"] == CSet([0, 1, 2])
            assert outcome["admission"] == "queued"
            assert server.stats.rejections == 0

    def test_queue_timeout_rejects_with_typed_error(self):
        server, _ = _cursor_server(max_concurrent_queries=1,
                                   admission="queue", queue_timeout=0.05)
        with server, KleisliClient(server.address) as client:
            stream = client.stream('{x | \\x <- Faulty(1000)}', batch=2)
            assert next(stream) == 0
            with pytest.raises(ServerOverloadedError, match="no in-flight"):
                client.query('{x | \\x <- Faulty(3)}')
            assert server.stats.rejections == 1
            stream.close()

    def test_session_cap_refuses_the_extra_connection(self):
        server, _ = _cursor_server(max_sessions=1)
        with server:
            with KleisliClient(server.address) as first:
                first.hello()  # guarantees the slot is taken
                second = KleisliClient(server.address)
                try:
                    with pytest.raises(ServerOverloadedError, match="capacity"):
                        second.hello()
                finally:
                    second.kill()
                assert server.stats.sessions_refused == 1
                # The admitted session is unaffected.
                assert first.query('{x | \\x <- Faulty(2)}') == CSet([0, 1])
            # ... and once it leaves, a new connection is admitted.
            assert wait_until(lambda: server.active_sessions == 0)
            with KleisliClient(server.address) as third:
                third.hello()


# ---------------------------------------------------------------------------
# the view op
# ---------------------------------------------------------------------------

def _view_server():
    registry = ViewRegistry()
    registry.register(UserView(
        "papers-from-year",
        '{[title = p.title] | \\p <- DB, p.year = year}',
        parameters=[ViewParameter("year", "int")],
        output="tabular"))
    return KleisliServer(view_registry=registry,
                         session_setup=lambda s: s.run(DEFINE_DB))


class TestViews:
    def test_view_submission_returns_body_and_decoded_value(self):
        with _view_server() as server, KleisliClient(server.address) as client:
            reply = client.view("papers-from-year", {"year": 1992})
            assert reply["status"] == 200 and reply["view_ok"] is True
            titles = {row.project("title") for row in reply["value"]}
            assert titles == {"bcr", "exons"}
            assert "bcr" in reply["body"]

    def test_view_without_form_serves_the_form_page(self):
        with _view_server() as server, KleisliClient(server.address) as client:
            reply = client.view("papers-from-year")
            assert reply["status"] == 200
            assert "value" not in reply
            assert "<form" in reply["body"]

    def test_unknown_view_is_a_404_not_a_dead_session(self):
        with _view_server() as server, KleisliClient(server.address) as client:
            assert client.view("nope")["status"] == 404
            assert client.view("papers-from-year", {"year": 1989})["view_ok"]

    def test_viewless_server_reports_a_typed_error(self, client):
        with pytest.raises(RemoteQueryError) as info:
            client.view("anything")
        assert info.value.error_type == "QueryServiceError"


# ---------------------------------------------------------------------------
# stats / health
# ---------------------------------------------------------------------------

class TestStats:
    def test_stats_op_exposes_service_and_engine_health(self, client):
        client.run(DEFINE_DB)
        client.query(YEAR_QUERY)
        reply = client.server_stats()
        assert reply["server"]["queries"] >= 1
        assert reply["admission"]["policy"] == "queue"
        health = reply["engine"]
        assert {"compile_cache", "drivers", "live_scopes"} <= set(health)
        assert "plan_feedback" not in health
        assert health["compile_cache"]["misses"] >= 1

    def test_a_section_that_is_not_a_string_is_a_wire_error(self, client):
        for bad in (["server"], {"name": "server"}, 1):
            with pytest.raises(RemoteQueryError) as info:
                client.request({"op": "stats", "section": bad})
            assert info.value.error_type == "WireProtocolError"
        assert client.server_stats("server")["server"]["failures"] == 3

    def test_fault_recovery_is_visible_in_failures_counter(self):
        engine = KleisliEngine()
        engine.register_driver(FaultInjectingDriver(fail_on={1}))
        with KleisliServer(engine) as server, \
                KleisliClient(server.address) as client:
            with pytest.raises(RemoteQueryError) as info:
                client.query('{x | \\x <- Faulty(3)}')
            assert info.value.error_type == "DriverError"
            # Recovery: the same session retries and succeeds.
            assert client.query('{x | \\x <- Faulty(3)}') == CSet([0, 1, 2])
            assert server.stats.failures == 1
