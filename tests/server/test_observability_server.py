"""The observability wire surface: metrics/trace/profile ops, view frame-cap.

Server-side behaviours PR 10 added:

* ``metrics`` — Prometheus text exposition, paged past the frame cap via
  ``offset``/``next_offset``;
* ``trace`` — the tracer's recent-trace ring, frame-capped by dropping the
  oldest traces;
* ``profile`` — this connection's last EXPLAIN ANALYZE (thread-local on
  the engine, so sessions never see each other's profiles);
* the ``view`` op is frame-capped like ``stats``: oversized replies shed
  ``value`` first, then page the body via ``section``/``offset``;
* admission outcomes and graceful drains feed the hub's counters.

Every op also answers on a hub-less server (``attached: false``) — the
zero-recorder contract extends to the wire.
"""

import pytest

from repro.obs import Observability
from repro.server import KleisliClient, KleisliServer
from repro.views.parameters import ViewParameter
from repro.views.registry import ViewRegistry
from repro.views.view import UserView

DEFINE_DB = ('define DB == {[title = "perforin", year = 1989], '
             '[title = "bcr", year = 1992], '
             '[title = "exons", year = 1992]}')
YEAR_QUERY = '{p.title | \\p <- DB, p.year = 1992}'


def _hub_server(**kwargs):
    server = KleisliServer(**kwargs)
    hub = server.engine.attach_observability(
        Observability(slow_query_threshold=0.0))
    return server, hub


@pytest.fixture()
def hub_server():
    server, hub = _hub_server()
    with server:
        yield server, hub


@pytest.fixture()
def client(hub_server):
    server, _ = hub_server
    with KleisliClient(server.address) as c:
        c.run(DEFINE_DB)
        yield c


# -- the metrics op -----------------------------------------------------------

class TestMetricsOp:
    def test_exposition_contains_the_standard_instruments(self, client):
        client.query(YEAR_QUERY)
        reply = client.metrics()
        assert reply["attached"] is True and reply["complete"] is True
        text = reply["text"]
        assert "# TYPE repro_queries_total counter" in text
        assert "# TYPE repro_driver_request_seconds histogram" in text
        assert client.metrics_text() == text

    def test_oversized_exposition_pages_by_offset(self, client, monkeypatch):
        client.query(YEAR_QUERY)
        full = client.metrics()["text"]
        monkeypatch.setattr("repro.server.service._STATS_BYTE_BUDGET", 900)
        first = client.metrics()
        assert first["complete"] is False
        assert 0 < len(first["text"]) < len(full)
        assert first["next_offset"] == len(first["text"])
        assert client.metrics_text() == full

    def test_hubless_server_answers_detached(self):
        with KleisliServer() as server, KleisliClient(server.address) as c:
            reply = c.metrics()
            assert reply["attached"] is False and reply["text"] == ""

    def test_bad_offset_is_a_typed_wire_error(self, client):
        from repro.core.errors import RemoteQueryError
        with pytest.raises(RemoteQueryError) as info:
            client.metrics(offset=-1)
        assert info.value.error_type == "WireProtocolError"


# -- the trace op -------------------------------------------------------------

class TestTraceOp:
    def test_finished_queries_appear_in_the_ring(self, client):
        client.query(YEAR_QUERY)
        client.query(YEAR_QUERY)
        reply = client.trace()
        assert reply["attached"] is True
        assert reply["tracer"]["finished"] >= 2
        assert len(reply["traces"]) >= 2
        assert reply["traces"][-1]["finished"] is True

    def test_limit_takes_the_newest(self, client):
        for _ in range(3):
            client.query(YEAR_QUERY)
        assert len(client.trace(limit=1)["traces"]) == 1

    def test_oversized_reply_drops_oldest_traces(self, client, monkeypatch):
        for _ in range(4):
            client.query(YEAR_QUERY)
        monkeypatch.setattr("repro.server.service._STATS_BYTE_BUDGET", 500)
        reply = client.trace()
        assert reply["dropped"] >= 1
        assert "hint" in reply

    def test_hubless_server_answers_detached(self):
        with KleisliServer() as server, KleisliClient(server.address) as c:
            assert c.trace() == {"ok": True, "attached": False, "traces": []}


# -- the profile op -----------------------------------------------------------

class TestProfileOp:
    def test_profiled_query_yields_explain_analyze(self, client):
        value = client.query(YEAR_QUERY, profile=True)
        assert {v for v in value} == {"bcr", "exons"}
        reply = client.profile()
        assert reply["available"] is True
        assert reply["render"].startswith("EXPLAIN ANALYZE")
        profile = reply["profile"]
        assert profile["actual_rows"] == 2.0
        assert profile["status"] == "ok"
        assert profile["trace"] is not None

    def test_profile_is_per_connection(self, hub_server):
        server, _ = hub_server
        with KleisliClient(server.address) as a, \
                KleisliClient(server.address) as b:
            a.run(DEFINE_DB)
            a.query(YEAR_QUERY, profile=True)
            assert a.profile()["available"] is True
            assert b.profile()["available"] is False

    def test_streamed_profile_finalizes_when_the_cursor_drains(self, client):
        elements = list(client.stream(YEAR_QUERY, profile=True))
        assert len(elements) == 2
        reply = client.profile()
        assert reply["available"] is True
        assert reply["profile"]["actual_rows"] == 2.0

    def test_oversized_profile_sheds_the_span_tree(self, client, monkeypatch):
        client.query(YEAR_QUERY, profile=True)
        monkeypatch.setattr("repro.server.service._STATS_BYTE_BUDGET", 700)
        reply = client.profile()
        assert reply["truncated"] == ["profile.trace"]
        assert reply["profile"]["trace"] == {"truncated": True}
        assert reply["render"].startswith("EXPLAIN ANALYZE")


# -- stats sections -----------------------------------------------------------

class TestStatsSections:
    def test_observability_section_reports_the_hub(self, client):
        client.query(YEAR_QUERY)
        section = client.server_stats("observability")["observability"]
        assert section["attached"] is True
        assert section["tracer"]["finished"] >= 1
        assert section["metric_count"] == 9

    def test_slow_queries_section_lists_profiles(self, client):
        client.query(YEAR_QUERY)
        entries = client.server_stats("slow_queries")["slow_queries"]
        assert entries and entries[-1]["actual_rows"] == 2.0

    def test_sections_answer_detached_without_a_hub(self):
        with KleisliServer() as server, KleisliClient(server.address) as c:
            reply = c.server_stats("observability")
            assert reply["observability"] == {"attached": False}
            assert c.server_stats("slow_queries")["slow_queries"] == []


# -- admission + drain counters -----------------------------------------------

class TestServiceCounters:
    def test_immediate_admissions_are_counted(self, hub_server):
        server, hub = hub_server
        with KleisliClient(server.address) as c:
            c.run(DEFINE_DB)
            c.query(YEAR_QUERY)
        assert hub.admissions_immediate.value >= 2

    def test_graceful_stop_counts_one_drain(self):
        server, hub = _hub_server()
        server.start()
        server.stop()
        assert hub.drains.value == 1


# -- the view frame cap -------------------------------------------------------

def _view_server():
    registry = ViewRegistry()
    registry.register(UserView(
        "papers-from-year",
        '{[title = p.title] | \\p <- DB, p.year = year}',
        parameters=[ViewParameter("year", "int")],
        output="tabular"))
    return KleisliServer(view_registry=registry,
                         session_setup=lambda s: s.run(DEFINE_DB))


class TestViewFrameCap:
    def test_small_replies_pass_through_untouched(self):
        with _view_server() as server, KleisliClient(server.address) as c:
            reply = c.view("papers-from-year", {"year": 1992})
            assert "truncated" not in reply
            assert {r.project("title") for r in reply["value"]} == \
                {"bcr", "exons"}

    def test_oversized_reply_sheds_value_then_pages_the_body(self,
                                                             monkeypatch):
        with _view_server() as server, KleisliClient(server.address) as c:
            full = c.view("papers-from-year", {"year": 1992})
            monkeypatch.setattr("repro.server.service._STATS_BYTE_BUDGET", 420)
            capped = c.view("papers-from-year", {"year": 1992})
            assert "value" not in capped
            assert "value" in capped["truncated"]
            assert capped["status"] == full["status"] == 200
            # page the body back together, one section frame at a time
            body, offset = "", 0
            while True:
                page = c.view("papers-from-year", {"year": 1992},
                              section="body", offset=offset)
                body += page["body"]
                if "next_offset" not in page:
                    break
                offset = page["next_offset"]
            assert body == full["body"]
            # and the shed value is re-requestable as its own section
            value_reply = c.view("papers-from-year", {"year": 1992},
                                 section="value")
            titles = {r.project("title") for r in value_reply["value"]}
            assert titles == {"bcr", "exons"}

    def test_bad_section_and_offset_are_typed_wire_errors(self):
        from repro.core.errors import RemoteQueryError
        with _view_server() as server, KleisliClient(server.address) as c:
            with pytest.raises(RemoteQueryError) as info:
                c.view("papers-from-year", section="nope")
            assert info.value.error_type == "WireProtocolError"
            with pytest.raises(RemoteQueryError) as info:
                c.view("papers-from-year", offset=-3)
            assert info.value.error_type == "WireProtocolError"
