"""Server-side query governance: the cancel op, watchdog, quotas, stats cap.

The acceptance scenario this file pins: a mid-stream ``cancel`` wire op
tears down only the target query's cursors — the governance books balance,
other sessions are unaffected — under an 8-session soak; the watchdog kills
runaway queries cooperatively; per-session quotas (cursor count, memory)
reject at admission instead of letting one session exhaust the shared
engine; and the ``stats`` op caps its reply body against the 16 MiB frame
limit instead of killing the connection that asked about server health.
"""

import pytest

from conftest import wait_until

from repro.core.errors import RemoteQueryError, ServerOverloadedError
from repro.core.nrc.eval import EvalScope
from repro.kleisli.engine import KleisliEngine
from repro.obs import Observability
from repro.server import KleisliClient, KleisliServer

N = 400


def _setup(session):
    session.bind("Nums", list(range(N)))


@pytest.fixture()
def server():
    with KleisliServer(max_concurrent_queries=16,
                       session_setup=_setup) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with KleisliClient(server.address) as c:
        yield c


QUERY = "{ x | \\x <- Nums }"


# ---------------------------------------------------------------------------
# the cancel op
# ---------------------------------------------------------------------------

class TestCancelOp:
    def test_mid_stream_cancel_tears_down_and_books_balance(self, server, client):
        cursor = client.open(QUERY)
        first = client.fetch(cursor, batch=8)
        assert first["values"] == list(range(8)) and not first["done"]

        assert client.cancel(cursor) is True
        # Teardown is synchronous with the reply: the cursor is gone ...
        with pytest.raises(RemoteQueryError, match="unknown cursor"):
            client.fetch(cursor)
        # ... its EvalScope released the run's cursors ...
        assert wait_until(lambda: EvalScope.live_count() == 0)
        # ... and the books recorded exactly one cancellation.
        books = server.engine.governor.snapshot()
        assert books["cancellations"] == 1
        assert server.stats.cursors_opened == server.stats.cursors_closed == 1

    def test_cancel_unknown_cursor_reports_false(self, client):
        assert client.cancel("c999") is False

    def test_cancel_is_not_a_failure_session_stays_usable(self, server, client):
        cursor = client.open(QUERY)
        client.fetch(cursor, batch=4)
        client.cancel(cursor)
        assert list(client.stream("{ x | \\x <- Nums, x < 5 }")) == \
            list(range(5))
        assert server.stats.failures == 0

    def test_cancel_only_touches_the_target_query(self, server, client):
        survivor = client.open(QUERY)
        victim = client.open(QUERY)
        client.fetch(victim, batch=4)
        client.cancel(victim)
        # The surviving cursor in the SAME session drains completely.
        drained = []
        done = False
        while not done:
            reply = client.fetch(survivor, batch=64)
            drained.extend(reply["values"])
            done = reply["done"]
        assert drained == list(range(N))
        assert server.engine.governor.snapshot()["cancellations"] == 1


# ---------------------------------------------------------------------------
# the watchdog
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_runaway_cursor_is_killed_cooperatively(self):
        with KleisliServer(session_setup=_setup, max_query_runtime=0.2,
                           watchdog_interval=0.02) as server:
            with KleisliClient(server.address) as client:
                cursor = client.open(QUERY)
                client.fetch(cursor, batch=4)
                # Idle past the runtime limit: the watchdog cancels the
                # token (exactly once) but tears nothing down itself.
                assert wait_until(lambda: server.engine.governor.snapshot()
                                  ["watchdog_kills"] == 1)
                # The serving thread surfaces the typed error at the next
                # fetch — cooperative teardown, never mid-value.
                with pytest.raises(RemoteQueryError) as info:
                    while True:
                        client.fetch(cursor, batch=4)
                assert info.value.error_type == "QueryCancelledError"
                assert "watchdog" in str(info.value)
                books = server.engine.governor.snapshot()
                assert books["watchdog_kills"] == 1
                assert books["cancellations"] == 1
                assert wait_until(lambda: EvalScope.live_count() == 0)
                # The session survives its killed query.
                assert list(client.stream("{ x | \\x <- Nums, x < 3 }")) == \
                    [0, 1, 2]

    def test_fast_queries_never_meet_the_watchdog(self):
        with KleisliServer(session_setup=_setup, max_query_runtime=30.0,
                           watchdog_interval=0.02) as server:
            with KleisliClient(server.address) as client:
                assert len(list(client.stream(QUERY))) == N
                books = server.engine.governor.snapshot()
                assert books["watchdog_kills"] == 0
                assert books["cancellations"] == 0


# ---------------------------------------------------------------------------
# a cursor nobody ever fetched from still ends
# ---------------------------------------------------------------------------

class TestUnfetchedCursor:
    """The run behind a cursor starts on its first ``fetch``; a cursor that is
    cancelled, closed, dropped or killed before that must settle all the same
    (it used to answer ``cancelled: true`` and book nothing)."""

    @pytest.fixture()
    def governed(self):
        engine = KleisliEngine(memory_pool_limit=1 << 22)
        hub = engine.attach_observability(Observability())
        with KleisliServer(engine, session_setup=_setup,
                           max_concurrent_queries=4, max_query_runtime=0.1,
                           watchdog_interval=0.01) as srv:
            yield srv, hub

    @staticmethod
    def _balanced(server, hub, cancellations):
        def settled():
            tracer = hub.tracer.snapshot()
            return (tracer["started"] == tracer["finished"] > 0
                    and server.stats.cursors_opened
                    == server.stats.cursors_closed
                    # the slot goes back once the reply is on the wire
                    and server._inflight == 0)
        assert wait_until(settled)
        books = server.engine.governor.snapshot()
        assert books["cancellations"] == cancellations
        assert server.engine.governor.pool.used == 0
        assert EvalScope.live_count() == 0

    def test_open_then_cancel(self, governed):
        server, hub = governed
        with KleisliClient(server.address) as client:
            assert client.cancel(client.open(QUERY)) is True
            self._balanced(server, hub, cancellations=1)

    def test_open_then_close(self, governed):
        server, hub = governed
        with KleisliClient(server.address) as client:
            assert client.close_cursor(client.open(QUERY)) is True
            self._balanced(server, hub, cancellations=0)

    def test_dropped_connection(self, governed):
        server, hub = governed
        client = KleisliClient(server.address)
        client.open(QUERY)
        client.kill()
        self._balanced(server, hub, cancellations=0)

    def test_watchdog_kill(self, governed):
        server, hub = governed
        with KleisliClient(server.address) as client:
            cursor = client.open(QUERY)
            assert wait_until(lambda: server.engine.governor.snapshot()
                              ["watchdog_kills"] == 1)
            # Letting go of a killed cursor is the cancellation the
            # watchdog asked for, fetched from or not.
            assert client.close_cursor(cursor) is True
            self._balanced(server, hub, cancellations=1)


# ---------------------------------------------------------------------------
# per-session quotas
# ---------------------------------------------------------------------------

class TestSessionQuotas:
    def test_cursor_quota_rejects_at_admission(self):
        with KleisliServer(session_setup=_setup, max_concurrent_queries=16,
                           session_cursor_quota=2) as server:
            with KleisliClient(server.address) as client:
                first = client.open(QUERY)
                client.open(QUERY)
                with pytest.raises(ServerOverloadedError, match="quota"):
                    client.open(QUERY)
                assert server.stats.rejections == 1
                # Quota rejections are admission control, not failures —
                # closing a cursor frees the quota immediately.
                assert server.stats.failures == 0
                client.close_cursor(first)
                client.open(QUERY)

    def test_quota_is_per_session_not_global(self):
        with KleisliServer(session_setup=_setup, max_concurrent_queries=16,
                           session_cursor_quota=1) as server:
            with KleisliClient(server.address) as one, \
                    KleisliClient(server.address) as two:
                one.open(QUERY)
                two.open(QUERY)   # a different session: its own quota

    def test_session_memory_limit_rejects_oversized_queries(self):
        with KleisliServer(session_setup=_setup,
                           session_memory_limit=1024) as server:
            with KleisliClient(server.address) as client:
                with pytest.raises(RemoteQueryError) as info:
                    client.query(QUERY, spill=False)
                assert info.value.error_type == "MemoryBudgetExceededError"
                assert server.engine.governor.snapshot()
                # The failed run returned its charges: small queries fit.
                assert list(client.stream("{ x | \\x <- Nums, x < 4 }",
                                          spill=False)) == [0, 1, 2, 3]
                books = server.engine.governor.snapshot()
                assert books["budget_rejections"] == 1

    def test_per_request_budget_caps_inside_the_session_quota(self):
        with KleisliServer(session_setup=_setup,
                           session_memory_limit=1 << 20) as server:
            with KleisliClient(server.address) as client:
                with pytest.raises(RemoteQueryError) as info:
                    client.query(QUERY, memory_budget=64, spill=False)
                assert info.value.error_type == "MemoryBudgetExceededError"

    def test_invalid_governance_options_are_wire_errors(self, client):
        with pytest.raises(RemoteQueryError) as info:
            client.query(QUERY, memory_budget=-5)
        assert info.value.error_type == "WireProtocolError"
        with pytest.raises(RemoteQueryError) as info:
            client.request({"op": "query", "source": QUERY, "spill": "yes"})
        assert info.value.error_type == "WireProtocolError"


# ---------------------------------------------------------------------------
# the stats op: governance section + frame cap
# ---------------------------------------------------------------------------

class TestStatsOp:
    def test_governance_books_are_a_stats_section(self, server, client):
        cursor = client.open(QUERY)
        client.fetch(cursor, batch=4)
        client.cancel(cursor)
        reply = client.server_stats(section="governance")
        assert reply["governance"]["cancellations"] == 1
        # The full reply carries the books inside engine health.
        full = client.server_stats()
        assert full["engine"]["governance"]["cancellations"] == 1

    def test_unknown_section_is_a_wire_error(self, client):
        with pytest.raises(RemoteQueryError) as info:
            client.server_stats(section="nonsense")
        assert info.value.error_type == "WireProtocolError"

    def test_oversized_stats_reply_is_capped_not_fatal(self, server, client,
                                                       monkeypatch):
        # Shrink the soft budget so the ordinary reply is "oversized";
        # the hard 16 MiB frame cap still applies to what goes out.
        monkeypatch.setattr("repro.server.service._STATS_BYTE_BUDGET", 600)
        reply = client.server_stats()
        assert reply["truncated"]                 # something was shed ...
        assert "section" in reply["hint"]
        for label in reply["truncated"]:          # ... and marked in place
            container = reply
            for part in label.split("."):
                if container == {"truncated": True}:
                    break                         # an ancestor was shed too
                container = container[part]
            assert container == {"truncated": True}
        # Every shed section is re-requestable as its own frame.
        section = reply["truncated"][0].split(".")[0]
        follow_up = client.server_stats(section=section)
        assert follow_up[section] != {"truncated": True}
        # The connection survived the whole exchange.
        assert client.hello()["ok"]

    def test_stats_cap_prefers_shedding_engine_subsections(self, server,
                                                           client,
                                                           monkeypatch):
        from repro.net.framing import encode_frame
        full = client.server_stats()
        monkeypatch.setattr("repro.server.service._STATS_BYTE_BUDGET",
                            len(encode_frame(full)) - 1)
        reply = client.server_stats()
        # A near-miss budget sheds the bulkiest engine sub-section first,
        # keeping the server counters intact.
        assert reply["truncated"][0].startswith("engine.")
        assert "sessions_opened" in reply["server"]


# ---------------------------------------------------------------------------
# the 8-session soak
# ---------------------------------------------------------------------------

def test_eight_session_soak_cancel_some_drain_others():
    """Half the sessions cancel mid-stream, half drain to the end; every
    drained session sees exact values, the books balance, and nothing
    leaks."""
    engine = KleisliEngine()
    with KleisliServer(engine=engine, session_setup=_setup,
                       max_concurrent_queries=16) as server:
        clients = [KleisliClient(server.address) for _ in range(8)]
        try:
            cursors = [c.open(QUERY) for c in clients]
            # Everyone fetches a first batch mid-stream.
            for client, cursor in zip(clients, cursors):
                reply = client.fetch(cursor, batch=8)
                assert reply["values"] == list(range(8))
            # Sessions 0, 2, 4, 6 cancel; the rest drain fully.
            for i in (0, 2, 4, 6):
                assert clients[i].cancel(cursors[i]) is True
            for i in (1, 3, 5, 7):
                drained = list(range(8))
                done = False
                while not done:
                    reply = clients[i].fetch(cursors[i], batch=64)
                    drained.extend(reply["values"])
                    done = reply["done"]
                assert drained == list(range(N)), f"session {i} saw bad data"
            # Cancelled sessions remain usable alongside the drained ones.
            for i in (0, 2, 4, 6):
                assert list(clients[i].stream(
                    "{ x | \\x <- Nums, x < 2 }")) == [0, 1]
        finally:
            for client in clients:
                client.close()
        # The books balance: exactly the four cancels, nothing else.
        assert wait_until(
            lambda: server.stats.cursors_opened == server.stats.cursors_closed)
        books = engine.governor.snapshot()
        assert books["cancellations"] == 4
        assert books["watchdog_kills"] == 0
        assert books["budget_rejections"] == 0
        assert server.stats.failures == 0
        assert wait_until(lambda: EvalScope.live_count() == 0)
    assert wait_until(
        lambda: server.stats.sessions_opened == server.stats.sessions_closed)
