"""The served session's lifecycle as a state machine: whatever two clients do,
the books balance.

One :class:`KleisliServer` — engine pool, observability hub, a gated lazy
driver, a session quota — and two clients that ``query``, ``open``, ``fetch``,
``cancel``, ``close_cursor`` and drop their connection in any order hypothesis
cares to try (deterministically: the repo's profile derandomizes).  After every
step, once the server has caught up with the reply it sent, conservation
holds:

* admission slots held == cursors open == traces started but not finished;
* ``governance.cancellations`` == cancels the server acknowledged;
* no request is held at a driver gate, and every connection's server-side
  cursor table holds exactly the cursors its client has open — none once
  its connection is gone;
* with no cursor open: the engine pool holds nothing, no evaluation scope is
  live, and every spill manager any run built has deleted its files.

At teardown what is still open is drained to its last row and the same must
hold with nothing open at all.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from conftest import wait_until

from repro.core.errors import ServerOverloadedError
from repro.core.nrc.eval import EvalScope
from repro.core.values import iter_collection
from repro.kleisli import spill as spill_module
from repro.kleisli.drivers import RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.obs import Observability
from repro.relational import Database
from repro.server import KleisliClient, KleisliServer

ROWS = 40
SLOTS = 6           # in-flight cap; the machine never opens more cursors,
                    # and a query while all six are open is refused

#: source -> the rows it yields, in order
QUERIES = {
    "[| x * 2 | \\x <- Nums |]": [2 * i for i in range(ROWS)],
    "{ x | \\x <- Nums, x > 9 }": list(range(10, ROWS)),
    '[| r.v | \\r <- S-Tab("t") |]': list(range(ROWS)),
    '[| r.v + n | \\n <- Few, \\r <- S-Tab("t"), r.v < n |]':
        [n + v for n in (1, 2, 3) for v in range(n)],
}
SOURCES = sorted(QUERIES)
#: per-request governance: none, a budget, a budget the run must spill under
OPTIONS = [{}, {"memory_budget": 1 << 20},
           {"memory_budget": 1 << 20, "spill": True}]


class ServedSessions(RuleBasedStateMachine):
    _spill_manager = spill_module.SpillManager

    def __init__(self):
        super().__init__()
        self.scopes = EvalScope.live_count()
        self.spill_managers = managers = []

        class Tracked(self._spill_manager):
            def __init__(self):
                super().__init__(memory_elements=8)
                managers.append(self)

        spill_module.SpillManager = Tracked
        database = Database("S")
        database.create_table_from_spec("t", {"v": "int"}).insert_many(
            {"v": i} for i in range(ROWS))
        self.engine = KleisliEngine(memory_pool_limit=1 << 24)
        self.engine.register_driver(RelationalDriver.with_latency(
            "S", database, latency=0.0, max_concurrent_requests=2, lazy=True))
        self.hub = self.engine.attach_observability(Observability())
        self.sessions = []              # server side, in connection order

        def setup(session):
            session.bind("Nums", list(range(ROWS)))
            session.bind("Few", [1, 2, 3])
            self.sessions.append(session)

        self.server = KleisliServer(
            self.engine, session_setup=setup, max_concurrent_queries=SLOTS,
            admission="reject", session_memory_limit=1 << 22).start()
        self.clients = [self._connect(), self._connect()]
        #: per client: cursor id -> the rows it has yet to yield
        self.cursors = [{}, {}]
        self.connection_of = [self._connection(self.sessions[0]),
                              self._connection(self.sessions[1])]
        self.gone = []                  # connections that were dropped
        self.cancelled = 0
        self.rejected = 0

    def _connect(self):
        client = KleisliClient(self.server.address)
        client.hello()                  # the session exists once this answers
        return client

    def _connection(self, session):
        """The server's per-connection state that serves ``session``."""
        with self.server._lock:
            return next(state for state in self.server._states
                        if state.session is session)

    def _open_count(self):
        return sum(len(cursors) for cursors in self.cursors)

    def _pick(self, client, pick):
        """A (client, cursor id) among the open ones, steered by the draws."""
        if not self.cursors[client]:
            client = 1 - client
        ids = sorted(self.cursors[client])
        return client, ids[pick % len(ids)]

    # -- what a client can do -------------------------------------------------

    @rule(client=st.integers(0, 1), source=st.sampled_from(SOURCES),
          options=st.sampled_from(OPTIONS))
    def query(self, client, source, options):
        if self._open_count() == SLOTS:
            # Every slot is held by an open cursor: admission refuses.
            with pytest.raises(ServerOverloadedError):
                self.clients[client].query(source, **options)
            self.rejected += 1
            return
        value = self.clients[client].query(source, **options)
        assert list(iter_collection(value)) == QUERIES[source]

    @precondition(lambda self: self._open_count() < SLOTS)
    @rule(client=st.integers(0, 1), source=st.sampled_from(SOURCES),
          options=st.sampled_from(OPTIONS))
    def open(self, client, source, options):
        cursor = self.clients[client].open(source, **options)
        self.cursors[client][cursor] = list(QUERIES[source])

    @precondition(lambda self: self._open_count() > 0)
    @rule(client=st.integers(0, 1), pick=st.integers(0, SLOTS),
          batch=st.integers(1, 2 * ROWS // 3))
    def fetch(self, client, pick, batch):
        client, cursor = self._pick(client, pick)
        remaining = self.cursors[client][cursor]
        reply = self.clients[client].fetch(cursor, batch=batch)
        assert reply["values"] == remaining[:batch]
        del remaining[:batch]
        assert reply["done"] == (len(reply["values"]) < batch)
        if reply["done"]:
            assert not remaining
            del self.cursors[client][cursor]

    @precondition(lambda self: self._open_count() > 0)
    @rule(client=st.integers(0, 1), pick=st.integers(0, SLOTS))
    def cancel(self, client, pick):
        client, cursor = self._pick(client, pick)
        assert self.clients[client].cancel(cursor) is True
        del self.cursors[client][cursor]
        self.cancelled += 1

    @precondition(lambda self: self._open_count() > 0)
    @rule(client=st.integers(0, 1), pick=st.integers(0, SLOTS))
    def close_cursor(self, client, pick):
        client, cursor = self._pick(client, pick)
        assert self.clients[client].close_cursor(cursor) is True
        del self.cursors[client][cursor]

    @rule(client=st.integers(0, 1))
    def drop_connection(self, client):
        closed = self.server.stats.sessions_closed
        self.clients[client].kill()
        self.cursors[client] = {}
        self.gone.append(self.connection_of[client])
        assert wait_until(
            lambda: self.server.stats.sessions_closed == closed + 1)
        self.clients[client] = self._connect()
        self.connection_of[client] = self._connection(self.sessions[-1])

    # -- conservation ---------------------------------------------------------

    @invariant()
    def the_books_balance(self):
        open_cursors = self._open_count()

        def caught_up():
            tracer = self.hub.tracer.snapshot()
            return (self.server._inflight == open_cursors
                    == tracer["started"] - tracer["finished"])

        # A retired cursor's slot goes back once its reply is on the wire.
        assert wait_until(caught_up)
        books = self.engine.governor.snapshot()
        assert books["cancellations"] == self.cancelled
        assert books["budget_rejections"] == books["watchdog_kills"] == 0
        assert all(gate.in_flight == 0
                   for gate in self.engine.driver_gates.values())
        for client in (0, 1):
            assert set(self.connection_of[client].cursors) == \
                set(self.cursors[client])
        assert all(not connection.cursors for connection in self.gone)
        assert self.server.stats.failures == 0
        assert self.server.stats.rejections == self.rejected
        live_managers = [manager for manager in self.spill_managers
                         if not manager._closed]
        assert len(live_managers) <= open_cursors
        assert EvalScope.live_count() - self.scopes <= open_cursors
        if open_cursors == 0:
            assert books["pool_used_bytes"] == 0
            assert EvalScope.live_count() == self.scopes
            assert all(not manager._files for manager in self.spill_managers)

    def teardown(self):
        try:
            for client in (0, 1):
                for cursor, remaining in list(self.cursors[client].items()):
                    drained = []
                    done = False
                    while not done:
                        reply = self.clients[client].fetch(cursor, batch=ROWS)
                        drained.extend(reply["values"])
                        done = reply["done"]
                    assert drained == remaining
                    del self.cursors[client][cursor]
            self.the_books_balance()
            for client in self.clients:
                client.close()
            self.gone.extend(self.connection_of)
            assert wait_until(lambda: self.server.active_sessions == 0)
            assert all(not connection.cursors for connection in self.gone)
        finally:
            self.server.stop()
            spill_module.SpillManager = self._spill_manager


ServedSessions.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None)
TestServedSessions = ServedSessions.TestCase
