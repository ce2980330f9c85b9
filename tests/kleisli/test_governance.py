"""Query lifecycle governance: cancellation, memory budgets, the books.

What PR 9's tentpole guarantees, pinned:

* **Cooperative cancellation** — a cancelled token raises a *typed*
  :class:`~repro.core.errors.QueryCancelledError` at every checkpoint class
  (eager loop heads, chunk boundaries — of the ramp and of chunks of one —
  pre-driver-dispatch), in both lowerings and the interpreter, and the
  run's ``EvalScope`` releases every cursor on the way out.
* **Hierarchical memory budgets** — charges walk query → session → engine
  pool with rollback on rejection; an over-budget run raises a typed
  :class:`~repro.core.errors.MemoryBudgetExceededError` (or degrades to
  spill, see ``test_spill.py``); a finished run returns every byte.
* **Zero-governance contract** — a run with no token, no budget and no
  spill takes exactly the pre-governance paths: same values, same
  ``elements_fetched``, all governance books zero.
"""

import gc
import threading
import time

import pytest

from repro.core.errors import MemoryBudgetExceededError, QueryCancelledError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.nrc.eval import EvalScope
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CBag, CList, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import ExecutionMode, KleisliEngine, QueryOptions
from repro.kleisli.governance import (
    NOMINAL_ROW_BYTES,
    CancellationToken,
    MemoryBudget,
    QueryGovernor,
)
from repro.kleisli.session import Session
from repro.obs import Observability


#: The default ramp, and chunks of one (a checkpoint per element).
CHUNK_POLICIES = [None, ChunkPolicy(max_chunk=1)]


class RangeDriver(Driver):
    """Scans yield ``base .. base+count-1`` lazily through a generator."""

    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        base = int(request.get("base", 0))
        count = int(request.get("count", 5))

        def cursor():
            for i in range(base, base + count):
                yield i

        return cursor()


class CancellingDriver(Driver):
    """Cancels an attached token after serving ``cancel_after`` elements —
    the way a watchdog or a client interrupts a query that is mid-source."""

    def __init__(self, name="ranges", cancel_after=3):
        super().__init__(name)
        self.token = None
        self.cancel_after = cancel_after

    def _execute(self, request):
        count = int(request.get("count", 5))

        def cursor():
            for i in range(count):
                if self.token is not None and i == self.cancel_after:
                    self.token.cancel("driver-side cancel")
                yield i

        return cursor()


def _scan(count=5, base=0):
    return A.Scan("ranges", {"table": "t", "count": count, "base": base},
                  args={}, kind="list")


def _comprehension(count=20):
    return B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(3)),
                                  "list"),
                 _scan(count=count), kind="list")


# -- CancellationToken --------------------------------------------------------

class TestCancellationToken:
    def test_starts_live_and_checkpoint_passes(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.reason is None
        token.raise_if_cancelled()  # must not raise

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_checkpoint_raises_typed_error_with_reason(self):
        token = CancellationToken()
        token.cancel("deadline blown")
        with pytest.raises(QueryCancelledError) as info:
            token.raise_if_cancelled()
        assert info.value.reason == "deadline blown"

    def test_cancel_from_another_thread_is_observed(self):
        token = CancellationToken()
        thread = threading.Thread(target=token.cancel, args=("remote",))
        thread.start()
        thread.join()
        assert token.cancelled and token.reason == "remote"


# -- MemoryBudget -------------------------------------------------------------

class TestMemoryBudget:
    def test_charge_release_and_peak(self):
        budget = MemoryBudget(1000)
        budget.charge(400)
        budget.charge(300)
        assert budget.used == 700 and budget.peak == 700
        budget.release(600)
        assert budget.used == 100 and budget.peak == 700
        assert budget.headroom() == 900

    def test_rejection_is_typed_and_counts_nothing(self):
        budget = MemoryBudget(100, label="q")
        with pytest.raises(MemoryBudgetExceededError) as info:
            budget.charge(101)
        assert "q" in str(info.value)
        assert budget.used == 0

    def test_hierarchy_charges_every_level(self):
        pool = MemoryBudget(10_000, label="engine")
        session = MemoryBudget(5_000, label="session", parent=pool)
        query = MemoryBudget(None, label="query", parent=session)
        query.charge(3_000)
        assert (query.used, session.used, pool.used) == (3_000, 3_000, 3_000)
        query.release(1_000)
        assert (query.used, session.used, pool.used) == (2_000, 2_000, 2_000)

    def test_rejection_at_an_ancestor_rolls_back_lower_levels(self):
        pool = MemoryBudget(1_000, label="engine")
        query = MemoryBudget(None, label="query", parent=pool)
        with pytest.raises(MemoryBudgetExceededError):
            query.charge(2_000)
        assert query.used == 0 and pool.used == 0

    def test_close_returns_outstanding_to_ancestors_idempotently(self):
        pool = MemoryBudget(10_000, label="engine")
        query = MemoryBudget(None, label="query", parent=pool)
        query.charge(4_000)
        query.close()
        query.close()
        assert pool.used == 0

    def test_charge_elements_uses_nominal_row_bytes(self):
        budget = MemoryBudget(None)
        budget.charge_elements(10)
        assert budget.used == 10 * NOMINAL_ROW_BYTES
        budget.release_elements(10)
        assert budget.used == 0

    def test_nonpositive_limit_is_refused(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        with pytest.raises(ValueError):
            MemoryBudget(-5)


# -- QueryGovernor ------------------------------------------------------------

class TestQueryGovernor:
    def test_count_merge_snapshot(self):
        governor = QueryGovernor()
        governor.count("cancellations")
        governor.merge({"spills": 2, "bytes_spilled": 99,
                        "spill_fallbacks": 0})
        books = governor.snapshot()
        assert books["cancellations"] == 1
        assert books["spills"] == 2
        assert books["bytes_spilled"] == 99
        assert books["budget_rejections"] == 0
        assert "pool_used_bytes" not in books

    def test_pool_limit_surfaces_in_snapshot(self):
        governor = QueryGovernor(pool_limit=1 << 20)
        books = governor.snapshot()
        assert books["pool_limit_bytes"] == 1 << 20
        assert books["pool_used_bytes"] == 0


# -- engine: cancellation checkpoints -----------------------------------------

def _engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


@pytest.mark.parametrize("mode", [ExecutionMode.COMPILED,
                                  ExecutionMode.INTERPRET])
def test_precancelled_execute_raises_before_any_dispatch(mode):
    engine = _engine()
    token = CancellationToken()
    token.cancel("before start")
    with pytest.raises(QueryCancelledError):
        engine.execute(_comprehension(), mode=mode, cancellation=token)
    driver = engine.driver("ranges")
    assert driver.request_count == 0      # pre-dispatch checkpoint held
    assert EvalScope.live_count() == 0
    assert engine.governor.snapshot()["cancellations"] == 1


@pytest.mark.parametrize("chunk_policy", CHUNK_POLICIES,
                         ids=["ramped", "chunks of one"])
@pytest.mark.parametrize("mode", [ExecutionMode.COMPILED,
                                  ExecutionMode.INTERPRET])
def test_stream_cancel_mid_drain_releases_cursors(mode, chunk_policy):
    engine = _engine()
    token = CancellationToken()
    stream = engine.stream(_comprehension(count=200), mode=mode,
                           chunk_policy=chunk_policy, cancellation=token)
    got = []
    with pytest.raises(QueryCancelledError):
        for value in stream:
            got.append(value)
            if len(got) == 5:
                token.cancel("mid-drain")
    # Cancellation is cooperative: the pipeline may finish yielding what a
    # chunk had already buffered, but never runs to completion.
    assert 5 <= len(got) < 200
    assert EvalScope.live_count() == 0
    assert engine.governor.snapshot()["cancellations"] == 1


def test_driver_side_cancellation_stops_eager_run(cancel_after=4):
    engine = KleisliEngine()
    driver = engine.register_driver(CancellingDriver(cancel_after=cancel_after))
    token = CancellationToken()
    driver.token = token
    with pytest.raises(QueryCancelledError):
        engine.execute(_comprehension(count=50), cancellation=token)
    assert EvalScope.live_count() == 0


@pytest.mark.parametrize("mode", [ExecutionMode.COMPILED,
                                  ExecutionMode.INTERPRET])
def test_body_side_cancellation_stops_eager_parallel_loop(mode, threads_besides_workers):
    """A parallel loop whose body never reaches a driver has no checkpoint
    but its own: one per reply, so a cancel lands within a window or two."""
    engine = _engine()
    token = CancellationToken()
    baseline = threads_besides_workers()
    calls = []

    def slow(x):
        calls.append(x)
        if len(calls) == 10:
            token.cancel("body-side cancel")
        time.sleep(0.002)
        return x

    loop = ParallelExt("x", B.singleton(B.apply(B.var("slow"), B.var("x")),
                                        "list"), B.var("R"), "list")
    with pytest.raises(QueryCancelledError):
        engine.execute(loop, {"R": CList(range(400)), "slow": slow},
                       optimize=False, mode=mode, cancellation=token)
    assert 10 <= len(calls) < 40
    assert threads_besides_workers(engine) == baseline
    assert EvalScope.live_count() == 0


def test_cancelled_stream_closed_early_still_counts(capsys):
    engine = _engine()
    token = CancellationToken()
    stream = engine.stream(_comprehension(count=100), cancellation=token)
    next(stream)
    token.cancel("client went away")
    stream.close()                        # never drained into the error
    assert engine.governor.snapshot()["cancellations"] == 1
    assert EvalScope.live_count() == 0


@pytest.mark.parametrize("dropped", [False, True],
                         ids=["closed", "dropped and collected"])
@pytest.mark.parametrize("mode", [ExecutionMode.COMPILED,
                                  ExecutionMode.INTERPRET])
def test_a_stream_that_never_started_still_ends(mode, dropped):
    """A generator that never ran has no ``finally``; the run settles anyway:
    one cancellation booked, the trace finished, the budget child closed
    (the spill manager too: ``test_run_lifecycle.py``)."""
    engine = KleisliEngine(memory_pool_limit=1 << 20)
    engine.register_driver(RangeDriver())
    hub = engine.attach_observability(Observability())
    token = CancellationToken()
    stream = engine.stream(_comprehension(count=100), mode=mode,
                           cancellation=token, memory_budget=1 << 16,
                           spill=True)
    token.cancel("client went away before the first fetch")
    if dropped:
        del stream
        gc.collect()
    else:
        stream.close()
    assert engine.governor.snapshot()["cancellations"] == 1
    tracer = hub.tracer.snapshot()
    assert tracer["started"] == tracer["finished"] == 1
    assert engine.governor.pool.used == 0
    assert engine.last_profile.status == "closed"
    assert engine.last_profile.actual_rows == 0.0
    assert EvalScope.live_count() == 0


def test_an_unstarted_stream_closed_without_a_cancel_counts_nothing():
    engine = _engine()
    stream = engine.stream(_comprehension(count=100),
                           cancellation=CancellationToken(),
                           memory_budget=1 << 16)
    stream.close()
    stream.close()                        # settled once; twice is a no-op
    assert all(count == 0 for count in engine.governor.snapshot().values())


@pytest.mark.parametrize("entry", ["execute", "stream"])
def test_a_bad_failure_policy_is_refused_before_anything_is_allocated(entry):
    engine = KleisliEngine(memory_pool_limit=1 << 20)
    engine.register_driver(RangeDriver())
    hub = engine.attach_observability(Observability())
    before = engine.last_eval_statistics
    with pytest.raises(ValueError, match="on_source_failure"):
        getattr(engine, entry)(_comprehension(), on_source_failure="bogus",
                               cancellation=CancellationToken(),
                               memory_budget=1 << 16, profile=True)
    tracer = hub.tracer.snapshot()
    assert tracer["started"] == tracer["finished"] == 0
    assert engine.governor.pool.used == 0
    assert engine.last_eval_statistics is before   # no context was made
    assert engine.last_profile is None


def test_cancel_after_completion_counts_nothing(capsys):
    engine = _engine()
    token = CancellationToken()
    values = list(engine.stream(_comprehension(count=10),
                                cancellation=token))
    assert len(values) == 10
    token.cancel("too late")
    assert engine.governor.snapshot()["cancellations"] == 0


# -- engine: memory budgets ---------------------------------------------------

def test_over_budget_execute_raises_typed_and_counts():
    engine = _engine()
    with pytest.raises(MemoryBudgetExceededError):
        engine.execute(_comprehension(count=1000), memory_budget=1024,
                       spill=False)
    assert engine.governor.snapshot()["budget_rejections"] == 1
    assert EvalScope.live_count() == 0


@pytest.mark.parametrize("mode", [ExecutionMode.COMPILED,
                                  ExecutionMode.INTERPRET])
def test_over_budget_eager_parallel_loop_raises_typed(mode, threads_besides_workers):
    """The eager parallel loop's reply buffer is charged like ``Ext``'s."""
    engine = _engine()
    baseline = threads_besides_workers()
    bindings = {"R": CList(range(5000))}
    for node in (A.Ext, ParallelExt):
        loop = node("x", B.singleton(B.var("x"), "list"), B.var("R"), "list")
        with pytest.raises(MemoryBudgetExceededError):
            engine.execute(loop, bindings, optimize=False, mode=mode,
                           memory_budget=10 * NOMINAL_ROW_BYTES, spill=False)
        assert list(iter_collection(engine.execute(
            loop, bindings, optimize=False, mode=mode,
            memory_budget=5000 * NOMINAL_ROW_BYTES, spill=False))) == \
            list(range(5000))
    assert engine.governor.snapshot()["budget_rejections"] == 2
    assert threads_besides_workers(engine) == baseline
    assert EvalScope.live_count() == 0


def test_under_budget_run_matches_ungoverned_exactly():
    engine = _engine()
    expr = _comprehension(count=100)
    plain = list(iter_collection(engine.execute(expr)))
    plain_fetched = engine.last_eval_statistics.elements_fetched
    governed = list(iter_collection(
        engine.execute(expr, memory_budget=1 << 20)))
    assert governed == plain
    assert engine.last_eval_statistics.elements_fetched == plain_fetched


def test_engine_pool_settles_after_each_run():
    engine = KleisliEngine(memory_pool_limit=1 << 20)
    engine.register_driver(RangeDriver())
    for _ in range(3):
        list(iter_collection(engine.execute(_comprehension(count=200))))
        assert engine.governor.pool.used == 0
    assert engine.governor.pool.peak > 0   # the runs really charged it


def test_engine_pool_cap_rejects_even_unbudgeted_runs():
    engine = KleisliEngine(memory_pool_limit=2048)
    engine.register_driver(RangeDriver())
    with pytest.raises(MemoryBudgetExceededError):
        engine.execute(_comprehension(count=5000), spill=False)
    assert engine.governor.pool.used == 0  # rolled back and settled
    assert engine.governor.snapshot()["budget_rejections"] == 1


def test_budget_settles_when_stream_abandoned_mid_drain():
    engine = KleisliEngine(memory_pool_limit=1 << 20)
    engine.register_driver(RangeDriver())
    stream = engine.stream(_comprehension(count=500), memory_budget=1 << 19)
    next(stream)
    stream.close()
    assert engine.governor.pool.used == 0
    assert EvalScope.live_count() == 0


# -- zero-governance contract -------------------------------------------------

@pytest.mark.parametrize("chunk_policy", CHUNK_POLICIES,
                         ids=["ramped", "chunks of one"])
def test_ungoverned_runs_keep_books_at_zero(chunk_policy):
    engine = _engine()
    expr = _comprehension(count=50)
    eager = list(iter_collection(engine.execute(expr)))
    eager_fetched = engine.last_eval_statistics.elements_fetched
    streamed = list(engine.stream(expr, chunk_policy=chunk_policy))
    assert streamed == eager
    assert engine.last_eval_statistics.elements_fetched == eager_fetched
    books = engine.governor.snapshot()
    assert all(count == 0 for count in books.values())
    assert engine.governor.pool is None


def test_ungoverned_context_has_no_hooks():
    engine = _engine()
    context = engine._open_run(_comprehension(), None,
                               QueryOptions(on_source_failure="fail"))
    assert context.finish is None         # nothing to settle
    assert context.cancellation is None
    assert context.memory_budget is None
    assert context.spill is None


# -- session passthrough ------------------------------------------------------

def _session(**kwargs):
    session = Session(**kwargs)
    session.bind("Nums", list(range(300)))
    return session


def test_session_cancellation_passthrough():
    session = _session()
    token = CancellationToken()
    token.cancel()
    with pytest.raises(QueryCancelledError):
        session.query("{ x | \\x <- Nums }", cancellation=token)


def test_session_memory_limit_governs_every_run():
    session = _session(memory_limit=4096)
    with pytest.raises(MemoryBudgetExceededError):
        session.query("{ [a = x, b = x] | \\x <- Nums }", spill=False)
    # The failed run returned its charges: the quota is intact ...
    assert session.memory_budget.used == 0
    # ... and a small query still fits.
    small = session.query("{ x | \\x <- Nums, x < 10 }")
    assert len(list(iter_collection(small.value))) == 10
    assert session.memory_budget.used == 0


def test_session_set_memory_limit_installs_and_clears():
    session = _session()
    assert session.memory_budget is None
    session.set_memory_limit(1 << 20)
    assert session.memory_budget.limit == 1 << 20
    session.set_memory_limit(None)
    assert session.memory_budget is None


def test_per_call_budget_caps_inside_session_quota():
    session = _session(memory_limit=1 << 20)
    with pytest.raises(MemoryBudgetExceededError) as info:
        session.query("{ x | \\x <- Nums }", memory_budget=64, spill=False)
    # The *query-level* cap rejected, inside an otherwise-roomy session.
    assert "query" in str(info.value)
    assert session.memory_budget.used == 0
