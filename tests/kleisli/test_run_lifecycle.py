"""One run, one ``finish``: every ending of a query settles the same books.

The engine-level slice of the lifecycle harness (the parallel loop's is
``test_parallel_quiescence.py``, the served session's
``tests/server/test_lifecycle_machine.py``).  A run can end eight ways —
``execute`` returning, a stream drained, closed after one element, closed
before its first ``next``, dropped and collected, a source raising, its token
cancelled, its budget exceeded — bare, governed, observed or both, interpreted
or compiled; whichever it is, afterwards the budget chain holds nothing, every
spill manager is closed, every trace that started has finished, the governance
ledger counts the outcome once, and a profile exists iff the run was observed
— with the run's spill books in it, which is the one ordering rule ``finish``
has (the profile reads the books before settlement folds and deletes them).

Below the matrix: the three zero contracts as one statement, and the
one-term-one-estimate rule (``execute`` and ``stream`` open their run on the
same optimized term).
"""

import gc
import types
import weakref

import pytest

from repro.core.errors import MemoryBudgetExceededError, QueryCancelledError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import CompiledChunkedStream
from repro.core.nrc.eval import EvalScope
from repro.core.planner import PhysicalPlan
from repro.core.values import Record, iter_collection
from repro.kleisli import engine as engine_module
from repro.kleisli import spill as spill_module
from repro.kleisli.drivers import RelationalDriver
from repro.kleisli.drivers.base import Driver, DriverFunction
from repro.kleisli.engine import ExecutionMode, KleisliEngine
from repro.kleisli.governance import (
    NOMINAL_ROW_BYTES,
    CancellationToken,
    MemoryBudget,
)
from repro.kleisli.session import Session
from repro.obs import Observability
from repro.relational import Database

from test_stream_differential import RangeDriver, _shapes

MODES = [ExecutionMode.INTERPRET, ExecutionMode.COMPILED]
INNER = 40      # rows of the join's lazy build side
KTH = 30        # the build-side row that raises, or cancels the token


class Boom(Exception):
    pass


class HookedRanges(Driver):
    """``0 .. count-1`` through a lazy cursor; ``hook(i)`` runs before row i."""

    def __init__(self, hook):
        super().__init__("ranges")
        self.hook = hook

    def _execute(self, request):
        def cursor():
            for i in range(int(request["count"])):
                self.hook(i)
                yield i

        return cursor()


def _scan(count):
    return A.Scan("ranges", {"table": "t", "count": count}, args={},
                  kind="list")


def _join():
    """``[| i | \\o <- 0..2, \\i <- cached(0..39), i < o |]``: the hoisted lazy
    inner side is a governed build side (charged, or spilled) on the compiled
    paths, drained on the first ``next``."""
    body = B.if_then_else(B.prim("lt", B.var("i"), B.var("o")),
                          B.singleton(B.var("i"), "list"), B.empty("list"))
    return B.ext("o", B.ext("i", body, A.Cached(_scan(INNER)), "list"),
                 _scan(3), "list")


EXPECTED = [0, 0, 1]


@pytest.fixture()
def spill_managers(monkeypatch):
    """Every spill manager the engine builds, spilling after 8 rows."""
    built = []

    class Tracked(spill_module.SpillManager):
        def __init__(self):
            super().__init__(memory_elements=8)
            built.append(self)

    monkeypatch.setattr(spill_module, "SpillManager", Tracked)
    return built


# -- the endings --------------------------------------------------------------
# Each takes (engine, mode, kwargs) and returns what it drained.

def _execute(engine, mode, kwargs):
    return list(iter_collection(engine.execute(
        _join(), optimize=False, mode=mode, **kwargs)))


def _drained(engine, mode, kwargs):
    return list(engine.stream(_join(), optimize=False, mode=mode, **kwargs))


def _closed_after_one(engine, mode, kwargs):
    stream = engine.stream(_join(), optimize=False, mode=mode, **kwargs)
    first = next(stream)
    stream.close()
    return [first]


def _closed_before_the_first_next(engine, mode, kwargs):
    engine.stream(_join(), optimize=False, mode=mode, **kwargs).close()
    return []


def _dropped_after_one(engine, mode, kwargs):
    stream = engine.stream(_join(), optimize=False, mode=mode, **kwargs)
    first = next(stream)
    del stream
    gc.collect()
    return [first]


#: ending -> (the runs that end that way, profile status, the error raised)
ENDINGS = {
    "execute": ([_execute], "ok", None),
    "stream drained": ([_drained], "ok", None),
    "closed after one": ([_closed_after_one], "closed", None),
    "closed before the first next": ([_closed_before_the_first_next],
                                     "closed", None),
    "dropped and collected after one": ([_dropped_after_one], "closed", None),
    "source raises": ([_execute, _drained], "Boom", Boom),
    "token cancelled": ([_execute, _drained], "QueryCancelledError",
                        QueryCancelledError),
    "budget exceeded": ([_execute, _drained], "MemoryBudgetExceededError",
                        MemoryBudgetExceededError),
}
#: A run with a token or a budget *is* a governed run.
CASES = [(ending, config)
         for ending in ENDINGS
         for config in ("bare", "governed", "observed", "both")
         if config in ("governed", "both")
         or ending not in ("token cancelled", "budget exceeded")]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("ending,config", CASES)
def test_every_ending_settles_the_same_books(ending, config, mode,
                                             spill_managers,
                                             threads_besides_workers):
    governed = config in ("governed", "both")
    compiled = mode is ExecutionMode.COMPILED
    runs, status, raised = ENDINGS[ending]
    threads = threads_besides_workers()
    scopes = EvalScope.live_count()
    for run in runs:
        del spill_managers[:]
        token = CancellationToken() if governed else None

        def hook(i):
            if i == KTH and ending == "source raises":
                raise Boom("row 30")
            if i == KTH and ending == "token cancelled":
                token.cancel("mid-build")

        engine = KleisliEngine(memory_pool_limit=1 << 22 if governed else None)
        engine.register_driver(HookedRanges(hook))
        # The two trace sources: profile-only, and the hub's.
        hub = (engine.attach_observability(Observability())
               if config == "both" else None)
        kwargs = {"profile": True} if config == "observed" else {}
        quota = None
        if governed:
            quota = MemoryBudget(1 << 20, label="session",
                                 parent=engine.governor.pool)
            kwargs.update(cancellation=token, memory_budget=quota, spill=True)
            if ending == "budget exceeded":
                kwargs.update(memory_budget=2 * NOMINAL_ROW_BYTES, spill=False)

        if raised is not None:
            with pytest.raises(raised):
                run(engine, mode, kwargs)
        else:
            drained = run(engine, mode, kwargs)
            assert drained == EXPECTED[:len(drained)]
            if status == "ok":
                assert drained == EXPECTED

        # Nothing is left running or open ...
        assert threads_besides_workers(engine) == threads
        assert EvalScope.live_count() == scopes
        # ... the outcome is counted once ...
        books = engine.governor.snapshot()
        assert books["cancellations"] == (ending == "token cancelled")
        assert books["budget_rejections"] == (ending == "budget exceeded")
        # ... the budget chain holds nothing, no spill manager is open ...
        if governed:
            assert books["pool_used_bytes"] == 0
            assert quota.used == 0
            assert len(spill_managers) == (ending != "budget exceeded")
        else:
            assert not spill_managers
            assert all(count == 0 for count in books.values())
        assert all(manager._closed and not manager._files
                   for manager in spill_managers)
        # ... every trace that started has finished ...
        if hub is not None:
            tracer = hub.tracer.snapshot()
            assert tracer["started"] == tracer["finished"] == 1
        # ... and there is a profile iff the run was observed, holding the
        # run's spill books as they stood before settlement.
        profile = engine.last_profile
        if config in ("bare", "governed"):
            assert profile is None
            continue
        assert profile.status == status
        if spill_managers:
            assert profile.books == spill_managers[0].books
            # The build side is drained (past eight rows, onto disk) by the
            # first ``next``; the interpreter does not spill.
            started = run is not _closed_before_the_first_next
            assert (profile.books["spills"] > 0) == (compiled and started)
            assert books["spills"] == profile.books["spills"]
        else:
            assert profile.books == {}


# -- the zero contracts, as one statement -------------------------------------

@pytest.mark.parametrize("spill", [None, False])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("label,expr,bindings", _shapes(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_a_run_with_nothing_to_settle_is_the_bare_pipeline(label, expr,
                                                           bindings, mode,
                                                           spill):
    """No token, no budget, ``spill`` not ``True``, no hub, ``profile=False``:
    ``stream`` hands back the pipeline generator itself, and the run differs
    from one with everything switched on in nothing but the books — same
    values, same ``elements_fetched``, same plan; no ledger entry, no
    profile, no planner state."""
    bare = KleisliEngine()
    bare.register_driver(RangeDriver())
    stream = bare.stream(expr, bindings, optimize=False, mode=mode,
                         spill=spill)
    assert type(stream) is types.GeneratorType
    pipeline = (CompiledChunkedStream._pump
                if mode is ExecutionMode.COMPILED
                else KleisliEngine._stream_interpreted)
    assert stream.gi_code is pipeline.__code__
    streamed = list(stream)
    streamed_fetched = bare.last_eval_statistics.elements_fetched
    plan = bare.last_plan
    executed = bare.execute(expr, bindings, optimize=False, mode=mode,
                            spill=spill)
    executed_fetched = bare.last_eval_statistics.elements_fetched
    assert all(count == 0 for count in bare.governor.snapshot().values())
    assert bare.governor.pool is None and bare.last_profile is None

    full = KleisliEngine(memory_pool_limit=1 << 26)
    full.register_driver(RangeDriver())
    hub = full.attach_observability(Observability())
    everything = dict(cancellation=CancellationToken(),
                      memory_budget=1 << 24, spill=spill, profile=True)
    assert list(full.stream(expr, bindings, optimize=False, mode=mode,
                            **everything)) == streamed, label
    assert full.last_eval_statistics.elements_fetched == streamed_fetched
    assert full.last_plan == plan
    assert plan == (PhysicalPlan.default()
                    if mode is ExecutionMode.COMPILED else None)
    assert full.execute(expr, bindings, optimize=False, mode=mode,
                        **everything) == executed, label
    assert full.last_eval_statistics.elements_fetched == executed_fetched
    tracer = hub.tracer.snapshot()
    assert tracer["started"] == tracer["finished"] == 2
    assert full.governor.pool.used == 0


CONFIGS = ["bare", "governed", "observed", "both"]


def _run_kind(config):
    """An engine over the ranges driver and the run options of ``config``,
    and the hub (``None`` unless ``both``)."""
    governed = config in ("governed", "both")
    engine = KleisliEngine(memory_pool_limit=1 << 22 if governed else None)
    engine.register_driver(HookedRanges(lambda i: None))
    hub = (engine.attach_observability(Observability())
           if config == "both" else None)
    options = {"profile": True} if config == "observed" else {}
    if governed:
        options.update(cancellation=CancellationToken(),
                       memory_budget=1 << 20, spill=True)
    return engine, hub, options


@pytest.mark.parametrize("entry", ["engine", "session"])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("config", CONFIGS)
def test_every_streamed_run_is_one_generator(config, mode, entry):
    """Bare, governed, observed or both, in either mode, from the engine or
    the session: what ``stream`` hands out is the pipeline's own generator,
    so a served row crosses one generator frame.  It settles its own run."""
    engine, hub, options = _run_kind(config)
    if entry == "engine":
        stream = engine.stream(_join(), optimize=False, mode=mode, **options)
        expected = EXPECTED
    else:
        session = Session(engine=engine)
        session.bind("N", list(range(5)))
        stream = session.stream("[| x * 2 | \\x <- N |]", mode=mode,
                                **options)
        expected = [0, 2, 4, 6, 8]
    assert type(stream) is types.GeneratorType
    pipeline = (CompiledChunkedStream._pump
                if mode is ExecutionMode.COMPILED
                else KleisliEngine._stream_interpreted)
    assert stream.gi_code is pipeline.__code__
    assert list(stream) == expected
    if hub is not None:
        tracer = hub.tracer.snapshot()
        assert tracer["started"] == tracer["finished"] == 1
    if config in ("observed", "both"):
        assert engine.last_profile.status == "ok"
        assert engine.last_profile.actual_rows == len(expected)
    if engine.governor.pool is not None:
        assert engine.governor.pool.used == 0


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_closing_a_session_settles_its_open_streams(mode):
    """``Session.close`` closes the streams it handed out that are still
    held: the run settles (trace finished, scope closed, pool empty) before
    the session quota closes.  A drained stream's close changes nothing, and
    a dropped one is not kept alive by its session."""
    engine = KleisliEngine(memory_pool_limit=1 << 22)
    hub = engine.attach_observability(Observability())
    session = Session(engine=engine, memory_limit=1 << 20)
    session.bind("N", list(range(40)))
    source = "{ x * 2 | \\x <- N }"
    scopes = EvalScope.live_count()

    drained = session.stream(source, mode=mode)
    assert len(list(drained)) == 40
    books, tracer = engine.governor.snapshot(), hub.tracer.snapshot()
    profile = engine.last_profile
    drained.close()
    assert engine.governor.snapshot() == books
    assert hub.tracer.snapshot() == tracer
    assert engine.last_profile is profile

    dropped = weakref.ref(session.stream(source, mode=mode))
    assert dropped() is None

    stream = session.stream(source, mode=mode)
    assert next(stream) == 0
    assert engine.governor.pool.used > 0
    session.close()
    tracer = hub.tracer.snapshot()
    assert tracer["started"] == tracer["finished"] == 3
    assert EvalScope.live_count() == scopes
    assert engine.governor.pool.used == 0
    assert engine.last_profile.status == "closed"
    assert list(stream) == []


class _CountingPlanner:
    """Stands where the engine's planner stands and counts what it is asked."""

    def __init__(self, planner):
        self.planner = planner
        self.plans = 0
        self.estimates = 0
        self.cardinality = self

    def plan_for(self, expr):
        self.plans += 1
        return self.planner.plan_for(expr)

    def estimate(self, expr):
        self.estimates += 1
        return self.planner.cardinality.estimate(expr)


def test_a_bare_execute_asks_the_planner_nothing(monkeypatch):
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    stub = engine.planner = _CountingPlanner(engine.planner)
    walks = []
    fingerprint = engine_module.term_fingerprint
    monkeypatch.setattr(engine_module, "term_fingerprint",
                        lambda expr: walks.append(1) or fingerprint(expr))
    _, expr, bindings = _shapes()[0]
    engine.execute(expr, bindings, optimize=False)
    assert (stub.plans, stub.estimates) == (0, 0)
    assert len(walks) == 1                # the compile cache's key, no other
    assert engine.last_plan is None
    engine.execute(expr, bindings, optimize=False, profile=True)
    assert (stub.plans, stub.estimates) == (1, 0)    # one term, one plan


# -- one term, one estimate ---------------------------------------------------

LOCI = 300


class LazyLoci(Driver):
    """``Lazy-Tab("locus")``: the locus table through a lazy cursor — what a
    hoisted inner side must be to count as a governed (spillable) build side
    — with its cardinality declared, like GDB's."""

    def __init__(self):
        super().__init__("Lazy")

    def _execute(self, request):
        return (Record({"locus_id": i}) for i in range(LOCI))

    def cpl_functions(self):
        return [DriverFunction("Lazy-Tab", {}, argument_key="table",
                               result_kind="list")]

    def collection_names(self):
        return ["locus"]

    def cardinality(self, collection):
        return LOCI


def _gdb_session():
    database = Database("GDB")
    table = database.create_table_from_spec(
        "locus", {"locus_id": "int", "locus_symbol": "string"})
    table.insert_many({"locus_id": i, "locus_symbol": f"D22S{i}"}
                      for i in range(LOCI))
    session = Session()
    session.register_driver(RelationalDriver("GDB", database))
    session.register_driver(LazyLoci())
    session.bind("Picks", [1, 2])
    return session


def _profile_of(entry, source, **kwargs):
    session = _gdb_session()
    if entry == "stream":
        values = list(session.stream(source, **kwargs))
    elif entry == "query":
        values = list(iter_collection(session.query(source, **kwargs).value))
    else:
        values = list(iter_collection(session.run(source, **kwargs)))
    return values, session.last_profile, session.engine.governor.snapshot()


ENTRIES = ["run", "query", "stream"]


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_point_estimates_the_term_it_runs(entry):
    """A query written over a driver function is a ``scan`` only once it is
    optimized; the raw ``GDB-Tab("locus")`` application estimates as one row."""
    values, profile, _ = _profile_of(
        entry, '{ x.locus_symbol | \\x <- GDB-Tab("locus") }', profile=True)
    assert len(values) == LOCI
    assert profile.estimated_rows == profile.actual_rows == LOCI


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_point_takes_the_same_spill_decision(entry,
                                                         spill_managers):
    """A budget the planner's estimate exceeds: all three runs of one text
    degrade to disk up front (``run`` used to gate on the unoptimized term,
    stay in memory, and die on the budget)."""
    source = ('[| l.locus_id | \\p <- Picks, \\l <- Lazy-Tab("locus"), '
              'l.locus_id < p |]')
    budget = 100 * NOMINAL_ROW_BYTES       # under the 300-row build side
    baseline, _, _ = _profile_of(entry, source)
    assert sorted(baseline) == [0, 0, 1]
    with pytest.raises(MemoryBudgetExceededError):
        _profile_of(entry, source, memory_budget=budget, spill=False)
    values, profile, books = _profile_of(entry, source, memory_budget=budget,
                                         profile=True)
    assert values == baseline
    assert profile.estimated_rows * NOMINAL_ROW_BYTES > budget
    assert profile.books["spills"] == books["spills"] > 0
