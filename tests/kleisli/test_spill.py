"""Spill-to-disk backends and the spill == in-memory differential.

The spill subsystem trades memory for disk at the engine's two biggest
unbounded materialization points (join build sides, dedup seen-sets).  The
contract this file pins:

* each backend is **bit-for-bit equivalent** to the in-memory structure it
  replaces (same values, same order, exact dedup under hash collisions);
* a spilled engine run matches the ungoverned run in **values and
  ``elements_fetched``** across both lowerings (eager; chunked, ramped
  and in chunks of one) — degradation is invisible except in the
  governance books;
* the plan gate picks in-memory vs. spill **up front** from the PR 5 cost
  model's row estimate, and an over-budget query that would die with
  ``spill=False`` completes under ``spill=True``;
* :meth:`SpillManager.close` deletes every spill file.
"""

import pickle

import pytest

from repro.core.errors import MemoryBudgetExceededError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.nrc.eval import EvalScope
from repro.core.optimizer.caching import make_caching_rule_set
from repro.core.planner.plan import PhysicalPlan
from repro.core.records import Record, directory_for
from repro.core.values import CSet, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import NOMINAL_ROW_BYTES, MemoryBudget
from repro.kleisli.spill import (
    PARTITIONS,
    GovernedSeenSet,
    SpilledIndex,
    SpilledList,
    SpillManager,
)
from repro.server.wire import encode_value


class RangeDriver(Driver):
    """Lazy scans — the build sides below must not arrive pre-materialized,
    or the spill paths (which only fire for lazy sources) stay cold."""

    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        base = int(request.get("base", 0))
        count = int(request.get("count", 5))

        def cursor():
            for i in range(base, base + count):
                yield i

        return cursor()


def _scan(count, base=0):
    return A.Scan("ranges", {"table": "t", "count": count, "base": base},
                  args={}, kind="list")


class Colliding:
    """All instances share one hash bucket; equality is by payload.  Forces
    the seen-set's collision path: a hash hit must verify true equality."""

    def __init__(self, payload):
        self.payload = payload

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, Colliding) and self.payload == other.payload


class Unpicklable:
    def __init__(self, payload):
        self.payload = payload

    def __hash__(self):
        return hash(("unpicklable", self.payload))

    def __eq__(self, other):
        return isinstance(other, Unpicklable) and self.payload == other.payload

    def __reduce__(self):
        raise pickle.PicklingError("deliberately unpicklable")


# -- SpilledList --------------------------------------------------------------

class TestSpilledList:
    def test_matches_list_model_across_flush_boundaries(self):
        manager = SpillManager(memory_elements=8)
        spilled = manager.spilled_list()
        model = []
        for i in range(100):
            spilled.append(("row", i))
            model.append(("row", i))
        assert list(spilled) == model
        assert len(spilled) == 100
        # Multi-pass: a build side is replayed once per outer element.
        assert list(spilled) == model
        assert manager.books["spills"] == 1
        assert manager.books["bytes_spilled"] > 0
        manager.close()

    def test_overlapping_passes_do_not_move_each_other(self):
        """A build side under a ``Cached`` key is read by every reader of the
        key: a whole pass in the middle of another leaves it where it was."""
        manager = SpillManager(memory_elements=4)
        spilled = manager.spilled_list()
        spilled.extend(range(30))
        outer = iter(spilled)
        seen = [next(outer) for _ in range(6)]
        assert list(spilled) == list(range(30))
        other = iter(spilled)
        assert [next(other) for _ in range(10)] == list(range(10))
        assert seen + list(outer) == list(range(30))
        assert list(other) == list(range(10, 30))
        manager.close()

    def test_small_list_never_touches_disk(self):
        manager = SpillManager(memory_elements=1024)
        spilled = manager.spilled_list()
        spilled.extend(range(10))
        assert list(spilled) == list(range(10))
        assert manager.books["spills"] == 0
        manager.close()

    def test_unpicklable_batches_are_retained_in_order(self):
        manager = SpillManager(memory_elements=2)
        spilled = manager.spilled_list()
        values = [0, 1, Unpicklable("a"), Unpicklable("b"), 4, 5, 6]
        spilled.extend(values)
        assert list(spilled) == values
        assert manager.books["spill_fallbacks"] >= 1
        manager.close()


# -- GovernedSeenSet ----------------------------------------------------------

class TestGovernedSeenSet:
    def test_matches_set_model_past_the_spill_threshold(self):
        manager = SpillManager(memory_elements=16)
        seen = manager.seen_set()
        model = set()
        outcome_parity = True
        for i in range(400):
            value = ("v", i % 150)       # repeats force real dedup work
            outcome_parity &= ((value in seen) == (value in model))
            seen.add(value)
            model.add(value)
        assert outcome_parity
        assert len(seen) == len(model) == 150
        assert manager.books["spills"] >= 1
        manager.close()

    def test_exact_dedup_under_hash_collisions(self):
        manager = SpillManager(memory_elements=4)
        seen = manager.seen_set()
        for i in range(50):
            seen.add(Colliding(i % 20))
        assert len(seen) == 20
        assert Colliding(3) in seen
        assert Colliding(99) not in seen
        manager.close()

    def test_unpicklable_values_still_dedup(self):
        manager = SpillManager(memory_elements=2)
        seen = manager.seen_set()
        for i in range(20):
            seen.add(Unpicklable(i % 5))
        assert len(seen) == 5
        assert Unpicklable(2) in seen
        assert manager.books["spill_fallbacks"] >= 1
        manager.close()

    def test_an_unhashable_value_is_a_type_error_spilled_or_not(self):
        """As with a set: an unhashable value never reaches the unpicklable
        residue, which therefore needs no list beside it."""
        manager = SpillManager(memory_elements=2)
        seen = manager.seen_set()
        with pytest.raises(TypeError):
            seen.add([1])
        for i in range(4):
            seen.add(("v", i))
        with pytest.raises(TypeError):
            seen.add([1])
        with pytest.raises(TypeError):
            [1] in seen
        assert len(seen) == 4
        manager.close()


# -- SpilledIndex -------------------------------------------------------------

class TestSpilledIndex:
    def test_matches_dict_model(self):
        manager = SpillManager(memory_elements=8)
        index = manager.index()
        model = {}
        for i in range(300):
            key, row = i % 40, ("row", i)
            index.add(key, row)
            model.setdefault(key, []).append(row)
        for key in range(45):            # probe present and absent keys
            assert index.get(key) == model.get(key)
            assert (key in index) == (key in model)
        assert len(index) == 300
        assert manager.books["spills"] >= 1
        manager.close()

    def test_probe_locality_survives_interleaved_builds(self):
        manager = SpillManager(memory_elements=8)
        index = manager.index()
        index.add("a", 1)
        assert index.get("a") == [1]     # loads + caches a's partition
        index.add("a", 2)                # append must refresh the cache
        assert index.get("a") == [1, 2]
        manager.close()

    def test_unpicklable_rows_live_in_residue(self):
        manager = SpillManager(memory_elements=8)
        index = manager.index()
        index.add("k", Unpicklable("x"))
        index.add("k", 5)
        assert index.get("k") == [Unpicklable("x"), 5]   # a key keeps its order
        manager.close()


def test_a_value_its_disk_copy_does_not_equal_stays_itself():
    """A NaN equals only itself, and a set finds a value by identity first:
    every backend keeps a row holding one in memory, as itself, and an
    index keeps its key's rows in the order they came."""
    nan = float("nan")
    manager = SpillManager(memory_elements=1)
    index, seen, spilled = manager.index(), manager.seen_set(), manager.spilled_list()
    for row in ((1,), (nan,), (3,)):
        index.add("k", row)
        seen.add(row)
        spilled.append(row)
    assert index.get("k") == [(1,), (nan,), (3,)]
    assert (nan,) in seen and len(seen) == 3
    assert list(spilled)[1][0] is nan
    manager.close()


# -- SpillManager lifecycle ---------------------------------------------------

def test_close_deletes_every_spill_file_and_is_idempotent():
    manager = SpillManager(memory_elements=2)
    spilled = manager.spilled_list()
    spilled.extend(range(50))
    seen = manager.seen_set()
    for i in range(50):
        seen.add(i)
    handles = list(manager._files)
    assert handles
    manager.close()
    assert all(handle.closed for handle in handles)
    manager.close()                      # idempotent


def test_backends_refuse_a_closed_manager():
    manager = SpillManager(memory_elements=1)
    manager.close()
    spilled = manager.spilled_list()
    with pytest.raises(Exception):
        spilled.extend(range(10))


# -- the plan gate ------------------------------------------------------------

class TestPlanGate:
    def _engine(self):
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        return engine

    def test_forced_spill_and_forbidden_spill(self):
        engine = self._engine()
        budget = MemoryBudget(1 << 30)
        assert engine._resolve_spill(True, None, None) is not None
        assert engine._resolve_spill(False, budget,
                                     PhysicalPlan.default()) is None

    def test_auto_spills_only_when_estimate_exceeds_the_tightest_cap(self):
        engine = self._engine()
        pool = MemoryBudget(1 << 20, label="engine")
        query = MemoryBudget(None, label="query", parent=pool)
        tight = MemoryBudget(100 * NOMINAL_ROW_BYTES, label="query",
                             parent=pool)
        # Build plans through the (frozen) class directly.
        big = PhysicalPlan(estimated_rows=1_000_000.0)
        small = PhysicalPlan(estimated_rows=10.0)
        unknown = PhysicalPlan.default()
        assert engine._resolve_spill(None, tight, big) is not None
        assert engine._resolve_spill(None, tight, small) is None
        # No estimate / no cap anywhere → stay in memory (budget enforces).
        assert engine._resolve_spill(None, tight, unknown) is None
        assert engine._resolve_spill(None, query, big) is not None  # pool cap
        assert engine._resolve_spill(None, None, big) is None


# -- engine differential: spill == in-memory ----------------------------------

COUNT = 1500  # > SpillManager.DEFAULT_MEMORY_ELEMENTS: the backends hit disk


def _engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _dedup_expr():
    """Set-kind comprehension with >1024 distinct survivors and repeats."""
    return B.ext("x", B.singleton(B.prim("mod", B.var("x"),
                                         B.const(1400)), "set"),
                 _scan(COUNT), kind="set")


def _join_loop(outer, inner, condition, head):
    """``U[| U[| if condition then [|head|] | \\i <- inner |] | \\o <- outer |]``."""
    return B.ext("o", B.ext("i", B.if_then_else(
        condition, B.singleton(head, "list"), B.empty("list")), inner, "list"), outer, "list")


def _indexed_join_expr():
    """Indexed join whose build side is a lazy 1500-row scan: the loop over
    a probe of ``cached(index(scan by i))`` the optimizer makes of it."""
    condition = B.eq(B.prim("mod", B.var("o"), B.const(COUNT)), B.var("i"))
    plan = make_caching_rule_set().apply(_join_loop(
        _scan(40), _scan(COUNT), condition, B.prim("add", B.var("o"), B.var("i"))))
    assert "probe(cached(index(scan[ranges]" in plan.pretty()
    return plan


def _blocked_join_expr():
    """Blocked join: the lazy inner side, hoisted, is materialized once for
    a pass per outer row."""
    return _join_loop(_scan(3), A.Cached(_scan(COUNT, base=0)),
                      B.prim("lt", B.var("i"), B.var("o")), B.var("i"))


def _drain(engine, expr, **kwargs):
    """(values, elements_fetched) for one fully-drained run."""
    values = list(engine.stream(expr, optimize=False, **kwargs))
    return values, engine.last_eval_statistics.elements_fetched


def _drain_eager(engine, expr, **kwargs):
    result = engine.execute(expr, optimize=False, **kwargs)
    values = list(iter_collection(result))
    return values, engine.last_eval_statistics.elements_fetched


LOWERINGS = [
    (_drain_eager, {}),
    (_drain, {"chunk_policy": ChunkPolicy(max_chunk=1)}),
    (_drain, {}),
]


@pytest.mark.parametrize("shape", [_dedup_expr, _indexed_join_expr,
                                   _blocked_join_expr])
def test_spilled_run_matches_in_memory_across_all_lowerings(shape):
    expr = shape()
    baseline_engine = _engine()
    spill_engine = _engine()
    for drain, kwargs in LOWERINGS:
        plain_values, plain_fetched = drain(baseline_engine, expr, **kwargs)
        spill_values, spill_fetched = drain(spill_engine, expr,
                                            spill=True, **kwargs)
        assert spill_values == plain_values
        assert spill_fetched == plain_fetched
        assert EvalScope.live_count() == 0
    books = spill_engine.governor.snapshot()
    assert books["spills"] > 0
    assert books["bytes_spilled"] > 0
    assert baseline_engine.governor.snapshot()["spills"] == 0


def _nested_blocked_join_expr():
    """A blocked join inside a loop: its outer side depends on the loop
    variable, its (lazy, spillable) inner side on nothing."""
    outer = A.Scan("ranges", {"table": "t", "count": 3},
                   args={"base": B.var("x")}, kind="list")
    join = _join_loop(outer, _scan(COUNT), B.prim("lt", B.var("i"), B.var("o")),
                      B.prim("add", B.var("o"), B.var("i")))
    return B.ext("x", join, _scan(3), kind="list")


def test_nested_blocked_join_fetches_its_invariant_inner_once_per_run():
    """Optimized, the loop-invariant inner is fetched once per run — not per
    evaluation of the join — and a budgeted or spilled run is bit-for-bit
    the in-memory run on every lowering."""
    expr = _nested_blocked_join_expr()
    runs = []
    for governance in ({}, {"memory_budget": 1 << 24}, {"spill": True}):
        for streamed in (None, {"chunk_policy": ChunkPolicy(max_chunk=1)}, {}):
            engine = _engine()
            if streamed is None:
                values = list(iter_collection(engine.execute(expr, **governance)))
            else:
                values = list(engine.stream(expr, **governance, **streamed))
            stats = engine.last_eval_statistics
            runs.append((values, stats.scan_requests, stats.elements_fetched))
            assert EvalScope.live_count() == 0
    values, requests, fetched = runs[0]
    assert values == [o + i for x in range(3) for o in range(x, x + 3)
                      for i in range(o)]
    # The loop's source, the join's outer side per loop element, the inner once.
    assert requests == 1 + 3 + 1
    # ... and their elements, plus the three loops' own iterations: 3, then 3
    # outer rows each, then the hoisted inner rows once per outer row.
    assert fetched == (3 + 3 * 3 + COUNT) + 3 + 3 * 3 + 3 * 3 * COUNT
    assert all(run == runs[0] for run in runs)


def test_over_budget_dedup_completes_under_spill():
    """The headline degradation: a budget that rejects the in-memory run is
    enough once the seen-set lives on disk.  Chunks of one: the seen-set
    is the run's only growing materialization point (the chunked pump's
    transient chunk buffers charge the budget by design, spill or not —
    here one row at a time)."""
    expr = _dedup_expr()
    budget = 64 * NOMINAL_ROW_BYTES
    one = ChunkPolicy(max_chunk=1)
    strict = _engine()
    with pytest.raises(MemoryBudgetExceededError):
        list(strict.stream(expr, optimize=False, chunk_policy=one,
                           memory_budget=budget, spill=False))
    degraded = _engine()
    values = list(degraded.stream(expr, optimize=False, chunk_policy=one,
                                  memory_budget=budget, spill=True))
    plain = list(_engine().stream(expr, optimize=False, chunk_policy=one))
    assert values == plain
    books = degraded.governor.snapshot()
    assert books["spills"] > 0 and books["budget_rejections"] == 0


def test_spilled_engine_run_settles_books_and_budget():
    engine = KleisliEngine(memory_pool_limit=1 << 22)
    engine.register_driver(RangeDriver())
    list(engine.stream(_dedup_expr(), optimize=False, spill=True))
    assert engine.governor.pool.used == 0
    assert engine.governor.snapshot()["spills"] > 0
    assert EvalScope.live_count() == 0


class RecordRanges(Driver):
    """``[k = i, v = i mod 7]`` for ``i`` in ``0 .. count-1``, lazily: rows
    on one directory."""

    def __init__(self):
        super().__init__("records")

    def _execute(self, request):
        return (Record({"k": i, "v": i % 7})
                for i in range(int(request["count"])))


def test_a_spilled_set_stream_of_one_shape_is_one_wire_block():
    """The build side goes to disk and comes back through ``pickle``: its
    records are still on the interned directory, so the streamed set is one
    column-major ``rows`` block on the wire."""
    engine = _engine()
    engine.register_driver(RecordRanges())
    inner = A.Cached(A.Scan("records", {"table": "t", "count": COUNT},
                            args={}, kind="list"))
    condition = B.prim("lt", B.project(B.var("i"), "k"), B.var("o"))
    expr = B.ext("o", B.ext("i", B.if_then_else(
        condition, B.singleton(B.var("i"), "set"), B.empty("set")),
        inner, "set"), _scan(3, base=COUNT), "set")
    values = list(engine.stream(expr, optimize=False,
                                memory_budget=1 << 24, spill=True))
    assert engine.governor.snapshot()["spills"] > 0
    assert [value.values for value in values] == \
        [(i, i % 7) for i in range(COUNT)]
    assert {value.directory for value in values} == {directory_for("kv")}
    encoded = encode_value(CSet(values))["v"]
    assert [(block["%"], block["n"]) for block in encoded] == [("rows", COUNT)]


def test_partitions_constant_is_sane():
    assert PARTITIONS >= 2
    assert isinstance(GovernedSeenSet, type)
    assert isinstance(SpilledList, type)
    assert isinstance(SpilledIndex, type)
