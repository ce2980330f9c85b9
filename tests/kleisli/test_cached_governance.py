"""A hoisted subquery is a governed build side (the blocked join's inner side).

``Cached`` over a lazy subquery used to dodge the memory budget and could not
spill: the rows it drained were charged to nobody.  The compiled ``Cached`` is
now the materialization point the blocked ``Join`` node's inner side was — a
budget it does not fit raises the typed error from inside the run's scope,
under a spill manager a generator-source ``Cached`` keeps its rows on disk —
and with no governance it stores exactly what ``cache_payload`` returns.
"""

import pytest

from repro.core.errors import MemoryBudgetExceededError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalScope
from repro.kleisli.governance import NOMINAL_ROW_BYTES
from repro.kleisli.spill import SpillManager

from test_spill import (COUNT, LOWERINGS, _blocked_join_expr, _drain_eager, _engine,
                        _join_loop, _scan)


@pytest.mark.parametrize("drain,kwargs", LOWERINGS, ids=["eager", "chunks-of-one", "chunked"])
def test_hoisted_lazy_subquery_is_charged_and_spills(drain, kwargs):
    """A lazy subquery behind ``Cached`` is a governed build side: a budget
    it does not fit raises the typed error from inside the run's scope, and
    under a spill manager its rows live on disk — same values, same
    ``elements_fetched`` as the ungoverned run."""
    expr = _blocked_join_expr()
    plain = drain(_engine(), expr, **kwargs)
    assert plain[0] == [i for o in range(3) for i in range(o)]

    strict = _engine()
    with pytest.raises(MemoryBudgetExceededError):
        drain(strict, expr, memory_budget=100 * NOMINAL_ROW_BYTES, spill=False, **kwargs)
    assert EvalScope.live_count() == 0
    assert strict.governor.snapshot()["budget_rejections"] == 1

    for governance in ({"spill": True},
                       {"spill": True, "memory_budget": 100 * NOMINAL_ROW_BYTES}):
        degraded = _engine()
        assert drain(degraded, expr, **governance, **kwargs) == plain
        books = degraded.governor.snapshot()
        assert books["spills"] > 0 and books["bytes_spilled"] > 0
        assert books["budget_rejections"] == 0
        assert EvalScope.live_count() == 0


# Three disk runs and a tail under the default 1024-element buffer: a reader
# that moved a shared file position would derail the other reader's next run.
BIG = 2 * SpillManager.DEFAULT_MEMORY_ELEMENTS + 150


@pytest.mark.parametrize("drain,kwargs", LOWERINGS, ids=["eager", "chunks-of-one", "chunked"])
def test_spilled_build_side_read_as_a_collection_is_one(drain, kwargs):
    """Two readers of one hoisted scan: the loop leaves its rows on disk,
    ``count`` needs a collection — and gets the value it gets ungoverned,
    while the loop it sits in is still part-way through those rows."""
    scan = _scan(BIG)
    expr = B.ext("o", B.ext("i", B.if_then_else(
        B.eq(B.prim("mod", B.var("i"), B.const(1100)), B.var("o")),
        B.singleton(B.prim("count", A.Cached(scan)), "list"), B.empty("list")),
        A.Cached(scan), "list"), _scan(2), "list")
    plain = drain(_engine(), expr, **kwargs)
    assert plain[0] == [BIG] * 4
    spilled = _engine()
    assert drain(spilled, expr, spill=True, **kwargs) == plain
    assert spilled.governor.snapshot()["spills"] > 0


@pytest.mark.parametrize("drain,kwargs", LOWERINGS, ids=["eager", "chunks-of-one", "chunked"])
def test_spilled_build_side_is_read_at_two_loop_levels_at_once(drain, kwargs):
    """A self-join: both generators read the one spilled entry (same content
    key), the inner one making whole passes while the outer one is at its
    first, second and third disk run."""
    scan = _scan(BIG)
    expr = B.ext("a", B.if_then_else(
        B.eq(B.prim("mod", B.var("a"), B.const(1050)), B.const(5)),
        B.ext("b", B.if_then_else(
            B.eq(B.prim("mod", B.var("b"), B.const(1000)), B.const(7)),
            B.singleton(B.prim("add", B.var("a"), B.var("b")), "list"), B.empty("list")),
            A.Cached(scan), "list"),
        B.empty("list")), A.Cached(scan), "list")
    plain = drain(_engine(), expr, **kwargs)
    assert plain[0] == [a + b for a in (5, 1055, 2105) for b in (7, 1007, 2007)]
    spilled = _engine()
    assert drain(spilled, expr, spill=True, **kwargs) == plain
    assert spilled.governor.snapshot()["spills"] == 1  # one entry, two readers


def test_a_named_build_side_spills_like_any_other():
    """A caller-named entry is its run's too: its build side goes to the
    run's spill files, and each run computes and reads its own."""
    expr = _join_loop(_scan(2), A.Cached(_scan(COUNT), key="shared"),
                      B.eq(B.var("i"), B.var("o")), B.var("i"))
    engine = _engine()
    for run in (1, 2):
        assert _drain_eager(engine, expr, spill=True)[0] == [0, 1]
        assert engine.last_eval_statistics.cache_misses == 1
        assert engine.governor.snapshot()["spills"] == run


def test_ungoverned_cached_stores_what_cache_payload_returns():
    """Zero governance: a collection is stored as the object it is, a lazy
    stream as the list ``cache_payload`` makes of it — nothing else."""
    from repro.core.nrc.compile import compile_term
    from repro.core.nrc.eval import Environment, EvalContext, cache_payload
    from repro.core.values import CList, CSet

    node = A.Cached(B.var("S"), key="k")
    table = CSet([1, 2, 3])
    # As a generator source (the build side) and as a plain subterm.
    for term in (B.ext("x", B.singleton(B.var("x"), "list"), node, "list"), node):
        context = EvalContext()
        compile_term(term)(Environment({"S": table}), context)
        assert context.cache["k"] is table and cache_payload(table) is table
        context = EvalContext()
        compile_term(term)(Environment({"S": iter(range(3))}), context)
        stored = context.cache["k"]
        assert type(stored) is CList and stored == cache_payload(iter(range(3)))
