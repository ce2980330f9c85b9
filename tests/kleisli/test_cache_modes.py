"""One ``Cached`` node run in both execution modes on one engine.

A run's cached values live in that run's own dict, so a ``Cached`` node
evaluated first in compiled mode is computed again when the same query later
runs interpreted (and vice versa): each run counts one miss and a hit per
further lookup, and both modes store the same materialised value.
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.values import CSet
from repro.kleisli.engine import ExecutionMode
from repro.kleisli.session import Session


def _cached_query():
    """``{ x + sum(Cached(EXPENSIVE)) | x <- DB }`` — the cached subquery is
    loop-invariant, so one evaluation has |DB| lookups of the same key."""
    cached = A.Cached(B.ext("e", B.singleton(B.prim("mul", B.var("e"), B.const(2))),
                            B.var("EXPENSIVE")), key="%shared-subquery")
    body = B.singleton(B.prim("add", B.var("x"), B.prim("sum", cached)))
    return B.ext("x", body, B.var("DB"))


@pytest.fixture()
def session():
    session = Session()
    session.bind("DB", {1, 2, 3, 4, 5}, list_as="set")
    session.bind("EXPENSIVE", {10, 20, 30}, list_as="set")
    return session


def _run(session, mode):
    value = session.engine.execute(_cached_query(), session.values,
                                   optimize=False, mode=mode)
    return value, session.engine.last_eval_statistics


class TestCacheAcrossModes:
    @pytest.mark.parametrize("first,second", [
        (ExecutionMode.COMPILED, ExecutionMode.INTERPRET),
        (ExecutionMode.INTERPRET, ExecutionMode.COMPILED),
    ], ids=["compiled-then-interpreted", "interpreted-then-compiled"])
    def test_each_modes_run_fills_its_own_entry(self, session, first, second,
                                                run_caches):
        value_first, stats_first = _run(session, first)
        value_second, stats_second = _run(session, second)

        # Each run: one miss populates the entry, the remaining |DB|-1
        # lookups hit it.  The second run does not see the first's entry.
        for stats in (stats_first, stats_second):
            assert (stats.cache_misses, stats.cache_hits) == (1, 4)
        assert [list(cache) for cache in run_caches] == [["%shared-subquery"]] * 2

        assert value_first == value_second == CSet([121, 122, 123, 124, 125])
        assert stats_first.execution_mode != stats_second.execution_mode

    def test_cached_value_is_materialised_identically(self, session, run_caches):
        """The cached payload written by either mode is a plain collection
        (not a lazy stream), and the same one."""
        _run(session, ExecutionMode.COMPILED)
        _run(session, ExecutionMode.INTERPRET)
        compiled, interpreted = (cache["%shared-subquery"] for cache in run_caches)
        assert type(compiled) is type(interpreted) is CSet
        assert compiled == interpreted == CSet([20, 40, 60])
