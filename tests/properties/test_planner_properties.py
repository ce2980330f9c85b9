"""Property tests for the planner's invariants.

Four contracts the planner subsystem rests on:

* **Filter monotonicity** — wrapping any collection expression in a filter
  never *grows* its cardinality estimate (selectivities are <= 1), so plan
  choices degrade monotonically with selectivity instead of oscillating;
* **Totality** — the estimator returns a finite non-negative number for
  every expression shape it can meet (unknown nodes fall back to the
  registry default, they never raise);
* **Graceful degradation** — with zero statistics the chooser returns
  exactly the historical default knobs, whatever the query looks like (the
  bit-for-bit contract the differential harness pins at the engine level);
* **A closed-form remote cap** — the batch cap of a slow source that
  batches in one round trip is the choice a cost walk over the candidates
  made, for any request count and latency.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.planner import CardinalityEstimator, PhysicalPlan, QueryPlanner
from repro.core.values import CList, iter_collection
from repro.kleisli.statistics import SourceStatisticsRegistry

KIND = "list"


def _const_collection(size):
    return A.Const(CList(range(size)))


def _scan(driver, table):
    return A.Scan(driver, {"table": table, "count": 4}, kind=KIND)


def _map_wrap(expr, multiplier):
    return B.ext("m", B.singleton(B.prim("mul", B.var("m"),
                                         B.const(multiplier)), KIND),
                 expr, kind=KIND)


def _filter_wrap(expr, threshold):
    return B.ext("f",
                 B.if_then_else(B.prim("gt", B.var("f"), B.const(threshold)),
                                B.singleton(B.var("f"), KIND),
                                B.empty(KIND)),
                 expr, kind=KIND)


def _collection_exprs():
    """Recursive collection-expression strategy: Const/Scan leaves under
    map, filter and union combinators."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=40).map(_const_collection),
        st.tuples(st.sampled_from(["gdb", "genbank", "acedb"]),
                  st.sampled_from(["locus", "sequence"])).map(
                      lambda pair: _scan(*pair)),
        st.just(A.Empty(KIND)),
        st.just(B.var("FREE")),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children,
                      st.integers(min_value=0, max_value=9)).map(
                          lambda pair: _map_wrap(*pair)),
            st.tuples(children,
                      st.integers(min_value=0, max_value=9)).map(
                          lambda pair: _filter_wrap(*pair)),
            st.tuples(children, children).map(
                lambda pair: A.Union(pair[0], pair[1], KIND)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _estimator():
    return CardinalityEstimator(SourceStatisticsRegistry())


@settings(max_examples=120, deadline=None)
@given(expr=_collection_exprs(),
       threshold=st.integers(min_value=-5, max_value=50))
def test_filter_monotonicity(expr, threshold):
    """estimate(filter(e)) <= estimate(e) for every shape and threshold."""
    estimator = _estimator()
    base = estimator.estimate(expr)
    filtered = estimator.estimate(_filter_wrap(expr, threshold))
    assert filtered <= base + 1e-9, (filtered, base)


@settings(max_examples=120, deadline=None)
@given(expr=_collection_exprs())
def test_estimates_are_finite_and_non_negative(expr):
    estimate = _estimator().estimate(expr)
    assert estimate >= 0.0
    assert math.isfinite(estimate)


@settings(max_examples=120, deadline=None)
@given(expr=_collection_exprs())
def test_stacked_filters_keep_shrinking(expr):
    """Monotonicity composes: each added filter layer can only shrink."""
    estimator = _estimator()
    previous = estimator.estimate(expr)
    current = expr
    for threshold in (0, 3, 7):
        current = _filter_wrap(current, threshold)
        estimate = estimator.estimate(current)
        assert estimate <= previous + 1e-9
        previous = estimate


@settings(max_examples=80, deadline=None)
@given(expr=_collection_exprs())
def test_chooser_degrades_to_default_knobs_with_zero_statistics(expr):
    """With an empty registry, every plan is exactly the historical default
    knob set — the planner only ever adds knowledge."""
    planner = QueryPlanner(SourceStatisticsRegistry())
    plan = planner.plan_for(expr)
    assert plan == PhysicalPlan.default()
    assert plan.is_default
    # The compile-time hooks stay silent too — except for a *literal* source
    # whose length proves the loop too tiny to overlap: a literal's length
    # is exact knowledge, not a statistic (and with zero statistics no
    # driver is remote, so the parallel rule could not have fired anyway).
    if isinstance(expr, A.Ext):
        workers = planner.parallel_workers(expr)
        source = expr.source
        if isinstance(source, A.Const) and \
                len(list(iter_collection(source.value))) < 2:
            assert workers == 0
        else:
            assert workers is None


# -- the remote cap is a closed form ------------------------------------------

def _cost_walk(requests, latency):
    """The remote-cap chooser as a cost model once computed it, kept as the
    oracle: the smallest candidate whose modeled cost (one latency and a
    dispatch per batch, a CPU cost per item) is within 5% of the cheapest."""
    def cost(batch):
        batches = math.ceil(max(requests, 1.0) / batch)
        return batches * latency + requests * 2e-6 + batches * 5e-6

    costs = {size: cost(size) for size in QueryPlanner.REMOTE_CHUNK_CANDIDATES}
    floor = min(costs.values())
    return min(size for size, each in costs.items() if each <= floor * 1.05)


@settings(max_examples=1000, deadline=None)
@given(requests=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 31.5, 32.0, 64.0,
                                           128.0, 256.0, 256.5, 1e5]),
                          st.integers(min_value=0, max_value=10 ** 5).map(float),
                          st.floats(min_value=0.0, max_value=1e5)),
       latency=st.floats(min_value=0.005, max_value=10.0))
def test_the_remote_cap_is_the_cost_walks_choice(requests, latency):
    """A slow source that batches in one round trip gets the smallest
    candidate holding every request, else the largest — what ranking the
    candidates by modeled cost picked."""
    registry = SourceStatisticsRegistry()
    registry.register_latency("far", latency)
    planner = QueryPlanner(registry, batches_natively=lambda driver: True)
    planner.cardinality.estimate = lambda expr: requests
    plan = planner.plan_for(A.Scan("far", {"table": "t"}, kind=KIND))
    assert plan.source == "statistics"
    assert plan.remote_max_chunk == _cost_walk(requests, latency)
