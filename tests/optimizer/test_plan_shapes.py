"""Plan-shape pins: the requests and loop iterations of the paper's queries.

The paper's Section 4 promises are about *shape* — ``Loci22`` is one shipped
SQL join, the DOE query is that join feeding a parallel Entrez fan-out — and a
rule-order change that un-pushes the join or re-serialises the fan-out moves
no test value, only these two counters.  They are pinned here, under the
default optimizer, over the example's own definitions and dataset seed.

Likewise for joins that stay local (second half): the end-to-end benchmark's
``local_relational`` queries and its two correlated ad-hoc templates run as
loops over probes of indexes built once, never as a scan of the inner
relation per outer row; the workloads no rule of this kind applies to keep the
plan they had.
"""

import importlib.util
import pathlib
import sys
import threading

import pytest

from repro.bio.chromosome22 import build_chromosome22
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc import ast as A
from repro.core.nrc.compile import term_fingerprint
from repro.core.nrc.rewrite import RewriteStats
from repro.core.optimizer import OptimizerConfig
from repro.core.optimizer.parallel import ParallelExt
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


example = _load("doe_query_chr22", _ROOT / "examples" / "doe_query_chr22.py")
#: The benchmark's generator: its query texts and tables are the pins' inputs.
workloads = _load("e2e_workloads", _ROOT / "benchmarks" / "e2e" / "workloads.py")

#: Loci on chromosome 22 with a GenBank reference, at the example's seed.
LOCI = 37
#: ... of which this many start in band 22q13.33.
BAND, BAND_LOCI = "22q13.33", 6
CAP = 16


@pytest.fixture(scope="module")
def doe_data():
    # The GDB side is the example's; the GenBank side is kept small (the
    # pins count requests, not homologues).
    return build_chromosome22(locus_count=120, homologues_per_entry=1,
                              sequence_length=60, publication_count=5, seed=22)


def _doe_session(data, **session_options):
    session = Session(**session_options)
    session.register_driver(RelationalDriver.with_latency(
        "GDB", data.gdb, latency=0.0005, max_concurrent_requests=CAP))
    session.register_driver(EntrezDriver.with_latency(
        "GenBank", data.genbank, latency=0.0005, max_concurrent_requests=CAP))
    for definition in (example.LOCI22, example.ASN_IDS, example.BAND_VIEW):
        session.run(definition)
    return session


@pytest.fixture(scope="module")
def doe_session(doe_data):
    return _doe_session(doe_data)


def _nodes(expr, node_type):
    found = [expr] if isinstance(expr, node_type) else []
    for child in expr.children():
        found.extend(_nodes(child, node_type))
    return found


def _scans(expr, driver):
    return [scan for scan in _nodes(expr, A.Scan) if scan.driver == driver]


PINS = [
    # label, CPL text, scan_requests, ext_iterations
    ("Loci22 alone", "Loci22", 1, 0),
    # One SQL join, then ASN-IDs and NA-Links per locus: 75 and 74, the
    # figures the end-to-end benchmark reports for ``doe_federated``.
    ("the DOE query", example.DOE_QUERY, 1 + 2 * LOCI, 2 * LOCI),
    ("a band view under a consumer",
     f'{{l.locus-symbol ^ "@" ^ l.band | \\l <- loci-in-band("{BAND}")}}',
     1, BAND_LOCI),
]


@pytest.mark.parametrize("label,text,requests,iterations", PINS,
                         ids=[pin[0] for pin in PINS])
def test_requests_and_iterations_are_pinned(doe_session, label, text, requests, iterations):
    result = doe_session.query(text)
    statistics = doe_session.engine.last_eval_statistics
    assert (statistics.scan_requests, statistics.ext_iterations) == (requests, iterations)
    # However the view is used, GDB sees one request: the three-table join.
    gdb_scans = _scans(result.optimized, "GDB")
    assert len(gdb_scans) == 1
    assert gdb_scans[0].request["query"].count(" from ") == 1
    assert result.value == doe_session.query(text, optimize=False).value


def test_doe_fan_out_runs_over_the_pushed_down_rows(doe_session):
    """The parallel loop sits on the 37-row join result, not on per-pair
    filter scraps, as wide as its servers declared (not the width configured
    for a server that declares nothing)."""
    plan = doe_session.query(example.DOE_QUERY).optimized
    assert isinstance(plan, ParallelExt)
    assert isinstance(plan.source, A.Scan) and "query" in plan.source.request
    assert plan.max_workers == CAP > doe_session.engine.optimizer_config.parallel_max_workers
    assert doe_session.engine.driver_gates["GenBank"].in_flight == 0


def test_two_sessions_of_the_doe_query_stay_under_the_cap_and_leave_nothing(doe_data):
    """As wide as its servers, twice over: the gate (not the loop) bounds what
    either server sees, a run's threads stop at its outer window (the 37 inner
    loops are one request each and build no pool), and nothing outlives it."""
    first = _doe_session(doe_data)
    engine = first.engine
    second = Session(engine=engine)
    for definition in (example.LOCI22, example.ASN_IDS, example.BAND_VIEW):
        second.run(definition)
    idle = threading.active_count()
    genbank = engine.drivers["GenBank"].remote
    served, threads_seen = genbank.handler, []

    def watched(*args, **kwargs):
        threads_seen.append(threading.active_count())
        return served(*args, **kwargs)

    genbank.handler = watched
    expected = first.query(example.DOE_QUERY).value
    assert max(threads_seen) - idle <= CAP  # the workers; this thread is in ``idle``
    del threads_seen[:]
    outcomes = []
    runs = [threading.Thread(
        target=lambda session=session: outcomes.append(session.query(example.DOE_QUERY).value))
        for session in (first, second)]
    for run in runs:
        run.start()
    for run in runs:
        run.join(30.0)
    assert not any(run.is_alive() for run in runs)
    assert outcomes == [expected, expected]
    assert max(threads_seen) - idle <= 2 * (CAP + 1)
    for name in ("GDB", "GenBank"):
        assert engine.drivers[name].remote.log.max_concurrency() <= CAP
        assert engine.driver_gates[name].in_flight == 0
    assert threading.active_count() == idle


def _moving_window(expr):
    """``expr`` with every parallel loop's window free to move."""
    expr = expr.rebuild([_moving_window(child) for child in expr.children()])
    if type(expr) is ParallelExt:
        return ParallelExt(expr.var, expr.body, expr.source, expr.kind,
                           expr.max_workers, adaptive=True)
    return expr


@pytest.mark.parametrize("mode", ["interpret", "compiled"])
def test_doe_query_agrees_under_a_pinned_and_a_moving_window(doe_session, mode):
    """Declared servers pin the window; the same plan with its windows
    free to move changes no value and no fetch, on ``execute`` or
    ``stream``."""
    pinned = doe_session.query(example.DOE_QUERY).optimized
    moving = _moving_window(pinned)
    assert (pinned.adaptive, moving.adaptive) == (False, True)
    engine = doe_session.engine
    outcomes = []
    for plan in (pinned, moving):
        value = engine.execute(plan, doe_session.values, optimize=False,
                               mode=mode)
        fetched = engine.last_eval_statistics.elements_fetched
        streamed = list(engine.stream(plan, doe_session.values,
                                      optimize=False, mode=mode))
        assert engine.last_eval_statistics.elements_fetched == fetched
        assert all(gate.in_flight == 0
                   for gate in engine.driver_gates.values())
        outcomes.append((value, fetched, streamed))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][2]) == LOCI


def test_reoptimising_a_query_finds_its_compiled_form(doe_session):
    """Optimising one CPL text twice gives one term fingerprint (``Cached``
    nodes included), so the second run hits the compile LRU."""
    # No pushdown for this one: the aggregate over the *other* driver stays
    # local, and — mentioning no binder of the loop it sits in — gets cached.
    text = ('{[s = l.locus_symbol, n = count({u | \\u <- GenBank([db = "na",'
            ' select = "chromosome 22", uids = true])})]'
            ' | \\l <- GDB-Tab("locus"), l.chromosome = "22"}')
    first = doe_session.query(text)
    first_statistics = doe_session.engine.last_eval_statistics
    second = doe_session.query(text)
    second_statistics = doe_session.engine.last_eval_statistics

    assert _nodes(first.optimized, A.Cached), "the pin needs a plan with a Cached node"
    assert first.optimized is not second.optimized
    assert term_fingerprint(first.optimized) == term_fingerprint(second.optimized)
    assert second_statistics.compile_cache_hits == 1
    assert second_statistics.compile_cache_misses == 0
    # The cached value lives for one run: the second run fetches it again.
    assert first_statistics.cache_misses == second_statistics.cache_misses >= 1
    assert first.value == second.value


def test_doe_reoptimisation_hits_the_compile_cache(doe_session):
    doe_session.query(example.DOE_QUERY)
    doe_session.query(example.DOE_QUERY)
    statistics = doe_session.engine.last_eval_statistics
    assert (statistics.compile_cache_hits, statistics.compile_cache_misses) == (1, 0)


# ---------------------------------------------------------------------------
# Local joins: a join on top, probes below, nothing rebuilt inside a loop
# ---------------------------------------------------------------------------

def _session_for(workload):
    session = Session()
    for driver, _ in workload.drivers(True):
        session.register_driver(driver)
    for name, (data, list_as) in workload.bindings.items():
        session.bind(name, data, list_as=list_as)
    for definition in workload.defines:
        session.run(definition)
    return session


@pytest.fixture(scope="module")
def relational_session():
    return _session_for(workloads.build("local_relational", seed=22))


@pytest.fixture(scope="module")
def adhoc_session():
    return _session_for(workloads.build("adhoc_cold", seed=22, seconds=0.1))


def _run(session, text):
    result = session.query(text)
    statistics = session.engine.last_eval_statistics
    assert result.value == session.query(text, optimize=False).value
    return result.optimized, statistics


#: 200 loci, 200 references, 100 bands, 160 observations in 40 groups
#: (``workloads.RELATIONAL_ROWS`` ...): each inner relation is read once.
LOCAL_PINS = [
    # label, query, ext_iterations, cache misses (= subqueries computed)
    # The loop over LOCI (200); one index on REFS (200), probed by the 67
    # loci on chromosome 22, one reference each; one index on CYTO (100),
    # probed by the 34 class-1 pairs.
    ("3-way join", workloads.JOIN_QUERY, 200 + 200 + 67 + 100 + 34, 2),
    # One index on OBS (160) serves count and max: 160 rows, two probes
    # each, four observations per group.
    ("correlated aggregate", workloads.AGGREGATE_QUERY, 160 + 160 + 160 * 2 * 4, 1),
    # The set of class-2 loci is computed once (200), then 200 memberships.
    ("semi-join", workloads.SEMIJOIN_QUERY, 200 + 200, 1),
]


@pytest.mark.parametrize("label,text,iterations,misses", LOCAL_PINS,
                         ids=[pin[0] for pin in LOCAL_PINS])
def test_local_relational_reads_each_inner_relation_once(
        relational_session, label, text, iterations, misses):
    plan, statistics = _run(relational_session, text)
    assert (statistics.scan_requests, statistics.ext_iterations) == (0, iterations)
    assert statistics.cache_misses == misses


def test_three_way_join_is_a_loop_over_two_probes(relational_session):
    plan, statistics = _run(relational_session, workloads.JOIN_QUERY)
    # The outer generator is the loop as written; each further generator is
    # a loop over one probed group, inside the filters that precede it.
    assert type(plan) is A.Ext and plan.source == A.Var("LOCI")
    rendered = plan.pretty()
    for table in ("REFS", "CYTO"):
        assert f"probe(cached(index({table} by \\" in rendered
    assert rendered.count(".locus)), ") == 2
    probes = [node for node in _nodes(plan, A.PrimCall) if node.name == "probe"]
    assert len(probes) == 2
    fired = relational_session.engine.last_rewrite_stats.fired
    assert (fired("local-join"), fired("index-correlated-loop")) == (0, 2)
    assert (statistics.cache_misses, statistics.cache_hits) == (2, 67 - 1 + 34 - 1)


def test_count_and_max_share_one_index(relational_session):
    plan, statistics = _run(relational_session, workloads.AGGREGATE_QUERY)
    indexes = [node for node in _nodes(plan, A.Cached)
               if isinstance(node.expr, A.PrimCall) and node.expr.name == "index"]
    assert len(indexes) == 2 and indexes[0].key == indexes[1].key
    assert indexes[0].key.startswith(A.Cached.CONTENT_PREFIX)
    # Built by whichever probe comes first, found by the other 319.
    assert (statistics.cache_misses, statistics.cache_hits) == (1, 2 * 160 - 1)


def _adhoc_text(workload, marker):
    return next(text for op in workload.warmup + workload.ops
                for _, text in op.parts if marker in text)


@pytest.mark.parametrize("marker,rule", [
    ("near = {", "index-correlated-loop"),
    ("member(g.id, {", "hoist-loop-invariant"),
], ids=["correlated near", "member"])
def test_adhoc_correlated_templates_never_rescan(adhoc_session, marker, rule):
    text = _adhoc_text(workloads.build("adhoc_cold", seed=22, seconds=0.1), marker)
    plan, statistics = _run(adhoc_session, text)
    assert adhoc_session.engine.last_rewrite_stats.fired(rule) == 1
    assert statistics.cache_misses == 1
    # The outer loop, one pass over the 64-row inner relation, and the
    # matching rows of each probe: far from 64 x 64.
    assert statistics.scan_requests == 0
    assert 2 * workloads.ADHOC_ROWS <= statistics.ext_iterations < 6 * workloads.ADHOC_ROWS


def _without_local_stages():
    return KleisliEngine(optimizer_config=OptimizerConfig(local_joins=False, caching=False))


def _assert_left_alone(session, bare, text):
    """No local-join, hoist or index rule fires on ``text`` in the one
    optimizer ``execute`` and ``stream`` share: ``bare``, a session with the
    join and caching stages off, optimizes it to the same term."""
    term = session._expand(desugar_expression(parse_expression(text)))
    stats = RewriteStats()
    plan = session.engine.optimizer.optimize(term, stats)
    assert [stats.fired(rule) for rule in
            ("local-join", "hoist-loop-invariant", "index-correlated-loop")] == [0, 0, 0]
    assert term_fingerprint(plan) == term_fingerprint(bare.engine.optimizer.optimize(term))


@pytest.mark.parametrize("name", ["union_dedup", "wide_stream"])
def test_cursor_workload_plans_are_left_alone(name):
    workload = workloads.build(name, seed=22)
    (_, text), = workload.ops[0].parts
    _assert_left_alone(_session_for(workload), Session(engine=_without_local_stages()), text)


def test_doe_plan_is_left_alone(doe_session, doe_data):
    bare = _doe_session(doe_data, engine=_without_local_stages())
    _assert_left_alone(doe_session, bare, example.DOE_QUERY)
