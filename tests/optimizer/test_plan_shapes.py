"""Plan-shape pins: the requests and loop iterations of the paper's queries.

The paper's Section 4 promises are about *shape* — ``Loci22`` is one shipped
SQL join, the DOE query is that join feeding Entrez in batches (two bind
joins), or in a parallel fan-out over a server that takes one request per
round trip — and a rule-order change that un-pushes the join or re-serialises
the requests moves no test value, only these counters.  They are pinned here, under the
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
from repro.core.errors import MemoryBudgetExceededError, QueryCancelledError
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc import ast as A
from repro.core.nrc.compile import term_fingerprint
from repro.core.nrc.rewrite import RewriteStats
from repro.core.optimizer import OptimizerConfig
from repro.core.optimizer.parallel import ParallelExt
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import NOMINAL_ROW_BYTES, CancellationToken
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


class OneRequestPerTrip(EntrezDriver):
    """A GenBank whose server takes one request per round trip: a remote
    loop over it keeps the paper's parallel fan-out (a ``ParallelExt``)."""

    batch_single_round_trip = False


def _doe_session(data, genbank=EntrezDriver, **session_options):
    session = Session(**session_options)
    session.register_driver(RelationalDriver.with_latency(
        "GDB", data.gdb, latency=0.0005, max_concurrent_requests=CAP))
    session.register_driver(genbank.with_latency(
        "GenBank", data.genbank, latency=0.0005, max_concurrent_requests=CAP))
    for definition in (example.LOCI22, example.ASN_IDS, example.BAND_VIEW):
        session.run(definition)
    return session


@pytest.fixture(scope="module")
def doe_session(doe_data):
    return _doe_session(doe_data)


@pytest.fixture(scope="module")
def parallel_doe_session(doe_data):
    return _doe_session(doe_data, OneRequestPerTrip)


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
    # One SQL join, then ASN-IDs and NA-Links per locus: 75 requests, the
    # figure the end-to-end benchmark reports for ``doe_federated``.  Five
    # loops of one iteration per locus: the ASN-IDs bind join, the two
    # levels of the [locus, id] pairs, the NA-Links bind join and the head.
    ("the DOE query", example.DOE_QUERY, 1 + 2 * LOCI, 5 * LOCI),
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
    assert gdb_scans[0].request["query"].count("select ") == 1
    assert result.value == doe_session.query(text, optimize=False).value


def test_doe_query_goes_to_genbank_in_batches(doe_session):
    """A server that ships a batch in one round trip gets the DOE query's
    74 GenBank requests as two bind joins over the pushed-down rows: each
    37 requests in batches of ``remote_max_chunk`` (32), so 4 round trips,
    and GDB's one.  The requests are still 75, as wide as the servers
    declared, and nothing is left for a parallel loop."""
    result = doe_session.query(example.DOE_QUERY)
    binds = _nodes(result.optimized, A.BindScan)
    assert [bind.body.request for bind in binds] == [
        {"db": "na"}, {"db": "na", "path": "Seq-entry.seq.id..giim"}]
    assert binds[1].source == _scans(result.optimized, "GDB")[0]
    assert {(bind.max_workers, bind.adaptive) for bind in binds} == {(CAP, False)}
    assert not _nodes(result.optimized, ParallelExt)
    engine = doe_session.engine
    gdb, genbank = engine.drivers["GDB"], engine.drivers["GenBank"]
    trips = (gdb.remote.request_count, genbank.remote.request_count)
    requests = genbank.request_count
    assert doe_session.query(example.DOE_QUERY).value == result.value
    assert engine.last_eval_statistics.scan_requests == 1 + 2 * LOCI
    assert gdb.remote.request_count - trips[0] == 1
    assert genbank.remote.request_count - trips[1] <= 4
    assert genbank.request_count - requests == 2 * LOCI
    assert all(gate.in_flight == 0 for gate in engine.driver_gates.values())


def test_sessions_sharing_the_batched_doe_query_stay_under_the_cap(
        doe_data, threads_besides_workers):
    """Four sessions on one engine run the batched DOE query at once, the
    interpreter switching threads every 10 microseconds: every run reads
    the serial answer and its 75 requests, GenBank sees at most 4 round
    trips a run and never more than its cap at once, and no slot or
    thread outlives the runs but the engine's idle workers."""
    first = _doe_session(doe_data)
    engine = first.engine
    sessions = [first]
    for _ in range(3):
        sessions.append(Session(engine=engine))
        for definition in (example.LOCI22, example.ASN_IDS):
            sessions[-1].run(definition)
    expected = first.query(example.DOE_QUERY).value
    idle = threads_besides_workers(engine)
    genbank = engine.drivers["GenBank"].remote
    trips = len(genbank.log)
    outcomes = []

    def client(session):
        for _ in range(3):
            value = session.query(example.DOE_QUERY).value
            outcomes.append((value, engine.thread_eval_statistics().scan_requests))

    runs = [threading.Thread(target=client, args=(session,)) for session in sessions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run in runs:
            run.start()
        for run in runs:
            run.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(run.is_alive() for run in runs)
    assert outcomes == [(expected, 1 + 2 * LOCI)] * 12
    assert len(genbank.log) - trips <= 4 * 12
    assert genbank.log.max_concurrency() <= CAP
    assert all(gate.in_flight == 0 for gate in engine.driver_gates.values())
    assert threads_besides_workers(engine) == idle


def test_warm_doe_queries_start_no_thread(doe_data, threads_besides_workers,
                                          monkeypatch):
    """The engine's workers outlive a run: as many are live after 10 DOE
    queries as after 100, and the 90 warm queries start no thread."""
    session = _doe_session(doe_data)
    engine = session.engine
    for _ in range(10):
        session.query(example.DOE_QUERY)
    workers = engine._workers.live
    others = threads_besides_workers(engine)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    for _ in range(90):
        session.query(example.DOE_QUERY)
    assert started == []
    assert engine._workers.live == workers
    assert threads_besides_workers(engine) == others


@pytest.mark.parametrize("mode", ["execute", "stream"])
def test_a_governed_doe_query_fails_typed_and_leaves_no_slot(doe_session, mode):
    """Under a budget the bind joins' pairs cannot fit, and under a token
    cancelled once GenBank answers, the batched plan raises the typed
    governance error and leaves every gate slot free."""
    engine = doe_session.engine
    plan = doe_session.query(example.DOE_QUERY).optimized

    def run(**governance):
        if mode == "execute":
            return engine.execute(plan, doe_session.values, optimize=False, **governance)
        return list(engine.stream(plan, doe_session.values, optimize=False, **governance))

    with pytest.raises(MemoryBudgetExceededError):
        run(memory_budget=20 * NOMINAL_ROW_BYTES, spill=False)
    assert all(gate.in_flight == 0 for gate in engine.driver_gates.values())

    token = CancellationToken()
    genbank = engine.drivers["GenBank"].remote
    served = genbank.handler
    genbank.handler = lambda payload: token.cancel() or served(payload)
    try:
        with pytest.raises(QueryCancelledError):
            run(cancellation=token)
    finally:
        genbank.handler = served
    assert all(gate.in_flight == 0 for gate in engine.driver_gates.values())


def test_doe_fan_out_runs_over_the_pushed_down_rows(parallel_doe_session):
    """Over a server that takes one request per round trip, the parallel
    loop sits on the 37-row join result, not on per-pair filter scraps, as
    wide as its servers declared (not the width configured for a server
    that declares nothing)."""
    session = parallel_doe_session
    plan = session.query(example.DOE_QUERY).optimized
    assert isinstance(plan, ParallelExt)
    assert isinstance(plan.source, A.Scan) and "query" in plan.source.request
    assert plan.max_workers == CAP > session.engine.optimizer_config.parallel_max_workers
    assert session.engine.driver_gates["GenBank"].in_flight == 0


def test_the_doe_query_parses_its_path_once(doe_data):
    """Every ASN-IDs request sends the same path text; the Entrez server
    parses it at the first and reuses the parsed path for the other 36."""
    from repro.asn1.path import parse_path

    session = Session()
    session.register_driver(RelationalDriver("GDB", doe_data.gdb))
    session.register_driver(EntrezDriver("GenBank", doe_data.genbank))
    for definition in (example.LOCI22, example.ASN_IDS, example.BAND_VIEW):
        session.run(definition)
    parse_path.cache_clear()
    session.query(example.DOE_QUERY)
    info = parse_path.cache_info()
    assert (info.misses, info.hits) == (1, LOCI - 1)


def test_two_sessions_of_the_doe_query_stay_under_the_cap_and_leave_nothing(
        doe_data, threads_besides_workers):
    """As wide as its servers, twice over: the gate (not the loop) bounds what
    either server sees, a run's threads stop at its outer window (the 37 inner
    loops are one request each and hand no task to a worker), and nothing
    outlives it but the engine's idle workers."""
    first = _doe_session(doe_data, OneRequestPerTrip)
    engine = first.engine
    second = Session(engine=engine)
    for definition in (example.LOCI22, example.ASN_IDS, example.BAND_VIEW):
        second.run(definition)
    idle = threading.active_count()
    others = threads_besides_workers(engine)
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
    assert threads_besides_workers(engine) == others


def test_the_parallel_doe_query_leaves_no_cyclic_garbage(parallel_doe_session, run_views):
    """Its worker threads dispatch through the run's context, which is
    still freed with the run."""
    assert isinstance(parallel_doe_session.query(example.DOE_QUERY).optimized, ParallelExt)
    assert len(run_views) == 1 and run_views[0]() is None


def test_the_batched_doe_query_leaves_no_cyclic_garbage(doe_session, run_views):
    """So do the bind joins' batch tasks."""
    assert _nodes(doe_session.query(example.DOE_QUERY).optimized, A.BindScan)
    assert len(run_views) == 1 and run_views[0]() is None


def _moving_window(expr):
    """``expr`` with every parallel loop's window free to move."""
    expr = expr.rebuild([_moving_window(child) for child in expr.children()])
    if type(expr) is ParallelExt:
        return ParallelExt(expr.var, expr.body, expr.source, expr.kind,
                           expr.max_workers, adaptive=True)
    return expr


@pytest.mark.parametrize("mode", ["interpret", "compiled"])
def test_doe_query_agrees_under_a_pinned_and_a_moving_window(parallel_doe_session, mode):
    """Declared servers pin the window; the same plan with its windows
    free to move changes no value and no fetch, on ``execute`` or
    ``stream``."""
    doe_session = parallel_doe_session
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
    """A second send of one CPL text reuses its prepared form — the same
    optimized term, ``Cached`` nodes included — and every run still looks it
    up in the compile LRU: the second lowering is kept, the third run hits."""
    # No pushdown for this one: the aggregate over the *other* driver stays
    # local, and — mentioning no binder of the loop it sits in — gets cached.
    text = ('{[s = l.locus_symbol, n = count({u | \\u <- GenBank([db = "na",'
            ' select = "chromosome 22", uids = true])})]'
            ' | \\l <- GDB-Tab("locus"), l.chromosome = "22"}')
    first = doe_session.query(text)
    first_statistics = doe_session.engine.last_eval_statistics
    second = doe_session.query(text)
    assert doe_session.engine.last_eval_statistics.compile_cache_misses == 1
    third = doe_session.query(text)
    third_statistics = doe_session.engine.last_eval_statistics

    assert _nodes(first.optimized, A.Cached), "the pin needs a plan with a Cached node"
    assert second.optimized is first.optimized and third.optimized is first.optimized
    assert third_statistics.compile_cache_hits == 1
    assert third_statistics.compile_cache_misses == 0
    # The cached value lives for one run: the third run fetches it again.
    assert first_statistics.cache_misses == third_statistics.cache_misses >= 1
    assert first.value == second.value == third.value


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
    # label, query, ext_iterations, cache misses (= subqueries and memo
    # entries computed), hits, memo entries
    # The loop over LOCI (200); one index on REFS (200), probed by the 67
    # loci on chromosome 22, one reference each; one index on CYTO (100),
    # probed by the 34 class-1 pairs.
    ("3-way join", workloads.JOIN_QUERY, 200 + 200 + 67 + 100 + 34, 2, 67 - 1 + 34 - 1, 0),
    # One index on OBS (160) serves count and max: 160 rows, and each of
    # count and max computed once per each of the 40 keys, by two probes of
    # four observations each.  The index is built by whichever probe comes
    # first and found by the other 79; each memo misses its 40 keys and
    # finds them for the other 120 rows.
    ("correlated aggregate", workloads.AGGREGATE_QUERY, 160 + 160 + 40 * 2 * 4,
     1 + 2 * 40, 2 * 40 - 1 + 2 * 120, 2 * 40),
    # The set of class-2 loci is computed once (200), then 200 memberships.
    ("semi-join", workloads.SEMIJOIN_QUERY, 200 + 200, 1, 200 - 1, 0),
]


@pytest.mark.parametrize("mode,label,text,iterations,misses,hits,memos", [
    pytest.param(mode, *pin, id=pin[0] + ("" if mode == "compiled" else " interpreted"))
    for mode in ("compiled", "interpret") for pin in LOCAL_PINS])
def test_local_relational_reads_each_inner_relation_once(
        mode, label, text, iterations, misses, hits, memos, run_caches):
    session = _session_for(workloads.build("local_relational", seed=22))
    for _ in range(2):  # a first send, then its prepared form again
        result = session.query(text, mode=mode)
        statistics = session.engine.last_eval_statistics
        assert (statistics.scan_requests, statistics.ext_iterations) == (0, iterations)
        assert (statistics.cache_misses, statistics.cache_hits) == (misses, hits)
        # The entries are this run's own: one per distinct subquery, count
        # and max sharing theirs, and one per memo and key (the memo's
        # content key, then the key's class and value).
        entries = list(run_caches[-1])
        assert len(entries) == misses
        keyed = [entry for entry in entries if type(entry) is tuple]
        assert len(keyed) == memos
        assert all(entry[1] is int and len(entry) == 3 for entry in keyed)
        assert all((entry[0] if type(entry) is tuple else entry)
                   .startswith(A.Cached.CONTENT_PREFIX) for entry in entries)
    assert result.value == session.query(text, optimize=False).value


def test_three_way_join_is_a_loop_over_two_probes(relational_session):
    plan, _ = _run(relational_session, workloads.JOIN_QUERY)
    # The outer generator is the loop as written; each further generator is
    # a loop over one probed group, inside the filters that precede it.
    assert type(plan) is A.Ext and plan.source == A.Var("LOCI")
    rendered = plan.pretty()
    for table in ("REFS", "CYTO"):
        assert f"probe(cached(index({table} by \\" in rendered
    assert rendered.count(".locus)), ") == 2
    probes = [node for node in _nodes(plan, A.PrimCall) if node.name == "probe"]
    assert len(probes) == 2
    # The module's session may have sent this text already, and a reused
    # prepared form runs no rewrite: count a fresh session's first send.
    fresh = _session_for(workloads.build("local_relational", seed=22))
    fresh.query(workloads.JOIN_QUERY)
    fired = fresh.engine.last_rewrite_stats.fired
    assert (fired("local-join"), fired("index-correlated-loop")) == (0, 2)


def test_count_and_max_share_one_index(relational_session):
    plan, _ = _run(relational_session, workloads.AGGREGATE_QUERY)
    indexes = [node for node in _nodes(plan, A.Cached)
               if isinstance(node.expr, A.PrimCall) and node.expr.name == "index"]
    assert len(indexes) == 2 and indexes[0].key == indexes[1].key
    assert indexes[0].key.startswith(A.Cached.CONTENT_PREFIX)


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
