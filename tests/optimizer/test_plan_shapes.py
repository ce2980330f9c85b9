"""Plan-shape pins: the requests and loop iterations of the paper's queries.

The paper's Section 4 promises are about *shape* — ``Loci22`` is one shipped
SQL join, the DOE query is that join feeding a parallel Entrez fan-out — and a
rule-order change that un-pushes the join or re-serialises the fan-out moves
no test value, only these two counters.  They are pinned here, under the
default optimizer, over the example's own definitions and dataset seed.
"""

import importlib.util
import pathlib

import pytest

from repro.bio.chromosome22 import build_chromosome22
from repro.core.nrc import ast as A
from repro.core.nrc.compile import term_fingerprint
from repro.core.optimizer.parallel import ParallelExt
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.session import Session

_EXAMPLE = pathlib.Path(__file__).resolve().parents[2] / "examples" / "doe_query_chr22.py"
_spec = importlib.util.spec_from_file_location("doe_query_chr22", _EXAMPLE)
example = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(example)

#: Loci on chromosome 22 with a GenBank reference, at the example's seed.
LOCI = 37
#: ... of which this many start in band 22q13.33.
BAND, BAND_LOCI = "22q13.33", 6
CAP = 16


@pytest.fixture(scope="module")
def doe_session():
    # The GDB side is the example's; the GenBank side is kept small (the
    # pins count requests, not homologues).
    data = build_chromosome22(locus_count=120, homologues_per_entry=1,
                              sequence_length=60, publication_count=5, seed=22)
    session = Session()
    session.register_driver(RelationalDriver.with_latency(
        "GDB", data.gdb, latency=0.0005, max_concurrent_requests=CAP))
    session.register_driver(EntrezDriver.with_latency(
        "GenBank", data.genbank, latency=0.0005, max_concurrent_requests=CAP))
    for definition in (example.LOCI22, example.ASN_IDS, example.BAND_VIEW):
        session.run(definition)
    return session


def _scans(expr, driver):
    found = [expr] if isinstance(expr, A.Scan) and expr.driver == driver else []
    for child in expr.children():
        found.extend(_scans(child, driver))
    return found


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
    filter scraps, at the configured width (the servers take more)."""
    plan = doe_session.query(example.DOE_QUERY).optimized
    assert isinstance(plan, ParallelExt)
    assert isinstance(plan.source, A.Scan) and "query" in plan.source.request
    assert plan.max_workers == doe_session.engine.optimizer_config.parallel_max_workers < CAP
    assert doe_session.engine.driver_gates["GenBank"].in_flight == 0


def test_reoptimising_a_query_finds_its_compiled_form(doe_session):
    """Optimising one CPL text twice gives one term fingerprint (``Cached``
    nodes included), so the second run hits the compile LRU."""
    # No pushdown for this one: two generators over *different* drivers keep
    # the loop local, and the loop-invariant inner scan gets cached.
    text = ('{[s = l.locus_symbol, uid = u] | \\l <- GDB-Tab("locus"), l.chromosome = "22",'
            ' \\u <- GenBank([db = "na", select = "chromosome 22", uids = true])}')
    first = doe_session.query(text)
    first_statistics = doe_session.engine.last_eval_statistics
    second = doe_session.query(text)
    second_statistics = doe_session.engine.last_eval_statistics

    def cached_nodes(expr):
        found = [expr] if isinstance(expr, A.Cached) else []
        for child in expr.children():
            found.extend(cached_nodes(child))
        return found

    assert cached_nodes(first.optimized), "the pin needs a plan with a Cached node"
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
