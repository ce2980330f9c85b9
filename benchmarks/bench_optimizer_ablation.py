"""E9 — per-stage optimizer ablation over the DOE query.

The paper describes its optimizer as a set of independently specified rule
sets (monadic normalisation, pushdown to the servers, local join operators,
inner-subquery caching, bounded parallelism; here the two join operators are
the caching stage's probe and hoist, and the join stage recognises the key).  DESIGN.md lists these stages as
ablation candidates; this benchmark turns each stage off in isolation and
re-runs the end-to-end DOE chromosome-22 query, reporting how the run time and
the work crossing the driver boundary change — i.e. which of the paper's
optimizations carries how much of the win.

Every configuration must return exactly the same answer as the fully
optimized pipeline (rewrites never change meaning).
"""

import time

import pytest

from repro.bio.chromosome22 import build_chromosome22
from repro.core.optimizer import OptimizerConfig
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.session import Session

from conftest import report

LOCUS_COUNT = 80

LOCI22 = '''
define Loci22 == {[locus-symbol = x, genbank-ref = y] |
  [locus_symbol = \\x, locus_id = \\a, ...] <- GDB-Tab("locus"),
  [genbank_ref = \\y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
  [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}
'''

ASN_IDS = '''
define ASN-IDs == \\accession =>
  GenBank([db = "na", select = "accession " ^ accession, path = "Seq-entry.seq.id..giim"])
'''

DOE = ('{[locus = locus, homologs = NA-Links(uid)] |'
       ' \\locus <- Loci22, \\uid <- ASN-IDs(locus.genbank-ref)}')

CONFIGURATIONS = [
    ("full optimizer", OptimizerConfig()),
    ("no monadic rules (R1-R4)", OptimizerConfig(monadic=False)),
    ("no SQL pushdown", OptimizerConfig(sql_pushdown=False)),
    ("no path pushdown", OptimizerConfig(path_pushdown=False)),
    # The two join operators are the caching stage's probe and hoist; what
    # this switch ablates is the recognition of a key behind other filters.
    ("no join-key recognition", OptimizerConfig(local_joins=False)),
    ("no subquery caching (probe, hoist)", OptimizerConfig(caching=False)),
    ("no parallel remote loops", OptimizerConfig(parallelism=False)),
    ("everything off", OptimizerConfig.disabled()),
]


def _session(dataset, config: OptimizerConfig) -> Session:
    session = Session(optimizer_config=config)
    session.register_driver(RelationalDriver("GDB", dataset.gdb))
    session.register_driver(EntrezDriver("GenBank", dataset.genbank))
    session.run(LOCI22)
    session.run(ASN_IDS)
    return session


@pytest.fixture(scope="module")
def dataset():
    return build_chromosome22(locus_count=LOCUS_COUNT, seed=22)


def _run_once(dataset, config: OptimizerConfig):
    session = _session(dataset, config)
    started = time.perf_counter()
    value = session.run(DOE)
    elapsed = time.perf_counter() - started
    statistics = session.engine.last_eval_statistics
    return value, elapsed, statistics


@pytest.mark.parametrize("label,config", CONFIGURATIONS[:1] + CONFIGURATIONS[-1:])
def test_doe_query_under_configuration(benchmark, dataset, label, config):
    session = _session(dataset, config)
    benchmark(session.run, DOE)


def test_e9_ablation_report(dataset):
    reference, _, _ = _run_once(dataset, OptimizerConfig())
    rows = []
    timings = {}
    for label, config in CONFIGURATIONS:
        value, elapsed, statistics = _run_once(dataset, config)
        assert value == reference, f"{label} changed the query's answer"
        timings[label] = elapsed
        rows.append([label, f"{elapsed * 1000:.0f} ms",
                     statistics.scan_requests, statistics.scan_elements,
                     statistics.ext_iterations])
    report(f"E9: DOE query over {LOCUS_COUNT} loci — one optimizer stage disabled at a time",
           rows, ["configuration", "time", "driver requests",
                  "rows crossing driver", "loop iterations"])
    # The fully optimized pipeline beats the fully disabled one, and disabling
    # the SQL pushdown (the biggest single win on this query) costs measurably.
    assert timings["full optimizer"] < timings["everything off"]
    assert timings["full optimizer"] <= timings["no SQL pushdown"]


def test_e9_adaptive_concurrency_configuration(dataset):
    """The adaptive-concurrency switch (the one scheduler's window may move
    instead of staying pinned) composes with the rest of the pipeline and
    does not change the answer."""
    reference, pinned, _ = _run_once(dataset, OptimizerConfig())
    adaptive_value, moving, _ = _run_once(
        dataset, OptimizerConfig(adaptive_concurrency=True))
    assert adaptive_value == reference
    report("E9: adaptive concurrency switch over the same query",
           [["pinned window", f"{pinned * 1000:.0f} ms"],
            ["moving window (adaptive)", f"{moving * 1000:.0f} ms"]],
           ["configuration", "time"])
