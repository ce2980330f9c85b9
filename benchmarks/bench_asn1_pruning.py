"""E5 — path extraction at the ASN.1 driver vs retrieve-then-prune.

Paper claim (Section 3): "we are able to minimize the cost of parsing and
copying ASN.1 values by pruning at the level of the ASN.1 driver" with the
path-extraction syntax (e.g. ``Seq-entry.seq.id..giim``).

The benchmark retrieves batches of Seq-entries and extracts the giim ids
either (a) with the path applied during the parse (pruning) or (b) by parsing
the full entries and applying the same path afterwards, and reports the time
per batch.  The report asserts the pruned parse is at least
``BENCH_ASN1_MIN_SPEEDUP`` times faster at the largest size (local bar 2.5;
the smaller batches take a few milliseconds, too few to gate on) and writes
``BENCH_asn1.json``.
"""

import os
import time

import pytest

from repro.asn1.parser import parse_value, parse_value_with_path
from repro.asn1.path import parse_path
from repro.bio.genbank import build_genbank, seq_entry_schema

from conftest import report, update_summary

SIZES = [100, 500, 2000]
MIN_SPEEDUP = float(os.environ.get("BENCH_ASN1_MIN_SPEEDUP", "2.5"))
PATH = parse_path("Seq-entry.seq.id..giim")


def _entry_texts(count: int):
    server = build_genbank(list(range(1, count // 3 + 2)), homologues_per_entry=2,
                           sequence_length=400, compute_links=False)
    division = server.division("na")
    texts = [entry.text for entry in division.entries.values()][:count]
    return texts, division.entry_type


def prune_during_parse(texts, entry_type):
    return [parse_value_with_path(text, entry_type, PATH) for text in texts]


def parse_then_prune(texts, entry_type):
    return [PATH.apply(parse_value(text, entry_type)) for text in texts]


@pytest.mark.parametrize("size", SIZES[:2])
def test_prune_during_parse(benchmark, size):
    texts, entry_type = _entry_texts(size)
    benchmark(prune_during_parse, texts, entry_type)


@pytest.mark.parametrize("size", SIZES[:2])
def test_parse_then_prune(benchmark, size):
    texts, entry_type = _entry_texts(size)
    benchmark(parse_then_prune, texts, entry_type)


def test_e5_report():
    rows = []
    speedups = []
    summary = {}
    for size in SIZES:
        texts, entry_type = _entry_texts(size)
        assert prune_during_parse(texts, entry_type) == parse_then_prune(texts, entry_type)
        pruned = min(_timed(prune_during_parse, texts, entry_type) for _ in range(5))
        full = min(_timed(parse_then_prune, texts, entry_type) for _ in range(5))
        speedups.append(full / pruned)
        rows.append([size, f"{full * 1000:.1f} ms", f"{pruned * 1000:.1f} ms",
                     f"{full / pruned:.2f}x"])
        summary[str(size)] = {"full_parse_then_prune_ms": full * 1000,
                              "prune_during_parse_ms": pruned * 1000,
                              "speedup": full / pruned}
    report("E5: ASN.1 path extraction — prune during parse vs retrieve-then-prune",
           rows, ["entries", "full parse + prune", "prune at driver", "speed-up"])
    update_summary("BENCH_asn1.json", "e5_path_pruning",
                   {"entries": summary, "min_speedup": MIN_SPEEDUP})
    assert speedups[-1] >= MIN_SPEEDUP, speedups


def _timed(function, *args) -> float:
    started = time.perf_counter()
    function(*args)
    return time.perf_counter() - started
