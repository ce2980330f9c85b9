"""Self-tests of the end-to-end benchmark harness (collected by tier-1).

They pin the rules the numbers rest on — exclusive time with parallel
children, parent adoption across threads, receive clipping, the
tail-percentile rule, type-exact value comparison, the generator's
determinism, ``compare.py``'s verdicts — and that ``BENCHMARK.json`` names exactly what
``run.py`` emits.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
from pathlib import Path

import pytest

import run

run.import_program()

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

REPO = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


# -- the ledger ---------------------------------------------------------------

def test_self_time_is_duration_minus_union_of_parallel_children():
    spans = [
        Span(1, 0, "op", 0, 100, thread=1),
        Span(2, 1, "engine.execute", 10, 90, thread=1),
        # Two driver calls on worker threads, overlapping from 30 to 50.
        Span(3, 0, "drivers.execute", 20, 50, thread=2),
        Span(4, 0, "drivers.execute", 30, 70, thread=3),
    ]
    result = tracing.ledger(spans)
    assert result.root_ns == 100
    assert result.self_ns["engine.execute"] == 80 - 50  # union is [20, 70]
    assert result.self_ns["drivers.execute"] == 50  # overlap counted once
    assert result.self_ns["op"] == 20
    assert sum(result.self_ns.values()) == result.root_ns
    assert result.calls["drivers.execute"] == 2


def test_other_threads_spans_attach_to_innermost_containing_span():
    spans = [
        Span(1, 0, "op", 0, 100, thread=1),
        Span(2, 1, "session.query", 5, 95, thread=1),
        Span(3, 2, "engine.execute", 10, 60, thread=1),
        Span(4, 0, "drivers.execute", 20, 40, thread=2),   # inside execute
        Span(5, 0, "drivers.execute", 50, 80, thread=2),   # outlives execute
        Span(6, 5, "drivers.execute_batch", 55, 60, thread=2),
    ]
    parents = {span.id: span.parent for span in tracing.ledger(spans).spans}
    assert parents[4] == 3
    assert parents[5] == 2  # execute closes at 60: the session span contains it
    assert parents[6] == 5  # same-thread nesting is kept as recorded


def test_receive_starts_where_the_peers_send_started():
    spans = [
        Span(1, 0, "op", 0, 1000, thread=1),
        Span(2, 1, "client.request", 10, 990, thread=1),
        Span(3, 2, "framing.send", 20, 40, thread=1),
        Span(4, 2, "framing.recv", 40, 980, thread=1),      # blocks on the server
        Span(5, 0, "service.handle", 100, 800, thread=2),
        Span(6, 0, "framing.send", 820, 900, thread=2),
        Span(7, 0, "framing.recv", 905, 1000, thread=2),    # waits for the next op
    ]
    result = tracing.ledger(spans)
    by_id = {span.id: span for span in result.spans}
    assert by_id[4].start == 820
    assert 7 not in by_id  # received nothing in this operation
    assert by_id[5].parent == 2  # the wait is no longer the handler's parent
    # 20 + 160 (client send, clipped receive), the server's send inside it.
    assert result.self_ns["framing.send"] + result.self_ns["framing.recv"] == 180
    assert result.self_ns["service.handle"] == 700
    assert sum(result.self_ns.values()) == 1000


def test_spans_are_clipped_to_the_root_and_still_add_up():
    spans = [
        Span(1, 0, "op", 100, 200, thread=1),
        Span(2, 0, "framing.send", 90, 120, thread=2),   # straddles the start
        Span(3, 0, "service.handle", 150, 260, thread=2),  # still open at the end
        Span(4, 0, "wire.encode", 10, 20, thread=2),     # before the operation
    ]
    result = tracing.ledger(spans)
    assert result.self_ns == {"op": 30, "framing.send": 20, "service.handle": 50}


def test_recorder_closes_spans_left_open_and_passes_through_when_inactive():
    recorder = tracing.Recorder()
    calls = []
    traced = recorder.wrap("layer.call", lambda value: calls.append(value) or value)
    assert traced(1) == 1 and recorder.open == []  # inactive: no span
    recorder.begin()
    outer = recorder.wrap("outer", lambda: traced(2))
    assert outer() == 2
    recorder.open.append([99, 0, "framing.send", 5, 0, 7])  # never closed
    spans, _ = recorder.end()
    assert [span.name for span in spans] == ["outer", "layer.call", "framing.send"]
    assert spans[1].parent == spans[0].id
    assert spans[2].end >= spans[1].end  # closed at end()
    assert calls == [1, 2]


# -- statistics ---------------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond_it():
    samples = list(range(1, 201))
    percentile, value = run.tail_percentile(samples)
    assert (percentile, value) == (95.0, 190)
    assert sum(sample > value for sample in samples) == 10
    assert run.tail_percentile([5, 1, 3]) == (50.0, 3)  # too few: the median


def test_throughput_is_over_the_wall_time_of_the_timed_section():
    def sample(latency, rows):
        return run.Sample("k", latency, latency / 4, rows, (), False, 0)
    values = run.headline_metrics(
        [[sample(0.1, 10), sample(0.3, 30)], [sample(0.2, 20)]], wall_s=2.0)
    assert values["query_p50_ms"] == pytest.approx(200.0)
    assert values["ttfr_p50_ms"] == pytest.approx(50.0)
    assert values["throughput_qps"] == 1.5  # not 1 / mean latency
    assert values["rows_per_s"] == 30.0


def test_values_compare_type_exact_and_sets_ignore_order():
    from repro.core.values import CBag, CList, CSet, Record

    row = Record({"a": 1, "b": "x"})
    assert run.canon(row) == run.canon(Record({"b": "x", "a": 1}))
    assert run.canon(Record({"a": True, "b": "x"})) != run.canon(row)
    assert run.canon(Record({"a": 1.0, "b": "x"})) != run.canon(row)
    assert run.canon(CSet([1, 2])) == run.canon(CSet([2, 1]))
    assert run.canon(CList([1, 2])) != run.canon(CList([2, 1]))
    assert run.canon(CBag([1, 1, 2])) != run.canon(CBag([1, 2, 2]))
    assert run.canon(CSet([1])) != run.canon(CList([1]))
    nested = Record({"k": CSet([row])})
    assert run.canon(nested) == run.canon(Record({"k": CSet([Record({"a": 1, "b": "x"})])}))

    # A cursor's rows against the oracle's collection.
    expected = run.digest("cursor", [CSet([row, Record({"a": 2, "b": "y"})])],
                          expected=True)
    streamed = [Record({"a": 2, "b": "y"}), row]
    assert run.digests_agree(run.digest("cursor", [streamed]), expected)
    assert not run.digests_agree(run.digest("cursor", [streamed + [row]]), expected)
    ordered = run.digest("cursor", [CList([1, 2])], expected=True)
    assert run.digests_agree(run.digest("cursor", [[1, 2]]), ordered)
    assert not run.digests_agree(run.digest("cursor", [[2, 1]]), ordered)


def test_compare_verdicts():
    assert compare.verdict([100.0], [105.0], "lower", 0.10) == "ok"
    assert compare.verdict([100.0], [111.0], "lower", 0.10) == "worse"
    assert compare.verdict([100.0], [89.0], "higher", 0.10) == "worse"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, [100.0, 118.0, 121.0, 150.0], "lower", 0.10) \
        == "unresolved"
    # Every run of B better than every run of A: the spread does not matter.
    assert compare.verdict(noisy, [60.0, 70.0, 75.0], "lower", 0.10) == "ok"


def result_file(**end_to_end):
    slots = {name: {"unit": "ms", "values": values}
             for name, values in end_to_end.items()}
    return {"seed": 1, "runs": 1, "workloads": {"wide_stream": {
        "end_to_end": slots, "per_layer": {}, "ops_attempted": [10],
        "ops_failed": [0]}}}


def test_compare_fails_on_anything_only_one_file_has(capsys):
    full = result_file(setup_s=[0.5], peak_rss_mb=[40.0])
    assert compare.compare(full, full, BENCHMARK) == 0
    fewer = result_file(setup_s=[0.5])
    assert compare.compare(full, fewer, BENCHMARK) == 1
    assert compare.compare(fewer, full, BENCHMARK) == 1
    other = {"seed": 1, "runs": 1, "workloads": {}}
    assert compare.compare(full, other, BENCHMARK) == 1
    assert compare.compare(other, full, BENCHMARK) == 1
    assert "only in the base file" in capsys.readouterr().out


# -- the generator ------------------------------------------------------------

@pytest.mark.parametrize("name", [n for n in workloads.NAMES
                                  if n != "doe_federated"])
def test_same_seed_same_inputs(name):
    first, second = (workloads.build(name, 7, seconds=0.2) for _ in range(2))
    assert first.ops == second.ops and first.warmup == second.warmup
    assert first.bindings == second.bindings
    other = workloads.build(name, 8, seconds=0.2)
    assert other.bindings != first.bindings
    assert {k: len(v[0]) for k, v in other.bindings.items()} == \
        {k: len(v[0]) for k, v in first.bindings.items()}


def test_adhoc_queries_are_distinct_and_differ_by_seed():
    first = workloads.build("adhoc_cold", 7, seconds=1)
    texts = [op.parts[0][1] for op in first.warmup + first.ops]
    assert len(texts) == len(set(texts)) == 5 + 200
    other = workloads.build("adhoc_cold", 8, seconds=1)
    assert not set(texts) & {op.parts[0][1] for op in other.ops}


def test_doe_seed_steering_and_verbatim_queries():
    assert workloads.doe_data_seed(22) == 22  # the example's own dataset
    assert workloads.doe_data_seed(23) == workloads.doe_data_seed(23) != 23
    spec = importlib.util.spec_from_file_location(
        "doe_example", REPO / "examples" / "doe_query_chr22.py")
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    assert (workloads.LOCI22, workloads.ASN_IDS, workloads.DOE_QUERY) == \
        (example.LOCI22, example.ASN_IDS, example.DOE_QUERY)


# -- BENCHMARK.json -----------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_benchmark_json_names_what_run_emits():
    assert list(BENCHMARK) == ["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["command"][1].startswith(BENCHMARK["paths"][0] + "/")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_run_emits_every_metric_and_checks_every_value(
        trace, section, capsys):
    args = argparse.Namespace(workload="adhoc_cold", seed=5, seconds=0.25,
                              trace=trace, dump=None)
    assert run.measured_run(args) == 0
    reply = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert reply["correct"] and reply["failed"] == 0 and reply["attempted"] >= 20
    assert list(reply["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    assert all(isinstance(m["value"], (int, float)) for m in reply["metrics"].values())
    if trace:
        assert reply["metrics"]["compile.cache_hit_share"]["value"] < 0.05
        assert reply["metrics"]["ledger.unattributed_share"]["value"] < 0.5
