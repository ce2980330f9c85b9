"""EXPLAIN ANALYZE building blocks: collector, tee, folds, render, slow log."""

import pytest

from repro.obs.profile import (
    ProbeTee,
    QueryProfile,
    SlowQueryLog,
    StageCollector,
    aggregate_driver_spans,
)


class RecordingProbe:
    def __init__(self) -> None:
        self.chunks = []
        self.completed = None

    def note_chunk(self, stage, rows, seconds):
        self.chunks.append((stage, rows, seconds))

    def complete(self, cardinality=None):
        self.completed = cardinality


class TestStageCollector:
    def test_accumulates_per_stage_and_cardinality(self):
        collector = StageCollector()
        collector.note_chunk("pipeline", 10, 0.5)
        collector.note_chunk("pipeline", 5, 0.25)
        collector.note_chunk("scan:GDB", 15, 1.0)
        collector.complete(15.0)
        assert collector.stages() == {
            "pipeline": {"rows": 15, "seconds": 0.75, "chunks": 2},
            "scan:GDB": {"rows": 15, "seconds": 1.0, "chunks": 1},
        }
        assert collector.cardinality == 15.0


class TestProbeTee:
    def test_inner_probe_sees_only_the_cardinality(self):
        """Per-chunk timings are the profile's; the feedback probe inside
        the tee takes the drained run's cardinality and nothing else."""
        inner, sink = RecordingProbe(), StageCollector()
        tee = ProbeTee(inner, sink)
        tee.note_chunk("pipeline", 8, 0.125)
        tee.complete(8.0)
        assert inner.chunks == []
        assert inner.completed == 8.0
        assert sink.cardinality == 8.0
        assert sink.stages()["pipeline"]["rows"] == 8

    def test_none_inner_is_tolerated(self):
        sink = StageCollector()
        tee = ProbeTee(None, sink)
        tee.note_chunk("pipeline", 3, 0.0)
        tee.complete()
        assert sink.stages()["pipeline"]["rows"] == 3


class TestDriverSpanFold:
    def test_driver_and_batch_spans_fold_per_driver(self):
        trace_dict = {
            "trace": {
                "name": "query", "kind": "query", "duration": 5.0,
                "children": [
                    {"name": "scope", "kind": "scope", "duration": 4.0,
                     "children": [
                         {"name": "GDB", "kind": "driver", "duration": 1.0},
                         {"name": "GDB", "kind": "driver", "duration": 2.0},
                         {"name": "Entrez", "kind": "driver-batch",
                          "duration": 0.5},
                         {"name": "retry", "kind": "event", "duration": 0.0},
                     ]},
                ],
            }
        }
        assert aggregate_driver_spans(trace_dict) == {
            "GDB": {"requests": 2, "seconds": 3.0},
            "Entrez": {"requests": 1, "seconds": 0.5},
        }

    def test_empty_or_malformed_trace_folds_to_nothing(self):
        assert aggregate_driver_spans({}) == {}
        assert aggregate_driver_spans({"trace": None}) == {}


class TestQueryProfile:
    def _profile(self, **overrides):
        kwargs = dict(
            mode="compiled",
            plan={"source": "statistics", "max_chunk": 256,
                  "estimated_rows": 50.0},
            estimated_rows=40.0,
            actual_rows=50.0,
            elapsed=0.125,
            stages={"pipeline": {"rows": 50, "seconds": 0.1, "chunks": 4}},
            drivers={"GDB": {"requests": 2, "seconds": 0.05}},
            statistics={"retries": 2, "recovered_faults": 0, "warnings": []},
            books={"spills": 1, "bytes_spilled": 4096},
        )
        kwargs.update(overrides)
        return QueryProfile(**kwargs)

    def test_cardinality_error_is_signed_relative(self):
        assert self._profile().cardinality_error() == pytest.approx(0.25)
        assert self._profile(actual_rows=None).cardinality_error() is None
        assert self._profile(estimated_rows=0.0).cardinality_error() is None

    def test_annotations_list_only_nonzero_deviations(self):
        notes = self._profile().annotations()
        assert "retries=2" in notes
        assert "spills=1" in notes
        assert "bytes_spilled=4096" in notes
        assert not any(n.startswith("recovered_faults") for n in notes)
        assert not any(n.startswith("warnings") for n in notes)

    def test_render_is_an_annotated_tree(self):
        text = self._profile().render()
        lines = text.splitlines()
        assert lines[0].startswith("EXPLAIN ANALYZE (compiled)")
        assert "status=ok" in lines[0]
        assert any("rows: actual=50 estimated=40 (error +25.0%)" in l
                   for l in lines)
        assert any("stage pipeline: 50 rows / 4 chunks" in l for l in lines)
        assert any("driver GDB: 2 requests" in l for l in lines)
        assert lines[-1].startswith("└─ annotations:")
        assert all(l.startswith(("├─ ", "└─ ")) for l in lines[1:])

    def test_render_tolerates_a_minimal_profile(self):
        text = QueryProfile("interpreted").render()
        assert "rows: actual=? estimated=?" in text
        assert "annotations: none" in text

    def test_as_dict_is_wire_safe_plain_data(self):
        payload = self._profile().as_dict()
        assert payload["mode"] == "compiled"
        assert payload["cardinality_error"] == pytest.approx(0.25)
        assert payload["annotations"] == self._profile().annotations()


class TestSlowQueryLog:
    def test_only_profiles_over_the_threshold_are_kept(self):
        log = SlowQueryLog(threshold=0.5, keep=8)
        assert log.record(QueryProfile("compiled", elapsed=0.4)) is False
        assert log.record(QueryProfile("compiled", elapsed=0.6)) is True
        assert log.record(QueryProfile("compiled", elapsed=None)) is False
        snap = log.snapshot()
        assert snap == {"threshold": 0.5, "considered": 3, "logged": 1,
                        "kept": 1}
        assert len(log.entries()) == 1

    def test_ring_is_bounded_and_entries_limit_takes_the_newest(self):
        log = SlowQueryLog(threshold=0.0, keep=2)
        for elapsed in (1.0, 2.0, 3.0):
            log.record(QueryProfile("compiled", elapsed=elapsed))
        entries = log.entries()
        assert [e["elapsed"] for e in entries] == [2.0, 3.0]
        assert [e["elapsed"] for e in log.entries(limit=1)] == [3.0]
