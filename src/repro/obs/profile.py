"""EXPLAIN ANALYZE: per-operator timings, actual vs. estimated rows, annotations.

A :class:`QueryProfile` is the post-hoc record of one engine run: the
physical plan the planner chose, per-stage wall time and row counts, the
actual result cardinality next to the planner's estimate, and annotations
for everything that deviated from the happy path (retries, recovered
faults, eager sections in a stream, spills, cancellation).

Profiles are *observation only*.  ``engine.stream(..., profile=True)``
collects one through a timing probe (chunked lowering) and the trace
(driver-request spans, covering the eager lowering, whose compiled
artifacts have no chunk boundaries to report) — the values the query
produces are bit-identical to an unprofiled run, which the acceptance
tests pin across both lowerings.

The :class:`SlowQueryLog` is a bounded ring of completed profiles above a
latency threshold — the operator's first stop for "what was slow last
night" — surfaced through the server's ``stats`` op.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional

__all__ = ["StageCollector", "ProbeTee", "QueryProfile", "SlowQueryLog",
           "aggregate_driver_spans"]


class StageCollector:
    """Sink accumulating per-stage rows/seconds/chunks for a profile.

    Takes the chunked lowering's per-chunk timings (``note_chunk``) through
    a :class:`ProbeTee`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: Dict[str, List[float]] = {}

    def note_chunk(self, stage: str, rows: int, seconds: float) -> None:
        with self._lock:
            cell = self._stages.get(stage)
            if cell is None:
                cell = [0.0, 0.0, 0]
                self._stages[stage] = cell
            cell[0] += rows
            cell[1] += seconds
            cell[2] += 1

    def stages(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                stage: {"rows": rows, "seconds": seconds, "chunks": chunks}
                for stage, (rows, seconds, chunks) in sorted(self._stages.items())
            }


class ProbeTee:
    """The chunk sink of an observed run: per-chunk timings to every sink.

    Its ``note_chunk`` is what makes the chunked pump time its chunks at
    all, so an unobserved run reads no clock per chunk.
    """

    def __init__(self, *sinks) -> None:
        self._sinks = sinks

    def note_chunk(self, stage: str, rows: int, seconds: float) -> None:
        for sink in self._sinks:
            sink.note_chunk(stage, rows, seconds)


def aggregate_driver_spans(trace_dict: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """Fold a trace's driver-request spans into per-driver request/time totals.

    This is what gives the eager lowering its per-stage timings: its
    compiled artifacts report no chunks, but every remote round trip still
    flows through ``driver_executor``, which opens one ``driver`` span per
    request.
    """
    totals: Dict[str, Dict[str, float]] = {}
    root = trace_dict.get("trace")
    if isinstance(root, dict):
        _add_driver_spans(root, totals)
    return totals


def _add_driver_spans(node: Dict[str, object],
                      totals: Dict[str, Dict[str, float]]) -> None:
    if node.get("kind") in ("driver", "driver-batch"):
        name = str(node.get("name", ""))
        cell = totals.setdefault(name, {"requests": 0, "seconds": 0.0})
        cell["requests"] += 1
        duration = node.get("duration")
        if isinstance(duration, (int, float)):
            cell["seconds"] += duration
    for child in node.get("children", ()):
        _add_driver_spans(child, totals)


# Statistics counters worth calling out when non-zero, in render order.
_ANNOTATION_KEYS = (
    "retries", "recovered_faults", "stream_fallbacks", "warnings",
)
_BOOK_KEYS = ("spills", "bytes_spilled", "rows_spilled", "spill_fallbacks",
              "cancellations", "budget_rejections")


class QueryProfile:
    """One completed run's EXPLAIN ANALYZE record."""

    def __init__(self, mode: str,
                 plan: Optional[Dict[str, object]] = None,
                 estimated_rows: Optional[float] = None,
                 actual_rows: Optional[float] = None,
                 elapsed: Optional[float] = None,
                 stages: Optional[Dict[str, Dict[str, float]]] = None,
                 drivers: Optional[Dict[str, Dict[str, float]]] = None,
                 statistics: Optional[Dict[str, object]] = None,
                 books: Optional[Dict[str, int]] = None,
                 trace: Optional[Dict[str, object]] = None,
                 status: str = "ok") -> None:
        self.mode = mode
        self.plan = plan
        self.estimated_rows = estimated_rows
        self.actual_rows = actual_rows
        self.elapsed = elapsed
        self.stages = stages or {}
        self.drivers = drivers or {}
        self.statistics = statistics or {}
        self.books = books or {}
        self.trace = trace
        self.status = status

    # -- annotations -------------------------------------------------------

    def annotations(self) -> List[str]:
        """Non-zero deviations from the happy path, as ``key=value`` strings."""
        notes: List[str] = []
        stats = self.statistics
        for key in _ANNOTATION_KEYS:
            value = stats.get(key)
            if isinstance(value, list):
                value = len(value)
            if value:
                notes.append(f"{key}={value}")
        for key in _BOOK_KEYS:
            value = self.books.get(key)
            if value:
                notes.append(f"{key}={value}")
        return notes

    def cardinality_error(self) -> Optional[float]:
        """Signed relative estimation error, e.g. +0.25 = actual 25% above."""
        if self.estimated_rows is None or self.actual_rows is None:
            return None
        if self.estimated_rows <= 0:
            return None
        return (self.actual_rows - self.estimated_rows) / self.estimated_rows

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _fmt_seconds(seconds: Optional[float]) -> str:
        if seconds is None:
            return "?"
        if seconds >= 1.0:
            return f"{seconds:.3f}s"
        return f"{seconds * 1e3:.2f}ms"

    def render(self) -> str:
        """The annotated physical-plan tree, one line per operator/stage."""
        elapsed = self._fmt_seconds(self.elapsed)
        lines = [f"EXPLAIN ANALYZE ({self.mode}) — {elapsed}, status={self.status}"]
        body: List[str] = []
        if self.plan:
            knobs = " ".join(f"{key}={value}" for key, value in self.plan.items()
                             if key != "estimated_rows" and value is not None)
            body.append(f"plan: {knobs}")
        actual = "?" if self.actual_rows is None else f"{self.actual_rows:g}"
        estimated = ("?" if self.estimated_rows is None
                     else f"{self.estimated_rows:g}")
        error = self.cardinality_error()
        suffix = "" if error is None else f" (error {error:+.1%})"
        body.append(f"rows: actual={actual} estimated={estimated}{suffix}")
        for stage, cell in sorted(self.stages.items()):
            body.append(
                f"stage {stage}: {cell.get('rows', 0):g} rows / "
                f"{cell.get('chunks', 0):g} chunks in "
                f"{self._fmt_seconds(cell.get('seconds'))}")
        for driver, cell in sorted(self.drivers.items()):
            body.append(
                f"driver {driver}: {cell.get('requests', 0):g} requests in "
                f"{self._fmt_seconds(cell.get('seconds'))}")
        notes = self.annotations()
        body.append("annotations: " + (" ".join(notes) if notes else "none"))
        for i, line in enumerate(body):
            branch = "└─ " if i == len(body) - 1 else "├─ "
            lines.append(branch + line)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "status": self.status,
            "plan": self.plan,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "elapsed": self.elapsed,
            "cardinality_error": self.cardinality_error(),
            "stages": self.stages,
            "drivers": self.drivers,
            "statistics": self.statistics,
            "books": self.books,
            "annotations": self.annotations(),
            "trace": self.trace,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"QueryProfile({self.mode!r}, rows={self.actual_rows}, "
                f"elapsed={self.elapsed})")


class SlowQueryLog:
    """Bounded ring of completed profiles above a latency threshold."""

    def __init__(self, threshold: float = 0.25, keep: int = 32) -> None:
        self.threshold = threshold
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=keep)
        self.considered = 0
        self.logged = 0

    def record(self, profile: QueryProfile) -> bool:
        """Consider one profile; keep it when its latency crosses the bar."""
        with self._lock:
            self.considered += 1
            if profile.elapsed is None or profile.elapsed < self.threshold:
                return False
            self.logged += 1
            self._ring.append(profile)
            return True

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        with self._lock:
            profiles = list(self._ring)
        if limit is not None and limit >= 0:
            profiles = profiles[-limit:] if limit else []
        return [profile.as_dict() for profile in profiles]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "threshold": self.threshold,
                "considered": self.considered,
                "logged": self.logged,
                "kept": len(self._ring),
            }
