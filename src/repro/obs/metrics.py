"""Thread-safe metrics primitives: books, counters, histograms.

:class:`Books` is the one type of named integer counts a subsystem keeps
(the server's service counts, each driver's resilience counts, the
governance ledger); the hub's registry holds only what no book counts.  The
design constraints, in order:

* **Zero-recorder contract.**  Apart from the books, nothing in this module
  is consulted unless an :class:`~repro.obs.Observability` hub has been
  attached to the engine.  Every hook site in the engine/server is
  ``None``-guarded, so an unobserved run takes the exact pre-observability
  code path.

* **`_CompileCache` lock pattern.**  The registry holds ONE lock guarding
  its name→metric map; each metric instance carries its own lock guarding
  its mutable cells.  Readers always snapshot under the lock and return
  plain data, never live references — the same discipline
  ``repro.core.nrc.compile._CompileCache`` uses for its maps and counters.

* **Fixed exponential buckets.**  Histograms use a fixed, strictly
  increasing bound ladder (``start * growth**i``) plus an implicit +Inf
  overflow bucket.  Fixed bounds make merges associative and exact: two
  histograms with identical bounds merge by adding their per-bucket counts,
  so fan-in from worker threads or federated servers never loses counts
  (property-tested in ``tests/properties``).

* **Prometheus-style exposition.**  :meth:`MetricsRegistry.render` emits
  the standard text format (``# HELP``/``# TYPE``, cumulative ``le``
  buckets, ``_sum``/``_count``) so the ``metrics`` wire op can be scraped
  by anything that speaks Prometheus.

The module also hosts :class:`RowWidthEstimator` — the sampled row-width
model that replaces the constant ``NOMINAL_ROW_BYTES`` spill gate.  With
zero samples it returns its default verbatim, so an engine that never
spilled reproduces the historical constant bit-for-bit.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "Books",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RowWidthEstimator",
    "exponential_buckets",
]


def exponential_buckets(start: float, growth: float, count: int) -> Tuple[float, ...]:
    """A fixed exponential bound ladder: ``start * growth**i`` for ``count`` bounds.

    ``start`` must be positive and ``growth`` strictly greater than 1 so the
    ladder is strictly increasing — the invariant every histogram operation
    (observe via bisect, cumulative rendering, exact merge) relies on.
    """
    if count < 1:
        raise ValueError("bucket count must be >= 1")
    if start <= 0:
        raise ValueError("bucket start must be > 0")
    if growth <= 1.0:
        raise ValueError("bucket growth must be > 1")
    bounds = tuple(start * growth ** i for i in range(count))
    for lo, hi in zip(bounds, bounds[1:]):
        if not lo < hi:  # pragma: no cover - float overflow guard
            raise ValueError("bucket bounds must be strictly increasing")
    return bounds


class Books:
    """Named integer counts under one lock: one subsystem's ledger.

    The names given at construction always appear in a snapshot (zero until
    counted); another name appears once it is counted.  A count also reads
    as an attribute (``books.rejections``).
    """

    __slots__ = ("_lock", "_counts")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(names, 0)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def merge(self, books: Mapping[str, int]) -> None:
        """Fold a run-local dict of counts (a spill manager's) in."""
        with self._lock:
            for name, amount in books.items():
                if amount:
                    self._counts[name] = self._counts.get(name, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __getattr__(self, name: str) -> int:
        # Reached only for a name that is not a slot.
        if name.startswith("_"):
            raise AttributeError(name)
        with self._lock:
            try:
                return self._counts[name]
            except KeyError:
                raise AttributeError(name) from None


class Counter:
    """A monotonically increasing count.  ``inc`` is thread-safe."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with an implicit +Inf overflow bucket.

    ``counts`` has ``len(bounds) + 1`` cells; an observation lands in the
    first bucket whose upper bound is ``>= value`` (Prometheus ``le``
    semantics), or in the overflow cell when it exceeds every bound.
    """

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float], help: str = "") -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bound")
        for lo, hi in zip(bounds, bounds[1:]):
            if not lo < hi:
                raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s counts into this histogram (exact, associative).

        Requires identical bucket bounds — merging differently shaped
        histograms would silently smear counts, so it is an error instead.
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        other_counts, other_sum, other_count = other._snapshot_cells()
        with self._lock:
            for i, c in enumerate(other_counts):
                self._counts[i] += c
            self._sum += other_sum
            self._count += other_count

    def _snapshot_cells(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, object]:
        counts, total, count = self._snapshot_cells()
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "counts": counts,
            "sum": total,
            "count": count,
        }


class MetricsRegistry:
    """Get-or-create metric store guarded by one lock (`_CompileCache` pattern).

    Metric names are unique across kinds; asking for an existing name with a
    different kind (or different histogram bounds) raises instead of
    silently aliasing two instruments.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name, factory, kind):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}")
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def histogram(self, name: str, bounds: Sequence[float],
                  help: str = "") -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, bounds, help), "histogram")
        if metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with different bounds")
        return metric

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self, counters: Iterable[Tuple[str, str, float]] = ()) -> str:
        """Prometheus text exposition of every registered metric, and of
        ``counters``: ``(name, help, value)`` counts kept elsewhere, read
        at scrape time and rendered as counters in the same name order."""
        with self._lock:
            metrics = dict(self._metrics)
        for name, help, value in counters:
            metrics[name] = reading = Counter(name, help)
            reading.inc(value)
        lines: List[str] = []
        for name, metric in sorted(metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                counts, total, count = metric._snapshot_cells()
                cumulative = 0
                for bound, cell in zip(metric.bounds, counts):
                    cumulative += cell
                    lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
                cumulative += counts[-1]
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{name}_sum {total:g}")
                lines.append(f"{name}_count {count}")
            else:
                lines.append(f"{name} {metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


class RowWidthEstimator:
    """Sampled bytes-per-row model for the governance spill gate.

    Fed from spill bookkeeping (every spilled frame knows both its encoded
    byte length and how many rows it carried), so the estimate reflects the
    *actual* serialized width of this workload's rows.  The differential
    pin: with zero samples :meth:`row_bytes` returns the constructor
    default verbatim — historically ``governance.NOMINAL_ROW_BYTES`` — so
    an engine that never observed a row reproduces the constant-gate
    behaviour bit-for-bit.
    """

    def __init__(self, default: float) -> None:
        self._default = default
        self._lock = threading.Lock()
        self._bytes = 0.0
        self._rows = 0

    def observe(self, nbytes: float, rows: int) -> None:
        if rows <= 0 or nbytes < 0:
            return
        with self._lock:
            self._bytes += nbytes
            self._rows += rows

    def row_bytes(self) -> float:
        with self._lock:
            if self._rows == 0:
                return self._default
            return max(1.0, self._bytes / self._rows)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            rows, nbytes = self._rows, self._bytes
        return {
            "default": self._default,
            "sampled_rows": rows,
            "sampled_bytes": nbytes,
            "row_bytes": self.row_bytes(),
        }
