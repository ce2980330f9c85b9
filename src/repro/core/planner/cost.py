"""The planner's cost model: estimated rows x driver latencies.

Kleisli "chooses among physical strategies using knowledge about the
sources"; this module turns that knowledge — registered or observed driver
latencies from the statistics registry, and a handful of calibrated
interpreter-overhead constants — into comparable costs in seconds, so the
:class:`~repro.core.planner.plan.QueryPlanner` can pick the cheapest remote
batch cap instead of a hard-coded one.

The constants are deliberately coarse: they only need to rank knob
candidates whose true costs differ by integer factors.
"""

from __future__ import annotations

import math

__all__ = ["CostModel"]


class CostModel:
    """Cost estimates combining cardinalities and driver latencies."""

    #: Per-element CPU cost of one fused pipeline stage (calibration
    #: constant).
    PER_ITEM_CPU = 2e-6
    #: Per-chunk dispatch overhead of a pipeline stage boundary.
    CHUNK_DISPATCH = 5e-6
    #: Driver round-trip latency above which batching round-trips dominates
    #: the cost of a scan-batched stage (and is worth re-planning for).
    BATCH_LATENCY_THRESHOLD = 0.005

    def __init__(self, statistics):
        self.statistics = statistics

    def driver_latency(self, driver: str) -> float:
        """Best per-request latency estimate (registered wins, else EMA)."""
        return float(self.statistics.latency(driver))

    def batched_scan_cost(self, rows: float, batch: int, latency: float) -> float:
        """Cost of fetching ``rows`` scan results in batches of ``batch``
        through a single-round-trip ``execute_batch`` driver: one latency
        per batch, plus the per-item buffering/dispatch work."""
        batches = math.ceil(max(rows, 1.0) / max(1, batch))
        return batches * latency + rows * self.PER_ITEM_CPU \
            + batches * self.CHUNK_DISPATCH
