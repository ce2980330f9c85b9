"""The planner's cost model: estimated rows x observed per-item costs.

Kleisli "chooses among physical strategies using knowledge about the
sources"; this module turns that knowledge — registered/observed driver
latencies from the statistics registry, per-chunk pipeline costs from the
:class:`~repro.core.planner.feedback.PlanFeedback` ledger, and a handful of
calibrated interpreter-overhead constants — into comparable costs in
seconds, so the :class:`~repro.core.planner.plan.QueryPlanner` can pick the
cheapest knob setting instead of a hard-coded one.

The constants are deliberately coarse (they only need to rank knob
candidates whose true costs differ by integer factors); observed numbers
always override them when the feedback ledger has a measurement.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["CostModel", "pow2ceil"]


def pow2ceil(value: float) -> int:
    """The smallest power of two >= ``value`` (and >= 1)."""
    n = max(1, int(math.ceil(value)))
    return 1 << (n - 1).bit_length()


class CostModel:
    """Cost estimates combining cardinalities, latencies and observed costs."""

    #: Per-element CPU cost of one fused pipeline stage (calibration
    #: constant; feedback measurements override it).
    PER_ITEM_CPU = 2e-6
    #: Per-task overhead of a scheduler submission (future + ordering).
    TASK_OVERHEAD = 2e-4
    #: Per-chunk dispatch overhead of a pipeline stage boundary.
    CHUNK_DISPATCH = 5e-6
    #: Driver round-trip latency above which batching round-trips dominates
    #: the cost of a scan-batched stage (and is worth re-planning for).
    BATCH_LATENCY_THRESHOLD = 0.005
    #: Driver latency above which a loop body is latency-bound: prefetch
    #: should stay element-granular and start wide.
    REMOTE_PARALLEL_LATENCY = 0.005

    def __init__(self, statistics, feedback=None):
        self.statistics = statistics
        self.feedback = feedback

    # -- per-source numbers -------------------------------------------------

    def driver_latency(self, driver: str) -> float:
        """Best per-request latency estimate (registered wins, else EMA)."""
        return float(self.statistics.latency(driver))

    def unit_cost(self, observation, stage: str = "pipeline") -> Optional[float]:
        """Observed per-element cost of a stage from a feedback observation."""
        if observation is None:
            return None
        return observation.unit_cost(stage)

    # -- composite costs ----------------------------------------------------

    def batched_scan_cost(self, rows: float, batch: int, latency: float) -> float:
        """Cost of fetching ``rows`` scan results in batches of ``batch``
        through a single-round-trip ``execute_batch`` driver: one latency
        per batch, plus the per-item buffering/dispatch work."""
        batches = math.ceil(max(rows, 1.0) / max(1, batch))
        return batches * latency + rows * self.PER_ITEM_CPU \
            + batches * self.CHUNK_DISPATCH

    def parallel_chunk_for(self, unit_cost: Optional[float]) -> int:
        """Task granularity for a ParallelExt body of ``unit_cost`` seconds
        per element: enough elements per task to amortize TASK_OVERHEAD,
        one element when the body is expensive (or unmeasured)."""
        if unit_cost is None or unit_cost <= 0.0:
            return 1
        if unit_cost >= self.TASK_OVERHEAD:
            return 1
        return min(256, pow2ceil(self.TASK_OVERHEAD / unit_cost))
