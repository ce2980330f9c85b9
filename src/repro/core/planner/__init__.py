"""Cost-based planning for the Kleisli reproduction.

The paper's optimizer "chooses among physical strategies using knowledge
about the sources"; this package is that chooser for the reproduction's
three lowering targets:

* :mod:`~repro.core.planner.cardinality` — structural row-count estimates
  over optimized NRC terms, seeded by the statistics registry;
* :mod:`~repro.core.planner.cost` — the cost model (estimated rows x
  per-driver latency);
* :mod:`~repro.core.planner.plan` — :class:`PhysicalPlan` (the per-query
  knob set) and :class:`QueryPlanner` (the chooser the engine and the
  optimizer rule sets consult);
* :mod:`~repro.core.planner.store` — :class:`PlanStore`, crash-safe
  persistence for the statistics registry's learned state.

A plan is what the sources declare or the registry observed; nothing a run
drained re-plans the next one.

Persistence
===========

:class:`PlanStore` makes the learned statistics survive the process.  One
store is one directory: an atomic ``snapshot.kjs`` plus append-only
per-process ``journal-<pid>-<id>.kjl`` files.  Every record is
length-prefixed and CRC32-checksummed (the :mod:`repro.net.framing`
discipline, hardened for disk: 4-byte big-endian length, 4-byte CRC32 of
the payload, UTF-8 JSON payload,
:data:`~repro.core.planner.store.MAX_RECORD_BYTES` cap).  Journals open
with a header record carrying the store schema version; a journal or
snapshot written under a different version is skipped wholesale.  Recovery
is paranoid: a truncated tail, a bit-flipped record, or outright garbage
stops that one file's read at the anomaly (nothing after an unverifiable
frame is trusted, so records are never invented), the skipped bytes are
counted in the store's books, and planning proceeds from what survived.
Loading merges the snapshot and every sibling journal newest-timestamp-wins
per statistic, drops entries past ``MAX_AGE``, and compaction folds live
state into a fresh snapshot via write-tmp -> fsync -> ``os.replace`` under
a file lock.

The **zero-knowledge contract** carries over from the planner itself: an
engine attached to a missing, empty, or arbitrarily corrupted store loads
nothing, and every plan it produces is bit-for-bit identical to a
storeless engine's (differential-pinned in
``tests/kleisli/test_store_differential.py``).  Persistence failures never
surface in query execution — a full disk or torn write degrades to a
disabled writer and a book entry, not an exception.
"""

from .cardinality import CardinalityEstimator, collect_scans, scan_collection
from .cost import CostModel
from .plan import PhysicalPlan, QueryPlanner
from .store import PlanStore

__all__ = [
    "CardinalityEstimator", "collect_scans", "scan_collection",
    "CostModel",
    "PhysicalPlan", "QueryPlanner",
    "PlanStore",
]
