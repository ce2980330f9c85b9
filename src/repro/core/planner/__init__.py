"""Cost-based adaptive planning for the Kleisli reproduction.

The paper's optimizer "chooses among physical strategies using knowledge
about the sources"; this package is that chooser for the reproduction's
three lowering targets:

* :mod:`~repro.core.planner.cardinality` — structural row-count estimates
  over optimized NRC terms, seeded by the statistics registry;
* :mod:`~repro.core.planner.cost` — the cost model (estimated rows x
  per-driver latency);
* :mod:`~repro.core.planner.feedback` — the run-time feedback ledger (the
  true cardinalities of drained runs, keyed by term fingerprint, with a
  constant-blind similarity index);
* :mod:`~repro.core.planner.plan` — :class:`PhysicalPlan` (the per-query
  knob set) and :class:`QueryPlanner` (the chooser the engine and the
  optimizer rule sets consult);
* :mod:`~repro.core.planner.store` — :class:`PlanStore`, crash-safe
  persistence for the ledger and the statistics registry's learned state.

Persistence
===========

:class:`PlanStore` makes the learned state survive the process.  One store
is one directory: an atomic ``snapshot.kjs`` plus append-only per-process
``journal-<pid>-<id>.kjl`` files.  Every record is length-prefixed and
CRC32-checksummed (the :mod:`repro.net.framing` discipline, hardened for
disk: 4-byte big-endian length, 4-byte CRC32 of the payload, UTF-8 JSON
payload, :data:`~repro.core.planner.store.MAX_RECORD_BYTES` cap).  Journals
open with a header record carrying the store schema version *and* a
fingerprint-algorithm probe hash; a journal or snapshot written under a
different version of either is skipped wholesale — a stale store can serve
no keys that no longer match.  Recovery is paranoid: a truncated tail, a
bit-flipped record, or outright garbage stops that one file's read at the
anomaly (nothing after an unverifiable frame is trusted, so records are
never invented), the skipped bytes are counted in the store's books, and
planning proceeds from what survived.  Loading merges the snapshot and
every sibling journal newest-timestamp-wins per key, applies staleness
decay (entry ``runs`` weight halves per
:data:`~repro.core.planner.store.PlanStore.DECAY_HALF_LIFE`; entries past
``MAX_AGE`` drop), and compaction folds live state into a fresh snapshot
via write-tmp -> fsync -> ``os.replace`` under a file lock.

The **zero-knowledge contract** carries over from the planner itself: an
engine attached to a missing, empty, or arbitrarily corrupted store loads
nothing, and every plan it produces is bit-for-bit identical to a
storeless engine's (differential-pinned in
``tests/kleisli/test_store_differential.py``).  Persistence failures never
surface in query execution — a full disk or torn write degrades to a
disabled writer and a book entry, not an exception.
"""

from .cardinality import CardinalityEstimator, collect_scans, scan_collection
from .cost import CostModel, pow2ceil
from .feedback import PlanFeedback, PlanObservation, PlanProbe, shape_fingerprint
from .plan import PhysicalPlan, QueryPlanner
from .store import PlanStore, PlanStoreState

__all__ = [
    "CardinalityEstimator", "collect_scans", "scan_collection",
    "CostModel", "pow2ceil",
    "PlanFeedback", "PlanObservation", "PlanProbe", "shape_fingerprint",
    "PhysicalPlan", "QueryPlanner",
    "PlanStore", "PlanStoreState",
]
