"""Planning from what the sources declare, for the Kleisli reproduction.

The paper's optimizer "chooses among physical strategies using knowledge
about the sources"; this package is that chooser:

* :mod:`~repro.core.planner.cardinality` — structural row-count estimates
  over optimized NRC terms, seeded by the statistics registry;
* :mod:`~repro.core.planner.plan` — :class:`PhysicalPlan` (the per-query
  knob set) and :class:`QueryPlanner` (the chooser the engine and the
  optimizer rule sets consult);
* :mod:`~repro.core.planner.store` — :class:`PlanStore`, crash-safe
  persistence for the statistics registry's learned state.

A plan is what the sources declare or the registry observed; nothing a run
drained re-plans the next one.

Persistence
===========

:class:`PlanStore` makes the learned statistics survive the process — the
paper's "statically stored statistics".  A store is one directory holding
one file, ``snapshot.kjs``: one length-prefixed, CRC32-checksummed record
(the :mod:`repro.net.framing` discipline, hardened for disk) carrying the
schema version and every entry with its own timestamp.  Each move of the
registry's epoch rewrites it: under a blocking ``flock`` on the
directory's ``lock`` file, read the snapshot, merge newest-timestamp-wins
per entry (the live state is stamped now and wins ties), write a temporary
file, ``fsync`` it, ``os.replace`` it and ``fsync`` the directory.  So no
writer loses another's entries, and a failed or killed write leaves the
old snapshot intact.  A torn or bit-flipped file, a wrong version or an
implausible number is skipped and counted in the store's books, an entry
past ``MAX_AGE`` drops, and a stamp ahead of the clock counts as now.  The
store reads and replaces ``snapshot.kjs`` only; any other file in the
directory is left as it is.

The **zero-knowledge contract** carries over from the planner itself: an
engine attached to a missing, empty, or arbitrarily corrupted store loads
nothing, and every plan it produces is bit-for-bit identical to a
storeless engine's (differential-pinned in
``tests/kleisli/test_store_differential.py``).  Persistence failures never
surface in query execution — a full disk or a torn write is a book entry,
not an exception.
"""

from .cardinality import CardinalityEstimator, collect_scans, scan_collection
from .plan import PhysicalPlan, QueryPlanner
from .store import PlanStore

__all__ = ["CardinalityEstimator", "collect_scans", "scan_collection",
           "PhysicalPlan", "QueryPlanner", "PlanStore"]
