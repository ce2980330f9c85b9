"""Disk-backed degradation for the engine's unbounded materialization points.

When a query's memory budget says an in-memory materialization will not fit
(plan-gated up front: estimated rows × nominal row bytes vs. the budget),
the engine attaches a :class:`SpillManager` to the run's ``EvalContext`` and
the two biggest offenders degrade to hash-partitioned disk runs instead of
dying with a budget rejection:

``SpilledList``
    A multi-pass sequence for blocked-join build sides: a small in-memory
    tail buffer, flushed as pickled batches into an unnamed temporary file
    using the plan store's length+CRC32 framing codec
    (:func:`repro.core.planner.store.frame_payload`).  Iteration replays the
    file runs then the tail, preserving exact order — bit-for-bit parity
    with the in-memory list it replaces.

``GovernedSeenSet``
    An exact, bounded-memory dedup set for set/union semantics: an
    in-memory front set up to a threshold, then a compact hash index plus
    :data:`PARTITIONS` hash-partitioned value files.  A probe whose hash is
    absent is *definitely* new (no disk touch — the common case); a hash
    hit loads one partition and scans for true equality, so deduplication
    stays exact under hash collisions.

``SpilledIndex``
    A hash-partitioned (key → rows) index for indexed joins: build appends
    framed (key, row) pairs to the key-hash partition; probe loads one
    partition dict at a time with a single-partition cache, so probe
    locality in the outer stream costs one partition load per key cluster.

All three retain in memory a value with no faithful disk copy (counted in
the manager's ``spill_fallbacks`` book): one pickle refuses, or one its copy
does not equal — a NaN inside equals only itself, and a set finds a value by
identity first.  Spilling degrades capacity, never correctness.
Spill files are process-private ``tempfile.TemporaryFile`` handles, deleted
by the OS on close; :meth:`SpillManager.close` runs in the engine's run
finalizer, and the manager's books (spills, bytes_spilled) fold into the
:class:`~repro.kleisli.governance.QueryGovernor` ledger.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.errors import EvaluationError
from ..core.planner.store import frame_payload, unframe_payload

__all__ = [
    "SpillManager",
    "SpilledList",
    "GovernedSeenSet",
    "SpilledIndex",
    "PARTITIONS",
    "SPILL_FRAME_MAX",
]

#: Hash partitions for the seen-set and join-index backends.
PARTITIONS = 16

#: Per-frame ceiling for spill runs — wider than the plan store's 4 MiB
#: record cap because a spill batch carries many values per frame.
SPILL_FRAME_MAX = 64 * 1024 * 1024

_HEADER_BYTES = 8  # the codec's ">II" length + CRC32 prefix


def _faithful_payload(value: Any) -> Optional[bytes]:
    """``value`` pickled, or ``None`` when it has no faithful disk copy."""
    try:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return payload if pickle.loads(payload) == value else None
    except Exception:
        return None


def _read_frame(handle) -> Optional[bytes]:
    """The framed payload at ``handle``'s position, ``None`` at end of file.

    Corruption in a spill file is a hard error — unlike the plan store,
    these are our own single-process temp files, and skipping a damaged run
    would silently drop result rows.
    """
    header = handle.read(_HEADER_BYTES)
    if not header:
        return None
    if len(header) < _HEADER_BYTES:
        raise EvaluationError("spill file truncated mid-header")
    length = int.from_bytes(header[:4], "big")
    payload = handle.read(length)
    if len(payload) < length:
        raise EvaluationError("spill file truncated mid-payload")
    verified, _ = unframe_payload(header + payload, 0,
                                  max_bytes=SPILL_FRAME_MAX)
    if verified is None:
        raise EvaluationError("spill file failed CRC verification")
    return verified


def _read_frames(handle) -> Iterator[bytes]:
    """Replay every framed payload in ``handle`` from the start, in one go:
    the caller owns the handle's position until the replay is drained."""
    handle.flush()
    handle.seek(0)
    payload = _read_frame(handle)
    while payload is not None:
        yield payload
        payload = _read_frame(handle)


class _SpillBacked:
    """Shared plumbing: a lazily-opened temp file plus manager bookkeeping."""

    def __init__(self, manager: "SpillManager"):
        self._manager = manager
        self._touched_disk = False
        # A backend is built by one thread, but one stored under a ``Cached``
        # key is then read by every reader of that key — two loop levels of a
        # self-join, the workers of a parallel loop: reads that move a file
        # position or swap a partition cache hold this.
        self._lock = threading.Lock()

    def _open_file(self):
        handle = tempfile.TemporaryFile(
            prefix="kleisli-spill-", dir=self._manager.directory)
        self._manager._register_file(handle)
        if not self._touched_disk:
            self._touched_disk = True
            self._manager._count_spill()
        return handle

    def _write_frame(self, handle, payload: bytes, rows: int = 1) -> None:
        frame = frame_payload(payload, max_bytes=SPILL_FRAME_MAX)
        handle.seek(0, 2)  # append; a prior probe may have repositioned
        handle.write(frame)
        self._manager._record_spill(len(frame), rows)


class SpilledList(_SpillBacked):
    """A multi-pass, append-only sequence with a bounded in-memory tail.

    Exact iteration order is preserved: file runs replay in append order,
    then the unflushed tail.  A batch with no faithful disk copy is retained
    in memory (order intact — retained runs remember their position in the
    sequence of runs) so spilling never changes the values produced.
    """

    def __init__(self, manager: "SpillManager", buffer_elements: int):
        super().__init__(manager)
        self._buffer_elements = max(1, buffer_elements)
        self._buffer: List[Any] = []
        self._handle = None
        # Runs in append order: ("disk", flushed_count) | ("memory", values).
        # Disk runs all live in one file in order, so replaying the file
        # interleaved with memory runs reconstructs the exact sequence.
        self._runs: List[Tuple[str, Any]] = []
        self._length = 0

    def append(self, value: Any) -> None:
        self._buffer.append(value)
        self._length += 1
        if len(self._buffer) >= self._buffer_elements:
            self._flush()

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def _flush(self) -> None:
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        payload = _faithful_payload(batch)
        if payload is None:
            self._manager._record_fallback()
            self._runs.append(("memory", batch))
            return
        if self._handle is None:
            self._handle = self._open_file()
        self._write_frame(self._handle, payload, rows=len(batch))
        self._runs.append(("disk", len(batch)))

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Any]:
        # Re-entrant: each pass keeps its own offset into the file, so a pass
        # begun (or finished) in the middle of another leaves it where it was.
        position = 0
        for kind, run in self._runs:
            if kind == "disk":
                with self._lock:
                    self._handle.seek(position)
                    payload = _read_frame(self._handle)
                    position = self._handle.tell()
                if payload is None:
                    raise EvaluationError("spill file ends before its last run")
                yield from pickle.loads(payload)
            else:
                yield from run
        yield from self._buffer


class GovernedSeenSet(_SpillBacked):
    """An exact dedup set whose value storage spills past a threshold.

    Below ``memory_elements`` this is a plain set.  Past it, values move to
    :data:`PARTITIONS` hash partitions on disk and memory holds only the
    (int) hash index plus a single cached partition — membership stays
    exact because a hash hit always verifies equality against the loaded
    partition's values.
    """

    def __init__(self, manager: "SpillManager", memory_elements: int):
        super().__init__(manager)
        self._memory_elements = max(1, memory_elements)
        self._front: set = set()
        self._spilled = False
        self._hashes: set = set()
        self._handles: List[Any] = [None] * PARTITIONS
        self._cached_partition: int = -1
        self._cached_values: Optional[set] = None
        self._overflow: set = set()   # values with no faithful disk copy

    # -- set protocol -------------------------------------------------------

    def __contains__(self, value: Any) -> bool:
        if not self._spilled:
            return value in self._front
        if value in self._overflow:
            return True
        key = hash(value)
        if key not in self._hashes:
            return False
        return value in self._partition_values(key % PARTITIONS)

    def add(self, value: Any) -> None:
        if not self._spilled:
            self._front.add(value)
            if len(self._front) >= self._memory_elements:
                self._spill_front()
            return
        if value in self:
            return
        self._insert_spilled(value)

    def __len__(self) -> int:
        if not self._spilled:
            return len(self._front)
        return self._count + len(self._overflow)

    # -- spill mechanics ----------------------------------------------------

    _count = 0

    def _spill_front(self) -> None:
        front, self._front = self._front, set()
        self._spilled = True
        self._count = 0
        for value in front:
            self._insert_spilled(value)

    def _insert_spilled(self, value: Any) -> None:
        payload = _faithful_payload(value)
        if payload is None:
            self._manager._record_fallback()
            self._overflow.add(value)
            return
        key = hash(value)
        partition = key % PARTITIONS
        if self._handles[partition] is None:
            self._handles[partition] = self._open_file()
        self._write_frame(self._handles[partition], payload)
        self._hashes.add(key)
        self._count += 1
        if self._cached_partition == partition:
            self._cached_values.add(value)

    def _partition_values(self, partition: int) -> set:
        if self._cached_partition == partition:
            return self._cached_values
        handle = self._handles[partition]
        values: set = set()
        if handle is not None:
            for payload in _read_frames(handle):
                values.add(pickle.loads(payload))
        self._cached_partition = partition
        self._cached_values = values
        return values


class SpilledIndex(_SpillBacked):
    """A hash-partitioned (key → rows) index for indexed-join build sides.

    Build appends framed (key, row) pairs to the key-hash partition; probes
    load one partition at a time into a dict with a single-partition cache.
    A pair with no faithful disk copy stays in an in-memory residue dict
    consulted on every probe, and so do its key's later rows: a probe reads a
    key's disk rows, then its residue, in the order they were added, so
    degraded storage never drops or reorders build rows.
    """

    def __init__(self, manager: "SpillManager"):
        super().__init__(manager)
        self._handles: List[Any] = [None] * PARTITIONS
        self._counts: List[int] = [0] * PARTITIONS
        self._cached_partition: int = -1
        self._cached_index: Optional[Dict[Any, List[Any]]] = None
        self._residue: Dict[Any, List[Any]] = {}
        self._length = 0

    def add(self, key: Any, row: Any) -> None:
        self._length += 1
        payload = None if key in self._residue else _faithful_payload((key, row))
        if payload is None:
            self._manager._record_fallback()
            self._residue.setdefault(key, []).append(row)
            return
        partition = hash(key) % PARTITIONS
        if self._handles[partition] is None:
            self._handles[partition] = self._open_file()
        self._write_frame(self._handles[partition], payload)
        self._counts[partition] += 1
        if self._cached_partition == partition:
            self._cached_index.setdefault(key, []).append(row)

    def get(self, key: Any, default=None):
        rows = self._probe(key)
        return rows if rows is not None else default

    def __contains__(self, key: Any) -> bool:
        return self._probe(key) is not None

    def __len__(self) -> int:
        return self._length

    def _probe(self, key: Any) -> Optional[List[Any]]:
        partition = hash(key) % PARTITIONS
        index = self._partition_index(partition)
        rows = index.get(key)
        residue = self._residue.get(key)
        if rows is None and residue is None:
            return None
        if residue is None:
            return rows
        return (rows or []) + residue

    def _partition_index(self, partition: int) -> Dict[Any, List[Any]]:
        with self._lock:    # check, load and swap as one step
            if self._cached_partition == partition:
                return self._cached_index
            handle = self._handles[partition]
            index: Dict[Any, List[Any]] = {}
            if handle is not None:
                for payload in _read_frames(handle):
                    key, row = pickle.loads(payload)
                    index.setdefault(key, []).append(row)
            self._cached_partition = partition
            self._cached_index = index
            return index


class SpillManager:
    """Per-run factory and ledger for the spill backends.

    Created by the engine when the plan gate decides a run should spill;
    attached as ``context.spill``.  Owns every temp file the run's backends
    open (closed — and thereby deleted — in :meth:`close`, which the
    engine's run finalizer always reaches) and the run-local books that
    fold into the engine's :class:`~repro.kleisli.governance.QueryGovernor`.
    """

    #: In-memory elements a backend may hold before touching disk.
    DEFAULT_MEMORY_ELEMENTS = 1024

    def __init__(self, directory: Optional[str] = None,
                 memory_elements: int = DEFAULT_MEMORY_ELEMENTS):
        self.directory = directory
        self.memory_elements = max(1, memory_elements)
        self._lock = threading.Lock()
        self._files: List[Any] = []
        self._closed = False
        self.books: Dict[str, int] = {
            "spills": 0, "bytes_spilled": 0, "rows_spilled": 0,
            "spill_fallbacks": 0}

    # -- backend factories --------------------------------------------------

    def spilled_list(self) -> SpilledList:
        return SpilledList(self, self.memory_elements)

    def seen_set(self) -> GovernedSeenSet:
        return GovernedSeenSet(self, self.memory_elements)

    def index(self) -> SpilledIndex:
        return SpilledIndex(self)

    # -- bookkeeping --------------------------------------------------------

    def _register_file(self, handle) -> None:
        with self._lock:
            if self._closed:
                handle.close()
                raise EvaluationError("spill manager already closed")
            self._files.append(handle)

    def _count_spill(self) -> None:
        """One spill event per backend that actually touches disk."""
        with self._lock:
            self.books["spills"] += 1

    def _record_spill(self, nbytes: int, rows: int = 0) -> None:
        with self._lock:
            self.books["bytes_spilled"] += nbytes
            self.books["rows_spilled"] += rows

    def _record_fallback(self) -> None:
        with self._lock:
            self.books["spill_fallbacks"] += 1

    def close(self) -> None:
        """Close (and so delete) every spill file.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            files, self._files = self._files, []
        for handle in files:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
