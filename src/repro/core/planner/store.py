"""Crash-safe persistence for the statistics the planner plans from.

The statistics registry's observed latency EMAs and registered
cardinalities die with the process; this module is the durable warm start:
an append-only, per-record-checksummed journal plus an atomic snapshot,
stdlib only, built so that **no on-disk state can ever poison a plan** — a
truncated tail, a bit-flipped record, a wrong-version snapshot, an
implausible number, or a missing store each degrade to "skip what is
unreadable, surface books, plan from what survives".

Layout (one directory per store)::

    snapshot.kjs            one framed record holding the compacted state
    journal-<pid>-<id>.kjl  this process's append-only journal
    journal-...             sibling journals of other (live or dead) workers
    lock                    the compaction file lock

A *record* reuses the :mod:`repro.net.framing` discipline, hardened for
disk::

    +----------------+----------------+----------------------------+
    | 4-byte length  | 4-byte CRC32   |  UTF-8 JSON payload        |
    |  (big-endian)  |  (of payload)  |  (exactly `length` bytes)  |
    +----------------+----------------+----------------------------+

A journal is a header record (``kind: header``, the schema version) and
then ``kind: statistics`` records, each a whole registry snapshot:
``cardinalities`` as ``[driver, collection, rows]`` triples and
``observed_latency`` as a driver -> EMA map.  The snapshot is one record
carrying the same ``statistics``.  Records of any other kind — the
``feedback`` records of earlier builds among them — are skipped.

The reader is paranoid by construction: it stops at the first frame whose
header is short, whose length is implausible, whose payload is truncated,
or whose CRC does not match — everything before the anomaly loads,
everything after is skipped and *counted*, and nothing is ever invented
(a record either round-trips its checksum or does not exist).  A
cardinality below zero or a non-finite or negative latency is skipped and
counted like a torn frame.  The loader never raises on bad data; I/O and
decode problems become numbers in :meth:`PlanStore.books`.

Writers are single-writer-per-file: every process appends only to its own
journal, so concurrent workers never interleave bytes.  Convergence across
workers happens at load time (and compaction time): all journals plus the
snapshot are merged entry-wise, newest timestamp wins per statistic.
Compaction (write-tmp -> fsync -> ``os.replace``) folds the live state
into a fresh snapshot under a best-effort file lock and truncates only the
*own* journal — sibling journals stay untouched until they age out.

The zero-knowledge contract carries over bit-for-bit: an engine attached to
a missing, empty, or arbitrarily corrupted store loads nothing and
therefore plans exactly as a storeless engine does.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import PlanStoreError

__all__ = [
    "PlanStore",
    "MAX_RECORD_BYTES",
    "SCHEMA_VERSION",
    "decode_record",
    "encode_record",
    "frame_payload",
    "read_journal",
    "unframe_payload",
]

#: On-disk schema version; bump on incompatible record/layout changes.
SCHEMA_VERSION = 1

#: Hard cap on one record's payload (a corrupted length field must never
#: make the loader buffer gigabytes before the CRC can reject it).
MAX_RECORD_BYTES = 4 * 1024 * 1024

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)

_SNAPSHOT_NAME = "snapshot.kjs"
_JOURNAL_PREFIX = "journal-"
_JOURNAL_SUFFIX = ".kjl"
_LOCK_NAME = "lock"

try:  # POSIX file locking guards compaction; degrade to O_EXCL elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


# ---------------------------------------------------------------------------
# record framing: length + CRC32 + JSON payload
# ---------------------------------------------------------------------------

def frame_payload(payload: bytes,
                  max_bytes: int = MAX_RECORD_BYTES) -> bytes:
    """Frame an opaque payload: 4-byte length, 4-byte CRC32, the payload.

    The raw framing codec under :func:`encode_record`, exposed so other
    disk formats (the query governor's spill runs) can reuse the exact
    length+CRC32 discipline for non-JSON payloads.
    """
    if len(payload) > max_bytes:
        raise PlanStoreError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{max_bytes}-byte cap")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe_payload(data: bytes, offset: int = 0,
                    max_bytes: int = MAX_RECORD_BYTES
                    ) -> Tuple[Optional[bytes], int]:
    """Verify and extract one framed payload at ``offset``.

    Returns ``(payload, next_offset)``, or ``(None, offset)`` on any
    anomaly — short header, implausible length, truncated payload, CRC
    mismatch.  Never raises: a payload either round-trips its checksum or
    does not exist.
    """
    end = offset + _HEADER.size
    if end > len(data):
        return None, offset
    length, crc = _HEADER.unpack_from(data, offset)
    if length > max_bytes or end + length > len(data):
        return None, offset
    payload = data[end:end + length]
    if zlib.crc32(payload) != crc:
        return None, offset
    return payload, end + length


def encode_record(record: dict) -> bytes:
    """Frame one record: 4-byte length, 4-byte CRC32, JSON payload."""
    try:
        payload = json.dumps(record, separators=(",", ":"),
                             sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise PlanStoreError(f"record is not JSON-serializable: {error}")
    return frame_payload(payload)


def decode_record(data: bytes, offset: int = 0) -> Tuple[Optional[dict], int]:
    """Decode one framed record at ``offset``.

    Returns ``(record, next_offset)``, or ``(None, offset)`` on *any*
    anomaly — short header, implausible length, truncated payload, CRC
    mismatch, undecodable JSON, non-object payload.  Never raises: a
    record either verifies end-to-end or does not exist.
    """
    payload, next_offset = unframe_payload(data, offset)
    if payload is None:
        return None, offset
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None, offset
    if not isinstance(record, dict):
        return None, offset
    return record, next_offset


def read_journal(data: bytes) -> Tuple[List[dict], int]:
    """Decode every verifiable record from the head of ``data``.

    Returns ``(records, skipped_bytes)``.  Reading stops at the first
    anomaly: after a bad length or flipped bit the frame boundaries can no
    longer be trusted, and resynchronising heuristically could *invent*
    records — skipping the tail can only lose statistics, which the
    planner tolerates by design.
    """
    records: List[dict] = []
    offset = 0
    while offset < len(data):
        record, next_offset = decode_record(data, offset)
        if record is None:
            break
        records.append(record)
        offset = next_offset
    return records, len(data) - offset


def _finite(value: object) -> bool:
    """A number a plan may use: ``json`` also reads ``Infinity``, ``NaN``
    and integers past the float range."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


def _statistics_record(state: dict, ts: float) -> dict:
    """A registry snapshot as the plain record the store writes."""
    return {"ts": ts,
            "cardinalities": [list(entry) for entry
                              in state.get("cardinalities") or []],
            "observed_latency": dict(state.get("observed_latency") or {})}


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class PlanStore:
    """A crash-safe, versioned, multi-process store for planner statistics.

    One instance is one process's handle: it appends to its own journal
    (single writer per file), loads by merging the snapshot plus *every*
    journal in the directory, and compacts under a file lock.  All methods
    are thread-safe; none of the load/append paths ever raises on corrupt
    or unwritable storage — failures surface in :meth:`books`.

    ``state_provider`` (set by the engine at attach time) supplies the
    live statistics for flushes and compaction: a callable returning the
    :meth:`~repro.kleisli.statistics.SourceStatisticsRegistry.snapshot`
    shape.
    """

    #: Entries older than this are dropped at load (counted ``expired``).
    MAX_AGE = 7 * 24 * 3600.0
    #: Own-journal size that triggers an automatic compaction on append.
    COMPACT_BYTES = 256 * 1024
    #: Consecutive append failures after which the writer disables itself
    #: (a full disk must not turn every statistics change into an I/O error).
    MAX_APPEND_FAILURES = 3

    def __init__(self, path: str, *,
                 clock: Callable[[], float] = time.time,
                 opener: Callable = open,
                 max_age: float = MAX_AGE,
                 compact_bytes: int = COMPACT_BYTES,
                 durability: str = "flush"):
        if durability not in ("flush", "fsync"):
            raise PlanStoreError(
                f"durability must be 'flush' or 'fsync', got {durability!r}")
        self.path = os.fspath(path)
        self.clock = clock
        self.opener = opener
        self.max_age = max_age
        self.compact_bytes = compact_bytes
        self.durability = durability
        self.state_provider: Optional[Callable[[], dict]] = None
        self._journal_name = (f"{_JOURNAL_PREFIX}{os.getpid()}-"
                              f"{os.urandom(4).hex()}{_JOURNAL_SUFFIX}")
        self._file = None
        self._journal_bytes = 0
        self._writer_failures = 0
        self._writer_disabled = False
        self._closed = False
        self._lock = threading.RLock()
        self._books: Dict[str, float] = {
            "records_loaded": 0,
            "entries_loaded": 0,
            "records_skipped_corrupt": 0,
            "records_expired": 0,
            "skipped_bytes": 0,
            "journals_merged": 0,
            "journals_skipped_version": 0,
            "snapshot_loaded": 0,
            "io_errors": 0,
            "records_appended": 0,
            "append_failures": 0,
            "unpersistable": 0,
            "flushes": 0,
            "compactions": 0,
            "compactions_skipped": 0,
            "journals_swept": 0,
            "records_rescued": 0,
        }
        self._snapshot_ts: Optional[float] = None

    # -- paths ---------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.path, self._journal_name)

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.path, _SNAPSHOT_NAME)

    def _journal_paths(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.path))
        except OSError:
            return []
        return [os.path.join(self.path, name) for name in names
                if name.startswith(_JOURNAL_PREFIX)
                and name.endswith(_JOURNAL_SUFFIX)]

    # -- books ---------------------------------------------------------------

    def books(self) -> Dict[str, object]:
        """The persistence account: what loaded, what was refused, what
        was written — the ``persistence`` section of ``engine.health()``."""
        with self._lock:
            books = dict(self._books)
        books["attached"] = True
        books["journal_bytes"] = self._journal_size()
        books["writer_disabled"] = self._writer_disabled
        if self._snapshot_ts is not None:
            books["snapshot_age_seconds"] = max(
                0.0, self.clock() - self._snapshot_ts)
        else:
            books["snapshot_age_seconds"] = None
        return books

    def _journal_size(self) -> int:
        try:
            return os.path.getsize(self.journal_path)
        except OSError:
            return 0

    def _count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self._books[key] += amount

    # -- header / version guard ----------------------------------------------

    def _header_record(self) -> dict:
        return {"kind": "header", "version": SCHEMA_VERSION,
                "pid": os.getpid(), "ts": self.clock()}

    @staticmethod
    def _version_ok(record: dict) -> bool:
        return record.get("version") == SCHEMA_VERSION

    # -- loading ---------------------------------------------------------------

    def load(self) -> Dict[str, object]:
        """Merge the snapshot and every journal into one recovered state.

        Returns the statistics in the shape
        :meth:`~repro.kleisli.statistics.SourceStatisticsRegistry.restore`
        takes.  Never raises on bad storage: unreadable files, torn tails,
        flipped bits, wrong versions, records of an unknown kind and
        implausible entries are skipped and counted.  Merge is
        newest-timestamp-wins per statistic; entries older than
        :data:`MAX_AGE` drop.
        """
        now = self.clock()
        cardinalities: Dict[Tuple[str, str], Tuple[float, int]] = {}
        latencies: Dict[str, Tuple[float, float]] = {}

        def merge(record: dict, ts: float) -> None:
            for entry in record.get("cardinalities") or []:
                if (isinstance(entry, (list, tuple)) and len(entry) == 3
                        and isinstance(entry[0], str)
                        and isinstance(entry[1], str)
                        and isinstance(entry[2], int)
                        and not isinstance(entry[2], bool)
                        and entry[2] >= 0):
                    key = (entry[0], entry[1])
                    known = cardinalities.get(key)
                    if known is None or ts >= known[0]:
                        cardinalities[key] = (ts, entry[2])
                else:
                    self._count("records_skipped_corrupt")
            observed = record.get("observed_latency")
            if isinstance(observed, dict):
                for driver, ema in observed.items():
                    if isinstance(driver, str) and _finite(ema) and ema >= 0.0:
                        known = latencies.get(driver)
                        if known is None or ts >= known[0]:
                            latencies[driver] = (ts, float(ema))
                    else:
                        self._count("records_skipped_corrupt")

        # 1. the snapshot (if any, and only if its version checks out)
        snapshot = self._read_snapshot()
        if snapshot is not None:
            self._snapshot_ts = float(snapshot["ts"]) \
                if _finite(snapshot.get("ts")) else None
            statistics = snapshot.get("statistics")
            if isinstance(statistics, dict):
                stats_ts = statistics.get("ts")
                merge(statistics, float(stats_ts) if _finite(stats_ts)
                      else (self._snapshot_ts or 0.0))

        # 2. every journal in the directory, own and siblings alike
        for path in self._journal_paths():
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                self._count("io_errors")
                continue
            records, skipped = read_journal(data)
            if skipped:
                self._count("skipped_bytes", skipped)
                self._count("records_skipped_corrupt")
            if not records:
                continue
            header = records[0]
            if header.get("kind") != "header" or not self._version_ok(header):
                self._count("journals_skipped_version")
                continue
            self._count("journals_merged")
            for record in records[1:]:
                ts = record.get("ts")
                if record.get("kind") != "statistics" or not _finite(ts):
                    self._count("records_skipped_corrupt")
                    continue
                self._count("records_loaded")
                merge(record, float(ts))

        # 3. staleness: expire past MAX_AGE
        observed_latency: Dict[str, float] = {}
        survived_cardinalities: List[List[object]] = []
        for driver, (ts, ema) in sorted(latencies.items()):
            if now - ts > self.max_age:
                self._count("records_expired")
                continue
            observed_latency[driver] = ema
        for (driver, collection), (ts, rows) in sorted(cardinalities.items()):
            if now - ts > self.max_age:
                self._count("records_expired")
                continue
            survived_cardinalities.append([driver, collection, rows])
        self._count("entries_loaded",
                    len(observed_latency) + len(survived_cardinalities))
        return {"cardinalities": survived_cardinalities,
                "observed_latency": observed_latency}

    def _read_snapshot(self) -> Optional[dict]:
        """The snapshot record, or ``None`` if absent/corrupt/wrong-version."""
        try:
            with open(self.snapshot_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._count("io_errors")
            return None
        record, _offset = decode_record(data)
        if record is None:
            self._count("records_skipped_corrupt")
            return None
        if record.get("kind") != "snapshot" or not self._version_ok(record):
            self._count("journals_skipped_version")
            return None
        self._count("snapshot_loaded")
        return record

    # -- appending -------------------------------------------------------------

    def append_statistics(self, state: dict,
                          ts: Optional[float] = None) -> bool:
        """Journal one statistics-registry snapshot (EMAs + cardinalities).

        Returns whether the record reached the journal; a failing disk
        degrades to ``False`` and a book entry, never an exception —
        persistence must not break execution.
        """
        record = _statistics_record(state, self.clock() if ts is None else ts)
        record["kind"] = "statistics"
        written = self._append(record)
        if written:
            self._maybe_compact()
        return written

    def _append(self, record: dict) -> bool:
        """Append one framed record to the own journal; never raises.

        A failed write attempts to truncate back to the pre-write offset
        (so the journal tail stays parseable for the next loader); if even
        that fails — or failures repeat — the writer disables itself and
        every later append is counted, not attempted.
        """
        try:
            frame = encode_record(record)
        except PlanStoreError:
            self._count("unpersistable")
            return False
        with self._lock:
            if self._closed or self._writer_disabled:
                self._books["append_failures"] += 1
                return False
            try:
                handle = self._ensure_writer_locked()
                offset = self._journal_bytes
                handle.write(frame)
                handle.flush()
                if self.durability == "fsync":
                    os.fsync(handle.fileno())
                self._journal_bytes = offset + len(frame)
                self._books["records_appended"] += 1
                self._writer_failures = 0
                return True
            except (OSError, ValueError):
                self._books["append_failures"] += 1
                self._writer_failures += 1
                self._repair_or_disable_locked()
                return False

    def _ensure_writer_locked(self):
        if self._file is None:
            os.makedirs(self.path, exist_ok=True)
            self._file = self.opener(self.journal_path, "ab")
            self._journal_bytes = self._file.tell() if hasattr(
                self._file, "tell") else 0
            if self._journal_bytes == 0:
                header = encode_record(self._header_record())
                self._file.write(header)
                self._file.flush()
                self._journal_bytes = len(header)
        return self._file

    def _repair_or_disable_locked(self) -> None:
        """After a torn write: truncate back to the last good offset, or
        stop writing altogether — a journal we cannot keep well-formed
        must not keep growing garbage."""
        try:
            self._file.flush()
        except Exception:
            pass
        try:
            self._file.truncate(self._journal_bytes)
        except (OSError, AttributeError, TypeError, ValueError):
            self._writer_disabled = True
            try:
                self._file.close()
            except Exception:
                pass
            self._file = None
            return
        if self._writer_failures >= self.MAX_APPEND_FAILURES:
            self._writer_disabled = True
            try:
                self._file.close()
            except Exception:
                pass
            self._file = None

    # -- flush / compaction ----------------------------------------------------

    def flush(self, statistics: Optional[dict] = None) -> None:
        """Durably flush the journal, appending fresh statistics first.

        With no explicit ``statistics`` the ``state_provider`` (when set)
        supplies them — this is the periodic/shutdown flush the engine and
        the server drain call.
        """
        if statistics is None and self.state_provider is not None:
            try:
                statistics = self.state_provider()
            except Exception:
                statistics = None
        if statistics is not None:
            self.append_statistics(statistics)
        with self._lock:
            self._books["flushes"] += 1
            if self._file is not None:
                try:
                    self._file.flush()
                    os.fsync(self._file.fileno())
                except (OSError, ValueError):
                    self._books["io_errors"] += 1

    def _maybe_compact(self) -> None:
        if self.compact_bytes and self._journal_bytes >= self.compact_bytes \
                and self.state_provider is not None:
            self.compact()

    def compact(self) -> bool:
        """Fold the live state into a fresh snapshot, atomically.

        Write-tmp -> fsync -> ``os.replace`` under a best-effort file
        lock, then truncate the *own* journal back to a bare header
        (its contents now live in the snapshot).  Sibling journals are
        left for their owners — except provably-dead writers' journals
        (rescued and swept immediately) and any others past
        :data:`MAX_AGE`.  Returns whether a snapshot was written; lock
        contention or failures degrade to ``False`` plus a book entry.
        """
        provider = self.state_provider
        if provider is None:
            return False
        try:
            statistics = provider()
        except Exception:
            self._count("compactions_skipped")
            return False
        with self._lock:
            if self._closed:
                return False
            lock_handle = self._acquire_dir_lock()
            if lock_handle is None:
                self._books["compactions_skipped"] += 1
                return False
            try:
                return self._compact_locked(statistics)
            finally:
                self._release_dir_lock(lock_handle)

    def _compact_locked(self, statistics: dict) -> bool:
        now = self.clock()
        record = self._header_record()
        record["kind"] = "snapshot"
        record["statistics"] = _statistics_record(statistics, now)
        tmp_path = (f"{self.snapshot_path}.tmp-{os.getpid()}-"
                    f"{os.urandom(3).hex()}")
        try:
            frame = encode_record(record)
        except PlanStoreError:
            self._books["compactions_skipped"] += 1
            return False
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(frame)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.snapshot_path)
            self._fsync_dir()
        except OSError:
            self._books["io_errors"] += 1
            self._books["compactions_skipped"] += 1
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        self._snapshot_ts = now
        self._books["compactions"] += 1
        self._reset_journal_locked()
        self._sweep_locked(now)
        return True

    def _reset_journal_locked(self) -> None:
        """Truncate the own journal to a bare header (contents are now in
        the snapshot).  Crash-safe: a crash before the truncate merely
        leaves duplicates, and the timestamped merge is idempotent."""
        if self._file is not None:
            try:
                self._file.close()
            except Exception:
                pass
            self._file = None
        try:
            header = encode_record(self._header_record())
            handle = self.opener(self.journal_path, "wb")
            try:
                handle.write(header)
                handle.flush()
            finally:
                handle.close()
            self._journal_bytes = len(header)
            self._file = self.opener(self.journal_path, "ab")
        except (OSError, ValueError):
            self._books["io_errors"] += 1
            self._writer_disabled = True
            self._file = None

    @staticmethod
    def _journal_pid(path: str) -> Optional[int]:
        """The writer PID baked into a journal filename, or ``None``."""
        name = os.path.basename(path)
        if not (name.startswith(_JOURNAL_PREFIX)
                and name.endswith(_JOURNAL_SUFFIX)):
            return None
        stem = name[len(_JOURNAL_PREFIX):-len(_JOURNAL_SUFFIX)]
        pid_part = stem.split("-", 1)[0]
        try:
            pid = int(pid_part)
        except ValueError:
            return None
        return pid if pid > 0 else None

    @staticmethod
    def _pid_is_dead(pid: int) -> bool:
        """Whether ``pid`` is provably gone (signal-0 probe).

        ``PermissionError`` means the process exists but belongs to someone
        else — alive.  Anything other than a definite ``ProcessLookupError``
        is treated as alive: sweeping is an optimization, and a false
        "alive" merely defers to the age-out.
        """
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, AttributeError, ValueError):
            return False
        return False

    def _sweep_dead_journal_locked(self, path: str) -> bool:
        """Fold a dead writer's verifiable records into the own journal,
        then remove the orphan.

        Runs under the compaction dir lock, *after* the snapshot was
        written and the own journal reset — so the rescue appends land in a
        fresh journal.  Rescuing before unlinking means a crashed writer's
        last statistics survive the sweep; the timestamped newest-wins
        merge makes re-appending already-known records harmless.  Only
        statistics records cross over.  Any read failure leaves the file
        for the age-out.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._books["io_errors"] += 1
            return False
        records, _skipped = read_journal(data)
        rescued = 0
        if records:
            header = records[0]
            if header.get("kind") == "header" and self._version_ok(header):
                for record in records[1:]:
                    if record.get("kind") == "statistics" \
                            and self._append(record):
                        rescued += 1
        try:
            os.unlink(path)
        except OSError:
            return False
        self._books["journals_swept"] += 1
        self._books["records_rescued"] += rescued
        return True

    def _sweep_locked(self, now: float) -> None:
        """Remove dead siblings' journals and abandoned snapshot temps.

        A sibling journal whose writer PID is provably dead is swept
        immediately (its verifiable records are first folded into the own
        journal — the crashed writer's torn tail no longer lingers for the
        age-out); journals of live or indeterminate writers wait for
        :data:`MAX_AGE` as before.
        """
        own = self.journal_path
        for path in self._journal_paths():
            if path == own:
                continue
            pid = self._journal_pid(path)
            if pid is not None and pid != os.getpid() \
                    and self._pid_is_dead(pid):
                if self._sweep_dead_journal_locked(path):
                    continue
            try:
                if now - os.path.getmtime(path) > self.max_age:
                    os.unlink(path)
            except OSError:
                pass
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in names:
            if name.startswith(_SNAPSHOT_NAME + ".tmp-"):
                path = os.path.join(self.path, name)
                try:
                    if now - os.path.getmtime(path) > self.max_age:
                        os.unlink(path)
                except OSError:
                    pass

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- the compaction lock ---------------------------------------------------

    def _acquire_dir_lock(self):
        lock_path = os.path.join(self.path, _LOCK_NAME)
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError:
            return None
        if fcntl is not None:
            try:
                handle = open(lock_path, "a+b")
            except OSError:
                return None
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
                return ("flock", handle)
            except OSError:
                handle.close()
                return None
        # O_EXCL fallback where flock is unavailable
        excl_path = lock_path + ".excl"
        try:
            fd = os.open(excl_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return None
        os.close(fd)
        return ("excl", excl_path)

    def _release_dir_lock(self, handle) -> None:
        kind, token = handle
        if kind == "flock":
            try:
                fcntl.flock(token.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - teardown race
                pass
            token.close()
        else:
            try:
                os.unlink(token)
            except OSError:  # pragma: no cover - teardown race
                pass

    # -- lifecycle ---------------------------------------------------------------

    def close(self, compact: bool = False) -> None:
        """Flush (optionally compact) and release the journal handle."""
        if compact:
            self.compact()
        self.flush()
        with self._lock:
            self._closed = True
            if self._file is not None:
                try:
                    self._file.close()
                except Exception:
                    pass
                self._file = None

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
