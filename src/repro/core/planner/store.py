"""Crash-safe persistence for the planner's learned state.

PR 5's :class:`~repro.core.planner.feedback.PlanFeedback` ledger and the
statistics registry's observed latency EMAs die with the process; this
module is the durable warm start: an append-only, per-record-checksummed
journal plus an atomic snapshot, stdlib only, built so that **no on-disk
state can ever poison a plan** — a truncated tail, a bit-flipped record, a
wrong-version snapshot, or a missing store each degrade to "skip what is
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

The reader is paranoid by construction: it stops at the first frame whose
header is short, whose length is implausible, whose payload is truncated,
or whose CRC does not match — everything before the anomaly loads,
everything after is skipped and *counted*, and nothing is ever invented
(a record either round-trips its checksum or does not exist).  The loader
never raises on bad data; I/O and decode problems become numbers in
:meth:`PlanStore.books`.

Writers are single-writer-per-file: every process appends only to its own
journal, so concurrent workers never interleave bytes.  Convergence across
workers happens at load time (and compaction time): all journals plus the
snapshot are merged entry-wise, newest timestamp wins per key.  Compaction
(write-tmp -> fsync -> ``os.replace``) folds the live state into a fresh
snapshot under a best-effort file lock and truncates only the *own*
journal — sibling journals stay untouched until they age out.

Version guards: every journal header and snapshot carries the store schema
version *and* a fingerprint-algorithm probe (a hash of
:func:`~repro.core.nrc.compile.term_fingerprint` applied to a fixed term),
so a store written by a build whose fingerprint encoding changed is
skipped wholesale rather than serving keys that can no longer match.

The zero-knowledge contract of PR 5 carries over bit-for-bit: an engine
attached to a missing, empty, or arbitrarily corrupted store loads nothing
and therefore plans exactly as a storeless engine does.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import PlanStoreError

__all__ = [
    "PlanStore",
    "PlanStoreState",
    "MAX_RECORD_BYTES",
    "SCHEMA_VERSION",
    "decode_record",
    "encode_record",
    "fingerprint_algorithm_version",
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
# value codec: faithful JSON round-trip for fingerprint keys
# ---------------------------------------------------------------------------
#
# Term fingerprints are nested tuples whose leaves are the hashable scalar
# types literals use (str/int/float/bool/None, occasionally bytes) plus
# frozensets minted by request freezing.  Plain JSON would flatten tuples
# and frozensets into lists; the tagged encoding below keeps every shape
# distinct so decode(encode(x)) == x *exactly* — a key that cannot be
# encoded faithfully is refused (and simply not persisted) rather than
# approximated, because an approximate key could serve another query's
# observations.

def _encode_value(value: object) -> object:
    if isinstance(value, tuple):
        return ["t"] + [_encode_value(item) for item in value]
    if isinstance(value, frozenset):
        encoded = [_encode_value(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return ["fs"] + encoded
    if isinstance(value, bytes):
        return ["y", value.hex()]
    if isinstance(value, list):
        return ["l"] + [_encode_value(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise PlanStoreError(
        f"value of type {type(value).__name__} has no faithful journal "
        f"encoding")


def _decode_value(encoded: object) -> object:
    if isinstance(encoded, list):
        if not encoded or not isinstance(encoded[0], str):
            raise ValueError("untagged list in journal value")
        tag, items = encoded[0], encoded[1:]
        if tag == "t":
            return tuple(_decode_value(item) for item in items)
        if tag == "fs":
            return frozenset(_decode_value(item) for item in items)
        if tag == "l":
            return [_decode_value(item) for item in items]
        if tag == "y":
            if len(items) != 1 or not isinstance(items[0], str):
                raise ValueError("malformed bytes tag")
            return bytes.fromhex(items[0])
        raise ValueError(f"unknown journal value tag {tag!r}")
    return encoded


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
    records — skipping the tail can only lose observations, which the
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


_FINGERPRINT_VERSION: Optional[str] = None


def fingerprint_algorithm_version() -> str:
    """A hash identifying the *current* fingerprint encoding.

    Computed by fingerprinting a fixed probe term: if
    :func:`~repro.core.nrc.compile.term_fingerprint` ever changes how it
    encodes terms, this hash changes with it, and stores written by the
    old encoding are skipped as wrong-version instead of serving keys
    that can never match again.
    """
    global _FINGERPRINT_VERSION
    if _FINGERPRINT_VERSION is None:
        import hashlib  # here, not at the top: OpenSSL is 3.5 MB of resident memory

        from ..nrc import ast as A
        from ..nrc import builder as B
        from ..nrc.compile import term_fingerprint

        probe = B.ext(
            "x",
            B.singleton(B.prim("add", B.var("x"), B.const(1)), "list"),
            A.Scan("probe", {"table": "t"}, kind="list"),
            kind="list")
        digest = hashlib.sha256(
            repr(term_fingerprint(probe)).encode("utf-8")).hexdigest()
        _FINGERPRINT_VERSION = digest[:12]
    return _FINGERPRINT_VERSION


# ---------------------------------------------------------------------------
# loaded state
# ---------------------------------------------------------------------------

class PlanStoreState:
    """What a load recovered: feedback entries + statistics, merged.

    ``feedback`` is ``[(fingerprint, observation_state, timestamp)]``
    ordered oldest-first (ready for
    :meth:`~repro.core.planner.feedback.PlanFeedback.restore`);
    ``statistics`` is the fill-gaps state for
    :meth:`~repro.kleisli.statistics.SourceStatisticsRegistry.restore`.
    """

    __slots__ = ("feedback", "statistics")

    def __init__(self, feedback: List[Tuple[Tuple, dict, float]],
                 statistics: Dict[str, object]):
        self.feedback = feedback
        self.statistics = statistics

    @property
    def empty(self) -> bool:
        return not self.feedback and not any(self.statistics.values())


def _valid_observation_state(state: object) -> bool:
    """Shape-check one persisted observation before it may enter a ledger.

    An observation is ``{cardinality, runs}``.  Other keys — an older
    ledger's per-stage ``stages`` map — are ignored, so such a ledger still
    restores its cardinalities.
    """
    if not isinstance(state, dict) or not _is_number(state.get("cardinality")):
        return False
    runs = state.get("runs")
    return isinstance(runs, int) and not isinstance(runs, bool) and runs >= 0


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class PlanStore:
    """A crash-safe, versioned, multi-process store for planner state.

    One instance is one process's handle: it appends to its own journal
    (single writer per file), loads by merging the snapshot plus *every*
    journal in the directory, and compacts under a file lock.  All methods
    are thread-safe; none of the load/append paths ever raises on corrupt
    or unwritable storage — failures surface in :meth:`books`.

    ``state_provider`` (set by the engine at attach time) supplies the
    full live state for compaction: a callable returning
    ``(feedback_entries, statistics_state)`` in the
    :meth:`~repro.core.planner.feedback.PlanFeedback.snapshot` /
    :meth:`~repro.kleisli.statistics.SourceStatisticsRegistry.snapshot`
    shapes.
    """

    #: Half-life (seconds) of a persisted observation's ``runs`` weight:
    #: a day-old entry counts half as many runs, so fresh reality overtakes
    #: stale history in a couple of recordings instead of dozens.
    DECAY_HALF_LIFE = 24 * 3600.0
    #: Entries older than this are dropped at load (counted ``expired``).
    MAX_AGE = 7 * 24 * 3600.0
    #: Own-journal size that triggers an automatic compaction on append.
    COMPACT_BYTES = 256 * 1024
    #: Seconds between piggybacked statistics appends (latency EMAs are
    #: sampled per request — far too hot for write-through — so they ride
    #: along with feedback appends at most this often, plus every flush).
    STATS_INTERVAL = 30.0
    #: Consecutive append failures after which the writer disables itself
    #: (a full disk must not turn every drained query into an I/O error).
    MAX_APPEND_FAILURES = 3

    def __init__(self, path: str, *,
                 clock: Callable[[], float] = time.time,
                 opener: Callable = open,
                 half_life: float = DECAY_HALF_LIFE,
                 max_age: float = MAX_AGE,
                 compact_bytes: int = COMPACT_BYTES,
                 stats_interval: float = STATS_INTERVAL,
                 durability: str = "flush"):
        if durability not in ("flush", "fsync"):
            raise PlanStoreError(
                f"durability must be 'flush' or 'fsync', got {durability!r}")
        self.path = os.fspath(path)
        self.clock = clock
        self.opener = opener
        self.half_life = half_life
        self.max_age = max_age
        self.compact_bytes = compact_bytes
        self.stats_interval = stats_interval
        self.durability = durability
        self.state_provider: Optional[Callable[[], Tuple[list, dict]]] = None
        self._journal_name = (f"{_JOURNAL_PREFIX}{os.getpid()}-"
                              f"{os.urandom(4).hex()}{_JOURNAL_SUFFIX}")
        self._file = None
        self._journal_bytes = 0
        self._writer_failures = 0
        self._writer_disabled = False
        self._last_stats_append = 0.0
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
                "fpv": fingerprint_algorithm_version(),
                "pid": os.getpid(), "ts": self.clock()}

    @staticmethod
    def _version_ok(record: dict) -> bool:
        return (record.get("version") == SCHEMA_VERSION
                and record.get("fpv") == fingerprint_algorithm_version())

    # -- loading ---------------------------------------------------------------

    def load(self) -> PlanStoreState:
        """Merge the snapshot and every journal into one recovered state.

        Never raises on bad storage: unreadable files, torn tails, flipped
        bits, wrong versions, and malformed entries are skipped and
        counted.  Entry merge is newest-timestamp-wins per fingerprint
        (and per statistics key), then staleness decay halves old entries'
        ``runs`` weight per :data:`DECAY_HALF_LIFE` and drops entries past
        :data:`MAX_AGE` entirely.
        """
        now = self.clock()
        feedback: Dict[Tuple, Tuple[float, dict]] = {}
        cardinalities: Dict[Tuple[str, str], Tuple[float, int]] = {}
        latencies: Dict[str, Tuple[float, float]] = {}

        def merge_feedback(key: Tuple, state: dict, ts: float) -> None:
            known = feedback.get(key)
            if known is None or ts >= known[0]:
                feedback[key] = (ts, state)

        def merge_statistics(record: dict, ts: float) -> None:
            for entry in record.get("cardinalities") or []:
                if (isinstance(entry, (list, tuple)) and len(entry) == 3
                        and isinstance(entry[0], str)
                        and isinstance(entry[1], str)
                        and isinstance(entry[2], int)
                        and not isinstance(entry[2], bool)):
                    key = (entry[0], entry[1])
                    known = cardinalities.get(key)
                    if known is None or ts >= known[0]:
                        cardinalities[key] = (ts, entry[2])
                else:
                    self._count("records_skipped_corrupt")
            observed = record.get("observed_latency")
            if isinstance(observed, dict):
                for driver, ema in observed.items():
                    if isinstance(driver, str) and _is_number(ema) \
                            and ema >= 0.0:
                        known = latencies.get(driver)
                        if known is None or ts >= known[0]:
                            latencies[driver] = (ts, float(ema))
                    else:
                        self._count("records_skipped_corrupt")

        def absorb(record: dict) -> None:
            kind = record.get("kind")
            ts = record.get("ts")
            if not _is_number(ts):
                self._count("records_skipped_corrupt")
                return
            ts = float(ts)
            if kind == "feedback":
                state = record.get("obs")
                if not _valid_observation_state(state):
                    self._count("records_skipped_corrupt")
                    return
                try:
                    key = _decode_value(record.get("key"))
                except (ValueError, TypeError):
                    self._count("records_skipped_corrupt")
                    return
                merge_feedback(key, state, ts)
            elif kind == "statistics":
                merge_statistics(record, ts)
            else:
                self._count("records_skipped_corrupt")

        # 1. the snapshot (if any, and only if its versions check out)
        snapshot = self._read_snapshot()
        if snapshot is not None:
            self._snapshot_ts = float(snapshot["ts"]) \
                if _is_number(snapshot.get("ts")) else None
            for entry in snapshot.get("feedback") or []:
                if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                        and _is_number(entry[2])):
                    self._count("records_skipped_corrupt")
                    continue
                encoded_key, state, ts = entry
                if not _valid_observation_state(state):
                    self._count("records_skipped_corrupt")
                    continue
                try:
                    key = _decode_value(encoded_key)
                except (ValueError, TypeError):
                    self._count("records_skipped_corrupt")
                    continue
                merge_feedback(key, state, float(ts))
                self._count("records_loaded")
            statistics = snapshot.get("statistics")
            if isinstance(statistics, dict):
                stats_ts = statistics.get("ts")
                merge_statistics(statistics,
                                 float(stats_ts) if _is_number(stats_ts)
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
                self._count("records_loaded")
                absorb(record)

        # 3. staleness: expire past MAX_AGE, decay runs by half-life
        entries: List[Tuple[float, Tuple, dict]] = []
        for key, (ts, state) in feedback.items():
            age = max(0.0, now - ts)
            if age > self.max_age:
                self._count("records_expired")
                continue
            if age > 0.0 and self.half_life > 0.0:
                decayed = int(round(state["runs"] * 0.5 ** (age / self.half_life)))
                state = dict(state)
                state["runs"] = max(1, decayed)
            entries.append((ts, key, state))
        entries.sort(key=lambda item: item[0])

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

        state = PlanStoreState(
            feedback=[(key, obs, ts) for ts, key, obs in entries],
            statistics={"cardinalities": survived_cardinalities,
                        "observed_latency": observed_latency})
        self._count("entries_loaded",
                    len(state.feedback) + len(observed_latency)
                    + len(survived_cardinalities))
        return state

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

    def append_feedback(self, fingerprint: Tuple, state: dict,
                        ts: Optional[float] = None) -> bool:
        """Journal one folded observation (write-through from the ledger).

        Returns whether the record reached the journal; an unpersistable
        fingerprint or a failing disk degrades to ``False`` and a book
        entry, never an exception — persistence must not break execution.
        """
        try:
            key = _encode_value(fingerprint)
        except PlanStoreError:
            self._count("unpersistable")
            return False
        record = {"kind": "feedback", "ts": self.clock() if ts is None else ts,
                  "key": key, "obs": state}
        written = self._append(record)
        if written:
            self._maybe_piggyback_statistics()
            self._maybe_compact()
        return written

    def append_statistics(self, state: dict,
                          ts: Optional[float] = None) -> bool:
        """Journal one statistics-registry snapshot (EMAs + cardinalities)."""
        record = {"kind": "statistics",
                  "ts": self.clock() if ts is None else ts,
                  "cardinalities": [
                      [driver, collection, rows]
                      for driver, collection, rows
                      in state.get("cardinalities") or []],
                  "observed_latency": dict(state.get("observed_latency") or {})}
        written = self._append(record)
        if written:
            with self._lock:
                self._last_stats_append = self.clock()
        return written

    def _maybe_piggyback_statistics(self) -> None:
        provider = self.state_provider
        if provider is None:
            return
        with self._lock:
            due = (self.clock() - self._last_stats_append
                   >= self.stats_interval)
        if not due:
            return
        try:
            _feedback, statistics = provider()
        except Exception:
            return
        self.append_statistics(statistics)

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
                _feedback, statistics = self.state_provider()
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
            feedback_entries, statistics = provider()
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
                return self._compact_locked(feedback_entries, statistics)
            finally:
                self._release_dir_lock(lock_handle)

    def _compact_locked(self, feedback_entries, statistics) -> bool:
        now = self.clock()
        encoded_feedback = []
        for entry in feedback_entries:
            key, state, ts = entry
            try:
                encoded_feedback.append(
                    [_encode_value(key), state, ts if ts else now])
            except PlanStoreError:
                self._books["unpersistable"] += 1
        record = self._header_record()
        record["kind"] = "snapshot"
        record["feedback"] = encoded_feedback
        record["statistics"] = {
            "ts": now,
            "cardinalities": [
                [driver, collection, rows] for driver, collection, rows
                in statistics.get("cardinalities") or []],
            "observed_latency": dict(
                statistics.get("observed_latency") or {})}
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
        post-load observations survive the sweep; the timestamped
        newest-wins merge makes re-appending already-known records
        harmless.  Any read failure leaves the file for the age-out.
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
                    if self._append(record):
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
