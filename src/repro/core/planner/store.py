"""Crash-safe persistence for the statistics the planner plans from.

The registry's observed latency EMAs and registered cardinalities die with
the process; a store is their warm start, built so that **no on-disk state
can poison a plan**.  One directory holds ``snapshot.kjs``, one framed
record, and ``lock``.  A frame is a 4-byte big-endian length, the CRC32 of
the payload, and a UTF-8 JSON payload (the :mod:`repro.net.framing`
discipline, hardened for disk).  The snapshot (``kind: snapshot``, the
schema version) carries ``records``, the entries grouped by the time they
were written: ``{"ts", "cardinalities": [[driver, collection, rows]],
"observed_latency": {driver: ema}}``.  Every entry keeps its own stamp.

**Writing** (:meth:`PlanStore.write`, on every move of the registry's
epoch): under the in-process lock and a blocking ``flock`` on ``lock``,
read the snapshot, merge the live state into it — newest stamp wins per
entry, and the live state is stamped *now* and wins ties — write
``snapshot.kjs.tmp-<pid>-<rand>``, ``fsync`` it, ``os.replace`` it and
``fsync`` the directory.  A ``.tmp-`` file seen under the lock was left by
a killed writer and is removed.  A failed write leaves the old snapshot and
nothing else, and is counted, never raised.  Writers serialise on the lock
and each merges what the others wrote, so no writer's entry is lost.

**Loading** never raises on bad data and never invents: a frame loads only
if its length is plausible and its CRC matches.  A negative cardinality
or a non-finite or negative latency is skipped and counted, and a snapshot
of another kind or schema version is skipped whole, by a load and by a
write alike: a write leaves such a file byte for byte (another build's
statistics are not this build's to drop) and is counted a failure; an
entry older than
:data:`PlanStore.MAX_AGE` drops; a stamp ahead of the clock counts as
*now*.  The loader reads ``snapshot.kjs`` and nothing else in the
directory, and a write removes nothing but a killed writer's temporary.
So an engine attached to a missing, empty or corrupt store plans exactly
as a storeless one does.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import time
import zlib
from contextlib import suppress
from typing import Callable, Dict, Optional, Tuple

from ...obs.metrics import Books
from ..errors import PlanStoreError

__all__ = ["PlanStore", "MAX_RECORD_BYTES", "SCHEMA_VERSION", "decode_record",
           "encode_record", "frame_payload", "unframe_payload"]

#: On-disk schema version; bump on incompatible record/layout changes.
SCHEMA_VERSION = 1

#: Hard cap on one record's payload (a corrupted length field must never
#: make the loader buffer gigabytes before the CRC can reject it).
MAX_RECORD_BYTES = 4 * 1024 * 1024

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)

_SNAPSHOT_NAME = "snapshot.kjs"
_TMP_PREFIX = _SNAPSHOT_NAME + ".tmp-"


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


def _finite(value: object) -> bool:
    """A number a plan may use: ``json`` also reads ``Infinity``, ``NaN``
    and integers past the float range."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


#: Merged entries: ``("rows", driver, collection)`` or ``("ema", driver)``
#: -> ``(stamp, value)``.
_Entries = Dict[tuple, Tuple[float, object]]


def _merge(entries: _Entries, record: dict, ts: float,
           reject: Callable[[], None]) -> None:
    """Fold one statistics record in, newest stamp winning per entry (a
    tie goes to the later merge); ``reject`` counts an implausible entry."""
    found = []
    for entry in record.get("cardinalities") or []:
        if (isinstance(entry, (list, tuple)) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)
                and isinstance(entry[2], int)
                and not isinstance(entry[2], bool) and entry[2] >= 0):
            found.append((("rows", entry[0], entry[1]), entry[2]))
        else:
            reject()
    observed = record.get("observed_latency")
    for driver, ema in observed.items() if isinstance(observed, dict) else ():
        if isinstance(driver, str) and _finite(ema) and ema >= 0.0:
            found.append((("ema", driver), float(ema)))
        else:
            reject()
    for key, value in found:
        if ts >= entries.get(key, (ts,))[0]:
            entries[key] = (ts, value)


def _state(entries: _Entries) -> Dict[str, object]:
    """The shape :meth:`SourceStatisticsRegistry.restore` takes."""
    ordered = sorted(entries.items())
    return {"cardinalities": [[key[1], key[2], value]
                              for key, (_ts, value) in ordered
                              if key[0] == "rows"],
            "observed_latency": {key[1]: value for key, (_ts, value)
                                 in ordered if key[0] == "ema"}}


class PlanStore:
    """One directory holding one snapshot of the planner's statistics.

    :meth:`load` recovers the surviving entries and :meth:`write` merges a
    registry snapshot into the file, by the protocols in the module
    docstring.  Thread-safe; neither raises on corrupt or unwritable
    storage — failures surface in :meth:`books`.  ``clock`` and ``opener``
    (what opens the temporary file) exist for tests.
    """

    #: Entries older than this (seconds) are dropped (counted ``expired``).
    MAX_AGE = 7 * 24 * 3600.0

    def __init__(self, path: str, *,
                 clock: Callable[[], float] = time.time,
                 opener: Callable = open):
        self.path = os.fspath(path)
        self.clock = clock
        self.opener = opener
        self._lock = threading.RLock()
        self._books = Books((
            "entries_loaded", "records_skipped_corrupt", "records_expired",
            "snapshot_skipped_version", "snapshot_loaded", "io_errors",
            "writes", "write_failures", "unpersistable"))
        self._snapshot_ts: Optional[float] = None

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.path, _SNAPSHOT_NAME)

    def books(self) -> Dict[str, object]:
        """The persistence account: what loaded, what was refused, what
        was written — the ``persistence`` section of ``engine.health()``."""
        books: Dict[str, object] = self._books.snapshot()
        with self._lock:
            written = self._snapshot_ts
        books["attached"] = True
        try:
            books["snapshot_bytes"] = os.path.getsize(self.snapshot_path)
        except OSError:
            books["snapshot_bytes"] = 0
        books["snapshot_age_seconds"] = None if written is None \
            else max(0.0, self.clock() - written)
        return books

    # -- loading ---------------------------------------------------------------

    def load(self) -> Dict[str, object]:
        """Every surviving entry, in the shape
        :meth:`~repro.kleisli.statistics.SourceStatisticsRegistry.restore`
        takes.  Never raises on bad storage."""
        entries = self._read(self.clock(), self._books.count) or {}
        self._books.count("entries_loaded", len(entries))
        return _state(entries)

    def _read(self, now: float, count: Callable[..., None]) -> Optional[_Entries]:
        """The snapshot's entries, merged and expired, or ``None`` for a
        snapshot of another kind or schema version; ``count`` books what
        was skipped."""
        entries: _Entries = {}
        try:
            with open(self.snapshot_path, "rb") as handle:
                snapshot, _end = decode_record(handle.read())
        except OSError as error:
            if not isinstance(error, FileNotFoundError):
                count("io_errors")
            return entries
        if snapshot is not None and (
                snapshot.get("kind") != "snapshot"
                or snapshot.get("version") != SCHEMA_VERSION):
            count("snapshot_skipped_version")
            return None
        if snapshot is None or not isinstance(snapshot.get("records"), list):
            count("records_skipped_corrupt")
            return entries
        count("snapshot_loaded")
        stamp = min(float(snapshot["ts"]), now) \
            if _finite(snapshot.get("ts")) else 0.0
        with self._lock:
            self._snapshot_ts = stamp
        for record in snapshot["records"]:
            if isinstance(record, dict):
                ts = float(record["ts"]) if _finite(record.get("ts")) else stamp
                _merge(entries, record, min(ts, now),
                       lambda: count("records_skipped_corrupt"))
        for key in [key for key, (ts, _value) in entries.items()
                    if now - ts > self.MAX_AGE]:
            del entries[key]
            count("records_expired")
        return entries

    # -- writing ---------------------------------------------------------------

    def write(self, state: dict) -> bool:
        """Merge one registry snapshot into the file; whether it was
        replaced.  A failing disk, a platform without ``fcntl``, a state
        too big to frame or a snapshot of another kind or version on disk
        (left as it is) is ``False`` and a book entry, never an exception;
        an implausible entry is left out, counted ``unpersistable``."""
        with self._lock:
            try:
                import fcntl   # only a store that writes pays for the import
                os.makedirs(self.path, exist_ok=True)
                with open(os.path.join(self.path, "lock"), "a+b") as lock:
                    fcntl.flock(lock.fileno(), fcntl.LOCK_EX)  # close unlocks
                    written = self._replace_locked(state)
            except (ImportError, OSError):
                self._books.count("io_errors")
                written = False
            self._books.count("writes" if written else "write_failures")
            return written

    def _replace_locked(self, state: dict) -> bool:
        for name in os.listdir(self.path):
            if name.startswith(_TMP_PREFIX):     # its writer was killed
                with suppress(OSError):
                    os.unlink(os.path.join(self.path, name))
        now = self.clock()
        entries = self._read(now, lambda key, amount=1: None)
        if entries is None:     # another build's: left as it is
            self._books.count("snapshot_skipped_version")
            return False
        _merge(entries, state, now, lambda: self._books.count("unpersistable"))
        by_stamp: Dict[float, _Entries] = {}
        for key, (ts, value) in entries.items():
            by_stamp.setdefault(ts, {})[key] = (ts, value)
        try:
            frame = encode_record({
                "kind": "snapshot", "version": SCHEMA_VERSION, "ts": now,
                "records": [dict(_state(group), ts=ts)
                            for ts, group in sorted(by_stamp.items())]})
        except PlanStoreError:
            self._books.count("unpersistable")
            return False
        tmp_path = os.path.join(
            self.path, f"{_TMP_PREFIX}{os.getpid()}-{os.urandom(3).hex()}")
        try:
            handle = self.opener(tmp_path, "wb")
            try:
                handle.write(frame)
                handle.flush()
                os.fsync(handle.fileno())
            finally:
                handle.close()
            os.replace(tmp_path, self.snapshot_path)
        except OSError:
            with suppress(OSError):
                os.unlink(tmp_path)
            raise
        directory = os.open(self.path, os.O_RDONLY)   # make the rename durable
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self._snapshot_ts = now
        return True
