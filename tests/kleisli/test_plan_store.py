"""The plan store's crash-injection suite.

Paranoid-recovery contract under test: a truncated or bit-flipped snapshot,
a wrong-version file, outright garbage, an implausible number, a stamp from
the future, a kill mid-write, or a full disk each degrade to "skip what's
unreadable, surface books, plan from what survives" — the loader never
raises and never invents entries, a failed write leaves the old snapshot
intact, and persistence failures never escape into query execution.  The
payload is the statistics registry's learned state.
"""

import os
import sys
import threading
import time

import pytest

from fault_files import FaultInjectingOpener, Killed
from repro.core.errors import PlanStoreError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer.parallel import ParallelExt
from repro.core.planner.store import (
    SCHEMA_VERSION,
    PlanStore,
    decode_record,
    encode_record,
)
from repro.core.values import CList
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.statistics import SourceStatisticsRegistry


def _stats(n=0, rows=None, ema=None):
    """One registry snapshot: a cardinality and an observed latency, both
    keyed by ``n`` so a load shows which writes it recovered."""
    return {"cardinalities": [["d", f"t{n}", n if rows is None else rows]],
            "observed_latency": {f"d{n}": 0.01 * (n + 1) if ema is None
                                 else ema}}


def _recovered(state):
    """The ``n`` of every entry a load recovered, in order."""
    return sorted(int(collection[1:])
                  for _driver, collection, _rows in state["cardinalities"])


def _empty(state):
    return not any(state.values())


#: The suite's frozen "now", so nothing ages past MAX_AGE behind the
#: tests' backs.
_NOW = 1_000_000.0


def _store(path, **kwargs):
    kwargs.setdefault("clock", lambda: _NOW)
    return PlanStore(os.fspath(path), **kwargs)


def _files(directory):
    return sorted(os.listdir(directory))


def _written_snapshot(tmp_path, entries=3):
    """A snapshot holding ``entries`` writes; returns its path and bytes."""
    store = _store(tmp_path / "store")
    for i in range(entries):
        assert store.write(_stats(i))
    with open(store.snapshot_path, "rb") as handle:
        return store.snapshot_path, handle.read()


def _full(entries=3):
    return {"cardinalities": [["d", f"t{i}", i] for i in range(entries)],
            "observed_latency": {f"d{i}": 0.01 * (i + 1)
                                 for i in range(entries)}}


# -- record framing ----------------------------------------------------------

def test_record_roundtrip_and_header_framing():
    record = dict(_stats(), kind="statistics", ts=1.5)
    frame = encode_record(record)
    decoded, offset = decode_record(frame)
    assert decoded == record
    assert offset == len(frame)


def test_oversized_record_is_refused_not_written():
    with pytest.raises(PlanStoreError):
        encode_record({"blob": "x" * (5 * 1024 * 1024)})


def test_unpersistable_statistics_are_skipped_and_counted(tmp_path):
    class Opaque:
        pass

    store = _store(tmp_path / "store")
    assert store.write({"cardinalities": [["d", "t", 4]],
                        "observed_latency": {"d": Opaque()}})
    assert store.books()["unpersistable"] == 1
    # The refused entry did not cost the others their write.
    assert store.load() == {"cardinalities": [["d", "t", 4]],
                            "observed_latency": {}}


# -- torn and flipped snapshots ------------------------------------------------

def test_truncation_at_every_offset_never_raises_never_invents(tmp_path):
    path, data = _written_snapshot(tmp_path)
    for cut in range(len(data) + 1):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        store = _store(tmp_path / "store")
        state = store.load()  # must never raise
        # One frame: the whole state or nothing, and a torn one is counted.
        assert state == (_full() if cut == len(data) else
                         {"cardinalities": [], "observed_latency": {}}), cut
        books = store.books()
        assert books["snapshot_loaded"] == (cut == len(data))
        assert books["records_skipped_corrupt"] == (cut < len(data))


def test_bit_flip_at_every_offset_never_raises_never_invents(tmp_path):
    path, data = _written_snapshot(tmp_path)
    for position in range(len(data)):
        corrupt = bytearray(data)
        corrupt[position] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(corrupt))
        store = _store(tmp_path / "store")
        state = store.load()  # must never raise
        # A flipped length field must not let the loader read garbage, and
        # the CRC catches every flip in the payload.
        assert state in (_full(), {"cardinalities": [],
                                   "observed_latency": {}}), position
        assert _empty(state)


def test_garbage_empty_and_missing_stores_load_clean(tmp_path):
    # Missing directory entirely.
    assert _empty(_store(tmp_path / "never-created").load())
    # Empty directory.
    os.makedirs(tmp_path / "empty")
    assert _empty(_store(tmp_path / "empty").load())
    # Pure garbage in both a journal and the snapshot.
    os.makedirs(tmp_path / "garbage")
    with open(tmp_path / "garbage" / "journal-1-deadbeef.kjl", "wb") as handle:
        handle.write(os.urandom(512))
    with open(tmp_path / "garbage" / "snapshot.kjs", "wb") as handle:
        handle.write(b"\xff" * 64)
    store = _store(tmp_path / "garbage")
    assert _empty(store.load())
    books = store.books()
    assert books["records_skipped_corrupt"] >= 1
    assert books["entries_loaded"] == 0


# -- implausible numbers and the books ----------------------------------------

def _write_snapshot(directory, *records, **fields):
    snapshot = dict({"kind": "snapshot", "version": SCHEMA_VERSION,
                     "ts": _NOW, "records": list(records)}, **fields)
    with open(directory / "snapshot.kjs", "wb") as handle:
        handle.write(encode_record(snapshot))


def test_implausible_statistics_are_skipped_and_counted(tmp_path):
    """A negative cardinality (which would veto a parallel loop) and an
    infinite latency EMA (which would pin a driver remote for good) pass
    the CRC and ``json``, but never reach a plan."""
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_snapshot(directory, {"ts": _NOW,
                                "cardinalities": [["remote", "t", -5]],
                                "observed_latency": {"slow": float("inf")}})
    bare = KleisliEngine()
    engine = KleisliEngine(plan_store=_store(directory))
    for each in (bare, engine):
        each.statistics_registry.register_latency("remote", 0.05)
    books = engine.health()["persistence"]
    assert (books["snapshot_loaded"], books["records_skipped_corrupt"],
            books["entries_loaded"]) == (1, 2, 0)
    assert not engine.statistics_registry.is_remote("slow")
    loop = B.ext("x", A.Scan("remote", {"table": "t"},
                             args={"key": B.var("x")}, kind="list"),
                 A.Scan("remote", {"table": "t"}, kind="list"), kind="list")
    slow = A.Scan("slow", {"table": "u"}, kind="list")
    for expr in (loop, slow):
        assert engine.compile(expr).pretty() == bare.compile(expr).pretty()
        assert engine.plan_for(expr) == bare.plan_for(expr)
    assert isinstance(engine.compile(loop), ParallelExt)


@pytest.mark.parametrize("cardinality,ema", [
    (-1, float("-inf")),
    (True, float("nan")),
    (2.5, 10 ** 400),
    ("40", -0.5),
    (None, "0.08"),
], ids=["negative", "bool, nan", "float, past float range", "text, negative",
        "none, text"])
def test_an_implausible_number_is_skipped_in_the_snapshot(
        tmp_path, cardinality, ema):
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_snapshot(directory, {"ts": _NOW,
                                "cardinalities": [["d", "t", cardinality]],
                                "observed_latency": {"slow": ema}})
    store = _store(directory)
    assert _empty(store.load())                 # never raises
    books = store.books()
    assert books["snapshot_loaded"] == 1
    assert books["records_skipped_corrupt"] == 2
    # A write carries none of it forward.
    assert store.write({})
    assert _empty(_store(directory).load())


# -- version guards ----------------------------------------------------------

def test_wrong_version_snapshot_skipped(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_snapshot(directory, dict(_stats(), ts=1.0),
                    version=SCHEMA_VERSION + 1)
    store = _store(directory)
    assert _empty(store.load())
    assert store.books()["snapshot_skipped_version"] == 1


def test_a_snapshot_of_another_kind_is_skipped(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_snapshot(directory, dict(_stats(), ts=_NOW), kind="statistics")
    store = _store(directory)
    assert _empty(store.load())
    books = store.books()
    assert (books["snapshot_skipped_version"], books["snapshot_loaded"]) == \
        (1, 0)


def test_a_write_leaves_a_newer_builds_snapshot_byte_for_byte(tmp_path):
    """A store an older and a newer build share: the older build's epoch
    move must not replace the newer build's statistics with its own."""
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_snapshot(directory, {"ts": _NOW, "cardinalities": [["d", "t", 7]]},
                    version=SCHEMA_VERSION + 1)
    before = (directory / "snapshot.kjs").read_bytes()
    store = _store(directory)
    assert store.write({"cardinalities": [["d", "u", 1]]}) is False
    assert (directory / "snapshot.kjs").read_bytes() == before
    assert _files(directory) == ["lock", "snapshot.kjs"]
    books = store.books()
    assert (books["snapshot_skipped_version"], books["write_failures"],
            books["writes"]) == (1, 1, 0)


def test_a_write_leaves_a_snapshot_of_another_kind(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_snapshot(directory, dict(_stats(), ts=_NOW), kind="statistics")
    before = (directory / "snapshot.kjs").read_bytes()
    assert _store(directory).write(_stats(1)) is False
    assert (directory / "snapshot.kjs").read_bytes() == before


def test_a_write_replaces_a_corrupt_snapshot(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    (directory / "snapshot.kjs").write_bytes(b"\x00\x00\x00\x05garbage")
    store = _store(directory)
    assert store.write(_stats(1))
    assert _recovered(store.load()) == [1]
    assert store.books()["snapshot_skipped_version"] == 0


def test_the_books_count_one_snapshot_and_no_journals(tmp_path):
    store = _store(tmp_path / "store")
    assert store.write(_stats(0))
    assert _recovered(store.load()) == [0]
    books = store.books()
    assert set(books) == {
        "attached", "entries_loaded", "io_errors", "records_expired",
        "records_skipped_corrupt", "snapshot_age_seconds", "snapshot_bytes",
        "snapshot_loaded", "snapshot_skipped_version", "unpersistable",
        "write_failures", "writes"}
    assert (books["writes"], books["snapshot_loaded"],
            books["entries_loaded"]) == (1, 1, 2)


def test_a_record_without_a_usable_stamp_takes_the_snapshots(tmp_path):
    """A record whose ``ts`` is not a finite number is stamped with the
    snapshot's own ``ts``: here one past ``MAX_AGE``, so its entries
    expire or lose to a newer stamp, and only survivors count loaded."""
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_snapshot(directory, dict(_stats(0), ts="x"),
                    dict(_stats(1), ts=float("nan")),
                    dict(_stats(1, rows=7), ts=_NOW - 1),
                    ts=_NOW - 2 * PlanStore.MAX_AGE)
    store = _store(directory)
    assert store.load() == {"cardinalities": [["d", "t1", 7]],
                            "observed_latency": {"d1": 0.02}}
    books = store.books()
    assert books["records_skipped_corrupt"] == 0
    assert (books["records_expired"], books["entries_loaded"]) == (2, 2)


def test_a_journal_beside_the_snapshot_is_neither_loaded_nor_removed(
        tmp_path):
    """A ``journal-*.kjl`` (the per-process log an earlier layout kept) is
    an unknown file: a load does not read it and a write leaves it be."""
    directory = tmp_path / "store"
    assert _store(directory).write(_stats(0))
    journal = directory / "journal-1-aaaa.kjl"
    with open(journal, "wb") as handle:
        handle.write(encode_record({"kind": "header",
                                    "version": SCHEMA_VERSION, "ts": _NOW}))
        handle.write(encode_record(dict(_stats(1), kind="statistics",
                                        ts=_NOW)))
    with open(journal, "rb") as handle:
        before = handle.read()
    store = _store(directory)
    assert _recovered(store.load()) == [0]
    assert store.books()["records_skipped_corrupt"] == 0
    assert store.write(_stats(2))
    assert _files(directory) == ["journal-1-aaaa.kjl", "lock", "snapshot.kjs"]
    with open(journal, "rb") as handle:
        assert handle.read() == before
    assert _recovered(_store(directory).load()) == [0, 2]


# -- kill mid-write / full disk / no lock --------------------------------------

def test_a_write_killed_midway_leaves_the_old_snapshot(tmp_path):
    directory = tmp_path / "store"
    assert _store(directory).write(_stats(0))
    with open(directory / "snapshot.kjs", "rb") as handle:
        before = handle.read()
    opener = FaultInjectingOpener(crash_after_bytes=len(before) // 2,
                                  kill=True)
    with pytest.raises(Killed):
        _store(directory, opener=opener).write(_stats(1))
    assert opener.crashed
    # The dead writer's torn temporary is all it left; the snapshot is the
    # one it would have replaced.
    (tmp,) = [name for name in _files(directory) if ".tmp-" in name]
    with open(directory / "snapshot.kjs", "rb") as handle:
        assert handle.read() == before
    assert _recovered(_store(directory).load()) == [0]
    # The next writer holds the lock, so the temporary is abandoned.
    assert _store(directory).write(_stats(2))
    assert _files(directory) == ["lock", "snapshot.kjs"]
    assert _recovered(_store(directory).load()) == [0, 2]


def test_a_full_disk_fails_the_write_and_leaves_the_old_snapshot(tmp_path):
    directory = tmp_path / "store"
    assert _store(directory).write(_stats(0))
    store = _store(directory, opener=FaultInjectingOpener(fail_writes_from=1))
    assert store.write(_stats(1)) is False           # counted, never raised
    books = store.books()
    assert (books["writes"], books["write_failures"]) == (0, 1)
    assert _files(directory) == ["lock", "snapshot.kjs"]
    assert _recovered(_store(directory).load()) == [0]


def test_a_platform_without_the_lock_fails_the_write_without_raising(
        tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "fcntl", None)
    store = _store(tmp_path / "store")
    assert store.write(_stats(0)) is False
    assert store.books()["write_failures"] == 1
    assert _empty(store.load())


# -- one snapshot, one lock ------------------------------------------------------

def test_a_write_replaces_the_snapshot_and_leaves_no_temporary(tmp_path):
    directory = tmp_path / "store"
    store = _store(directory)
    for i in range(4):
        assert store.write(_stats(i))
    assert _files(directory) == ["lock", "snapshot.kjs"]
    books = store.books()
    assert (books["writes"], books["write_failures"]) == (4, 0)
    assert books["snapshot_bytes"] == os.path.getsize(store.snapshot_path)
    assert books["snapshot_age_seconds"] == 0.0
    recovery = _store(directory)
    assert recovery.load() == _full(4)
    assert recovery.books()["snapshot_loaded"] == 1


def test_a_write_waits_for_the_lock_and_loses_nothing(tmp_path):
    import fcntl

    directory = tmp_path / "store"
    assert _store(directory).write(_stats(0))
    waiting = _store(directory)
    with open(directory / "lock", "a+b") as held:
        fcntl.flock(held.fileno(), fcntl.LOCK_EX)
        writer = threading.Thread(target=waiting.write, args=(_stats(1),))
        writer.start()
        writer.join(timeout=0.3)
        assert writer.is_alive()                     # blocked, not skipped
        assert _recovered(_store(directory).load()) == [0]
    writer.join(timeout=10.0)
    assert not writer.is_alive()
    assert waiting.books()["writes"] == 1
    assert _recovered(_store(directory).load()) == [0, 1]


# -- merge and staleness -------------------------------------------------------

def test_merge_newest_timestamp_wins(tmp_path):
    now = [_NOW]
    directory = tmp_path / "store"
    _store(directory, clock=lambda: now[0]).write(_stats(0, rows=10, ema=0.5))
    now[0] += 100.0
    _store(directory, clock=lambda: now[0]).write(_stats(0, rows=99, ema=0.25))
    now[0] += 100.0
    _store(directory, clock=lambda: now[0]).write(_stats(1, rows=7))
    state = _store(directory, clock=lambda: now[0]).load()
    assert state["cardinalities"] == [["d", "t0", 99],  # newest wins
                                      ["d", "t1", 7]]
    assert state["observed_latency"]["d0"] == 0.25


def test_staleness_expiry_on_load(tmp_path):
    now = [_NOW]
    directory = tmp_path / "store"
    _store(directory, clock=lambda: now[0]).write(_stats(0))
    now[0] += 6 * 24 * 3600.0
    _store(directory, clock=lambda: now[0]).write(_stats(1))
    now[0] += 2 * 24 * 3600.0                          # entry 0 is 8 days old
    reader = _store(directory, clock=lambda: now[0])
    assert _recovered(reader.load()) == [1]
    assert reader.books()["records_expired"] == 2      # its two entries
    # A write drops them from the file as well.
    assert reader.write({})
    assert _recovered(_store(directory, clock=lambda: _NOW).load()) == [1]


def test_a_future_stamp_counts_as_now(tmp_path):
    """An entry stamped ahead of the clock neither beats a later write of
    the same key nor escapes expiry."""
    now = [1000.0]
    directory = tmp_path / "store"
    os.makedirs(directory)
    future = {"ts": 1e12, "cardinalities": [["d", "t", 5], ["d", "u", 6]],
              "observed_latency": {}}
    _write_snapshot(directory, future,
                    dict(future, cardinalities=[["d", "v", 8]]), ts=1e12)
    reader = _store(directory, clock=lambda: now[0])
    assert reader.load()["cardinalities"] == [
        ["d", "t", 5], ["d", "u", 6], ["d", "v", 8]]
    assert reader.books()["records_expired"] == 0

    now[0] = 2000.0
    assert _store(directory, clock=lambda: now[0]).write(
        {"cardinalities": [["d", "t", 9], ["d", "v", 10]]})
    assert _store(directory, clock=lambda: now[0]).load()["cardinalities"] \
        == [["d", "t", 9], ["d", "u", 6], ["d", "v", 10]]

    now[0] = 2000.0 + PlanStore.MAX_AGE + 1.0
    late = _store(directory, clock=lambda: now[0])
    assert _empty(late.load())
    assert late.books()["records_expired"] == 3


# -- concurrent writer soak --------------------------------------------------

def test_concurrent_four_writer_soak_balanced_books(tmp_path):
    directory = tmp_path / "store"
    WRITERS, WRITES = 4, 25
    stores = [_store(directory) for _ in range(WRITERS)]
    errors = []

    def hammer(worker, store):
        try:
            for i in range(WRITES):
                assert store.write(_stats(worker * WRITES + i))
        except Exception as error:  # noqa: BLE001 - the assertion below
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(w, s))
               for w, s in enumerate(stores)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert sum(s.books()["writes"] for s in stores) == WRITERS * WRITES
    # Every writer's every entry survives the merges, none invented.
    reader = _store(directory)
    state = reader.load()
    assert _recovered(state) == list(range(WRITERS * WRITES))
    assert len(state["observed_latency"]) == WRITERS * WRITES
    assert reader.books()["records_skipped_corrupt"] == 0
    assert _files(directory) == ["lock", "snapshot.kjs"]


# -- engine integration ------------------------------------------------------

def test_engine_attach_load_health_and_warm_start(tmp_path):
    directory = tmp_path / "store"
    first = KleisliEngine(plan_store=_store(directory))
    first.statistics_registry.register_cardinality("d", "t", 20)
    first.statistics_registry.record_latency_sample("slow", 0.08)
    books = first.health()["persistence"]
    assert books["attached"] is True
    assert books["writes"] == 2                # one per epoch move
    first.flush_plan_store()
    assert first.health()["persistence"]["writes"] == 3

    second = KleisliEngine(plan_store=_store(directory))
    assert second.statistics_registry.cardinality("d", "t") == 20
    assert second.statistics_registry.observed_latency("slow") == \
        pytest.approx(0.08)
    assert second.statistics_registry.is_remote("slow")
    loaded = second.health()["persistence"]
    assert loaded["entries_loaded"] == 2


def test_the_engine_writes_each_epoch_move_and_nothing_else(tmp_path):
    engine = KleisliEngine(plan_store=_store(tmp_path / "store"))
    registry = engine.statistics_registry

    def writes():
        return engine.health()["persistence"]["writes"]

    registry.record_latency_sample("d", 0.002)      # local, no move
    registry.record_latency_sample("d", 0.003)
    assert writes() == 0
    registry.record_latency_sample("d", 0.5)        # crosses: promoted
    assert writes() == 1
    registry.register_cardinality("d", "t", 7)
    assert writes() == 2
    state = _store(tmp_path / "store").load()
    assert state["cardinalities"] == [["d", "t", 7]]
    assert registry.is_remote("d")
    assert state["observed_latency"]["d"] == registry.observed_latency("d")


class SlowLookup(Driver):
    """A driver that declares nothing and answers in 60 ms: only its
    observed latency makes it remote."""

    def _execute(self, request):
        time.sleep(0.06)
        return CList([request.get("key", 0)])


def test_a_promotion_outlives_a_process_killed_without_a_flush(tmp_path):
    directory = tmp_path / "store"
    first = KleisliEngine(plan_store=_store(directory))
    first.register_driver(SlowLookup("slow"))
    first.execute(A.Scan("slow", {"table": "t"}, kind="list"))
    assert first.statistics_registry.is_remote("slow")
    del first                               # no flush

    fresh = KleisliEngine(plan_store=_store(directory))
    fresh.register_driver(SlowLookup("slow"))
    loop = B.ext("x", A.Scan("slow", {"table": "t"},
                             args={"key": B.var("x")}, kind="list"),
                 B.var("KEYS"), kind="list")
    assert fresh.statistics_registry.is_remote("slow")
    assert isinstance(fresh.compile(loop), ParallelExt)
    assert fresh.plan_for(loop).source == "statistics"


def test_storeless_engine_reports_detached_books():
    engine = KleisliEngine()
    assert engine.health()["persistence"] == {"attached": False}
    engine.flush_plan_store()  # no-op, must not raise


def test_live_knowledge_outranks_restored_state(tmp_path):
    directory = tmp_path / "store"
    _store(directory).write({"cardinalities": [["d", "t", 50]],
                             "observed_latency": {"d": 0.2}})
    # An engine that already learned its own numbers ...
    registry = SourceStatisticsRegistry()
    registry.register_cardinality("d", "t", 999)
    registry.record_latency_sample("d", 0.5)
    # ... keeps them through a restore.
    registry.restore(_store(directory).load())
    assert registry.cardinality("d", "t") == 999
    assert registry.observed_latency("d") == pytest.approx(0.5)
