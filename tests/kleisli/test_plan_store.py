"""The plan store's crash-injection suite.

Paranoid-recovery contract under test: a truncated tail, a bit-flipped
record, a wrong-version journal, outright garbage, an implausible number, a
kill mid-write, or a full disk each degrade to "skip what's unreadable,
surface books, plan from what survives" — the loader never raises and never
invents records, and persistence failures never escape into query
execution.  The payload is the statistics registry's learned state: one
``statistics`` record per registry snapshot.
"""

import os
import threading
import time

import pytest

from fault_files import FaultInjectingOpener
from repro.core.errors import PlanStoreError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer.parallel import ParallelExt
from repro.core.planner.store import (
    SCHEMA_VERSION,
    PlanStore,
    decode_record,
    encode_record,
    read_journal,
)
from repro.core.values import CList
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.statistics import SourceStatisticsRegistry


def _stats(n=0, rows=None, ema=None):
    """One registry snapshot: a cardinality and an observed latency, both
    keyed by ``n`` so a load shows which records it recovered."""
    return {"cardinalities": [["d", f"t{n}", n if rows is None else rows]],
            "observed_latency": {f"d{n}": 0.01 * (n + 1) if ema is None
                                 else ema}}


def _recovered(state):
    """The ``n`` of every record a load recovered, in order."""
    return sorted(int(collection[1:])
                  for _driver, collection, _rows in state["cardinalities"])


def _empty(state):
    return not any(state.values())


#: The suite's frozen "now": explicit record timestamps are offsets from
#: this, so nothing ever ages past MAX_AGE behind the tests' backs.
_NOW = 1_000_000.0


def _store(path, **kwargs):
    kwargs.setdefault("compact_bytes", 0)          # no auto-compaction
    kwargs.setdefault("clock", lambda: _NOW)
    return PlanStore(os.fspath(path), **kwargs)


def _written_journal(tmp_path, records=3):
    """A valid journal with ``records`` statistics records; returns its bytes."""
    store = _store(tmp_path / "store")
    for i in range(records):
        assert store.append_statistics(_stats(i), ts=_NOW + i)
    store.close()
    with open(store.journal_path, "rb") as handle:
        return store.journal_path, handle.read()


# -- record framing ----------------------------------------------------------

def test_record_roundtrip_and_header_framing():
    record = dict(_stats(), kind="statistics", ts=1.5)
    frame = encode_record(record)
    decoded, offset = decode_record(frame)
    assert decoded == record
    assert offset == len(frame)
    # Trailing partial frame: one good record, torn tail skipped.
    records, skipped = read_journal(frame + frame[:5])
    assert records == [record]
    assert skipped == 5


def test_oversized_record_is_refused_not_written():
    with pytest.raises(PlanStoreError):
        encode_record({"blob": "x" * (5 * 1024 * 1024)})


def test_unpersistable_statistics_are_skipped_and_counted(tmp_path):
    class Opaque:
        pass

    store = _store(tmp_path / "store")
    assert store.append_statistics(
        {"observed_latency": {"d": Opaque()}}) is False
    assert store.books()["unpersistable"] == 1
    # The refusal did not poison the writer: a good record still lands.
    assert store.append_statistics(_stats())
    store.close()


# -- torn writes: truncate at every byte offset ------------------------------

def test_truncation_at_every_offset_never_raises_never_invents(tmp_path):
    journal_path, data = _written_journal(tmp_path, records=3)
    full_records, _ = read_journal(data)
    assert len(full_records) == 4  # header + 3 statistics records
    for cut in range(len(data)):
        with open(journal_path, "wb") as handle:
            handle.write(data[:cut])
        store = _store(tmp_path / "store")
        state = store.load()  # must never raise
        books = store.books()
        # Never invents: everything recovered is a prefix of the real
        # records, and the books account for the cut bytes.
        prefix, skipped = read_journal(data[:cut])
        survived = max(0, len(prefix) - 1)
        assert _recovered(state) == list(range(survived))
        assert state["observed_latency"] == {
            f"d{i}": _stats(i)["observed_latency"][f"d{i}"]
            for i in range(survived)}
        assert books["records_loaded"] == survived
        assert skipped == cut - sum(
            len(encode_record(record)) for record in prefix)
        assert books["skipped_bytes"] == skipped
        if prefix and skipped:
            assert books["records_skipped_corrupt"] >= 1
        store.close()


def test_bit_flip_at_every_offset_never_raises_never_invents(tmp_path):
    journal_path, data = _written_journal(tmp_path, records=3)
    for position in range(len(data)):
        corrupt = bytearray(data)
        corrupt[position] ^= 0x40
        with open(journal_path, "wb") as handle:
            handle.write(bytes(corrupt))
        store = _store(tmp_path / "store")
        state = store.load()  # must never raise
        # Whatever survives is a prefix of the true records — a flipped
        # length field must not let the loader resync onto garbage.
        survived = _recovered(state)
        assert survived == list(range(len(survived)))
        assert len(survived) <= 3
        assert state == {
            "cardinalities": [["d", f"t{i}", i] for i in survived],
            "observed_latency": {f"d{i}": 0.01 * (i + 1) for i in survived}}
        store.close()


def test_garbage_empty_and_missing_stores_load_clean(tmp_path):
    # Missing directory entirely.
    store = _store(tmp_path / "never-created")
    assert _empty(store.load())
    store.close()
    # Empty directory.
    os.makedirs(tmp_path / "empty")
    store = _store(tmp_path / "empty")
    assert _empty(store.load())
    store.close()
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
    store.close()


# -- implausible numbers and the books ----------------------------------------

def _write_raw_journal(path, header, *records):
    with open(path, "wb") as handle:
        handle.write(encode_record(header))
        for record in records:
            handle.write(encode_record(record))


def _header(**fields):
    return dict({"kind": "header", "version": SCHEMA_VERSION, "ts": 1.0},
                **fields)


def test_implausible_statistics_are_skipped_and_counted(tmp_path):
    """A negative cardinality (which would veto a parallel loop) and an
    infinite latency EMA (which would pin a driver remote for good) pass
    the CRC and ``json``, but never reach a plan."""
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_raw_journal(directory / "journal-1-aaaa.kjl", _header(),
                       {"kind": "statistics", "ts": _NOW,
                        "cardinalities": [["remote", "t", -5]],
                        "observed_latency": {"slow": float("inf")}})
    bare = KleisliEngine()
    engine = KleisliEngine(plan_store=_store(directory))
    for each in (bare, engine):
        each.statistics_registry.register_latency("remote", 0.05)
    books = engine.health()["persistence"]
    assert (books["records_loaded"], books["records_skipped_corrupt"],
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
    engine.plan_store.close()


@pytest.mark.parametrize("cardinality,ema", [
    (-1, float("-inf")),
    (True, float("nan")),
    (2.5, 10 ** 400),
    ("40", -0.5),
    (None, "0.08"),
], ids=["negative", "bool, nan", "float, past float range", "text, negative",
        "none, text"])
def test_an_implausible_number_is_skipped_in_journal_and_snapshot(
        tmp_path, cardinality, ema):
    directory = tmp_path / "store"
    os.makedirs(directory)
    bad = {"cardinalities": [["d", "t", cardinality]],
           "observed_latency": {"slow": ema}}
    snapshot = {"kind": "snapshot", "version": SCHEMA_VERSION, "ts": _NOW,
                "statistics": dict(bad, ts=_NOW)}
    with open(directory / "snapshot.kjs", "wb") as handle:
        handle.write(encode_record(snapshot))
    _write_raw_journal(directory / "journal-1-aaaa.kjl", _header(),
                       dict(bad, kind="statistics", ts=_NOW))
    store = _store(directory)
    assert _empty(store.load())                 # never raises
    books = store.books()
    assert (books["snapshot_loaded"], books["records_loaded"]) == (1, 1)
    assert books["records_skipped_corrupt"] == 4
    store.close()


def test_records_are_counted_loaded_only_once_absorbed(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_raw_journal(directory / "journal-1-aaaa.kjl", _header(),
                       dict(_stats(0), kind="statistics", ts=_NOW),
                       dict(_stats(1), kind="statistics", ts="x"))
    store = _store(directory)
    assert _recovered(store.load()) == [0]
    books = store.books()
    assert books["records_loaded"] == 1
    assert books["records_skipped_corrupt"] == 1
    store.close()


# -- version guards ----------------------------------------------------------

def test_wrong_schema_version_journal_skipped_wholesale(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    _write_raw_journal(directory / "journal-1-aaaa.kjl",
                       _header(version=SCHEMA_VERSION + 1),
                       dict(_stats(), kind="statistics", ts=2.0))
    store = _store(directory)
    assert _empty(store.load())
    assert store.books()["journals_skipped_version"] == 1
    store.close()


def test_wrong_version_snapshot_skipped(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    snapshot = {"kind": "snapshot", "version": SCHEMA_VERSION + 1, "ts": 1.0,
                "statistics": dict(_stats(), ts=1.0)}
    with open(directory / "snapshot.kjs", "wb") as handle:
        handle.write(encode_record(snapshot))
    store = _store(directory)
    assert _empty(store.load())
    assert store.books()["journals_skipped_version"] == 1
    store.close()


#: The fingerprint-algorithm hash a store written before the feedback ledger
#: was removed carries in its headers and snapshot.
_OLD_FPV = "7ce7c841bc9e"


def test_a_store_written_with_feedback_records_still_loads_its_statistics(
        tmp_path):
    """The format before the feedback ledger went: an ``fpv`` header, a
    snapshot carrying a ``feedback`` list, and ``feedback`` journal records.
    Its statistics load into a new engine; its feedback is skipped."""
    directory = tmp_path / "store"
    os.makedirs(directory)
    observation = [["t", "Ext", ["t", "Var", 0]],
                   {"cardinality": 12.0, "runs": 1}, _NOW]
    snapshot = {"kind": "snapshot", "version": 1, "fpv": _OLD_FPV,
                "pid": 1, "ts": _NOW, "feedback": [observation],
                "statistics": {"ts": _NOW,
                               "cardinalities": [["d", "t", 40]],
                               "observed_latency": {"slow": 0.08}}}
    with open(directory / "snapshot.kjs", "wb") as handle:
        handle.write(encode_record(snapshot))
    _write_raw_journal(directory / "journal-1-aaaa.kjl",
                       _header(fpv=_OLD_FPV, pid=1),
                       {"kind": "feedback", "ts": _NOW + 1,
                        "key": observation[0], "obs": observation[1]},
                       {"kind": "statistics", "ts": _NOW + 2,
                        "cardinalities": [],
                        "observed_latency": {"far": 0.09}})
    engine = KleisliEngine(plan_store=_store(directory))
    registry = engine.statistics_registry
    assert registry.cardinality("d", "t") == 40
    assert registry.observed_latency("slow") == pytest.approx(0.08)
    assert registry.is_remote("slow") and registry.is_remote("far")
    books = engine.health()["persistence"]
    assert (books["snapshot_loaded"], books["journals_merged"],
            books["records_loaded"], books["records_skipped_corrupt"]) == \
        (1, 1, 1, 1)
    engine.plan_store.close()


# -- kill mid-write / full disk ----------------------------------------------

def test_kill_mid_write_leaves_recoverable_prefix(tmp_path):
    directory = tmp_path / "store"
    # First, size one full append so the crash lands mid-record ....
    probe = _store(directory / "probe")
    probe.append_statistics(_stats(0), ts=1.0)
    record_bytes = probe.books()["journal_bytes"]
    probe.close()
    # ... then crash a fresh store midway through its third record.
    opener = FaultInjectingOpener(crash_after_bytes=record_bytes * 2 + 10)
    store = _store(directory, opener=opener)
    survived = []
    for i in range(5):
        if store.append_statistics(_stats(i), ts=_NOW + i):
            survived.append(i)
    books = store.books()
    assert opener.crashed
    assert books["append_failures"] >= 1
    assert books["writer_disabled"] is True
    # The kill must not escape as an exception (asserted by arriving here)
    # and recovery sees exactly the fully-written prefix: the torn record
    # and everything after it are gone, nothing is invented.
    recovery = _store(directory)
    assert _recovered(recovery.load()) == survived
    assert recovery.books()["skipped_bytes"] > 0
    recovery.close()


def test_full_disk_disables_writer_without_raising(tmp_path):
    opener = FaultInjectingOpener(fail_writes_from=3)
    store = _store(tmp_path / "store", opener=opener)
    results = [store.append_statistics(_stats(i), ts=_NOW + i)
               for i in range(8)]
    assert results[0] is True            # header + first record fit
    assert not any(results[1:])          # then the disk filled
    books = store.books()
    assert books["append_failures"] >= 1
    assert books["writer_disabled"] is True
    store.flush()                        # still must not raise
    store.close()
    # What landed before the disk filled is still recoverable.
    recovery = _store(tmp_path / "store")
    assert _recovered(recovery.load()) == [0]
    recovery.close()


# -- snapshot + compaction ---------------------------------------------------

def test_compaction_is_atomic_and_resets_own_journal(tmp_path):
    store = _store(tmp_path / "store")
    for i in range(4):
        store.append_statistics(_stats(i), ts=_NOW + i)
    grown = store.books()["journal_bytes"]
    store.state_provider = lambda: {"cardinalities": [["d", "t", 123]],
                                    "observed_latency": {"d": 0.08}}
    assert store.compact() is True
    books = store.books()
    assert books["compactions"] == 1
    assert books["journal_bytes"] < grown            # folded into snapshot
    assert os.path.exists(store.snapshot_path)
    assert not [name for name in os.listdir(store.path)
                if ".tmp-" in name]                  # no abandoned temps
    store.close()
    # Recovery: the snapshot alone carries everything.
    recovery = _store(tmp_path / "store")
    state = recovery.load()
    assert state == {"cardinalities": [["d", "t", 123]],
                     "observed_latency": {"d": 0.08}}
    assert recovery.books()["snapshot_loaded"] == 1
    recovery.close()


def test_lock_contention_skips_compaction_not_data(tmp_path):
    store_a = _store(tmp_path / "store")
    store_b = _store(tmp_path / "store")
    store_a.state_provider = lambda: _stats(0)
    store_b.state_provider = lambda: _stats(1)
    lock = store_a._acquire_dir_lock()
    assert lock is not None
    try:
        assert store_b.compact() is False
        assert store_b.books()["compactions_skipped"] == 1
    finally:
        store_a._release_dir_lock(lock)
    assert store_b.compact() is True
    store_a.close()
    store_b.close()


# -- merge and staleness -------------------------------------------------------

def test_cross_journal_merge_newest_timestamp_wins(tmp_path):
    directory = tmp_path / "store"
    old = _store(directory)
    old.append_statistics(_stats(0, rows=10, ema=0.5), ts=_NOW + 100.0)
    old.close()
    new = _store(directory)
    new.append_statistics(_stats(0, rows=99, ema=0.25), ts=_NOW + 200.0)
    new.append_statistics(_stats(1, rows=7), ts=_NOW + 150.0)
    new.close()
    reader = _store(directory)
    state = reader.load()
    assert state["cardinalities"] == [["d", "t0", 99],  # newest wins
                                      ["d", "t1", 7]]
    assert state["observed_latency"]["d0"] == 0.25
    assert reader.books()["journals_merged"] == 2
    reader.close()


def test_staleness_expiry_on_load(tmp_path):
    now = [1_000_000.0]
    directory = tmp_path / "store"
    writer = _store(directory, clock=lambda: now[0])
    writer.append_statistics(_stats(0))                    # fresh-ish
    writer.append_statistics(_stats(1),
                             ts=now[0] - 8 * 24 * 3600.0)  # past MAX_AGE
    writer.close()
    now[0] += 2 * 24 * 3600.0
    reader = _store(directory, clock=lambda: now[0])
    assert _recovered(reader.load()) == [0]
    assert reader.books()["records_expired"] == 2          # its two entries
    reader.close()


# -- concurrent writer soak --------------------------------------------------

def test_concurrent_four_writer_soak_balanced_books(tmp_path):
    directory = tmp_path / "store"
    WRITERS, RECORDS = 4, 25
    stores = [_store(directory) for _ in range(WRITERS)]
    errors = []

    def hammer(worker, store):
        try:
            for i in range(RECORDS):
                ordinal = worker * RECORDS + i
                assert store.append_statistics(_stats(ordinal),
                                               ts=_NOW + ordinal)
                if i % 10 == 9:
                    store.flush()
        except Exception as error:  # noqa: BLE001 - the assertion below
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(w, s))
               for w, s in enumerate(stores)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    appended = sum(s.books()["records_appended"] for s in stores)
    for store in stores:
        store.close()
    # Every worker's every record survives the merge, none invented, and
    # the books balance: loaded records == appended records.
    reader = _store(directory)
    state = reader.load()
    books = reader.books()
    assert _recovered(state) == list(range(WRITERS * RECORDS))
    assert len(state["observed_latency"]) == WRITERS * RECORDS
    assert books["journals_merged"] == WRITERS
    assert books["records_loaded"] == appended == WRITERS * RECORDS
    assert books["records_skipped_corrupt"] == 0
    assert books["skipped_bytes"] == 0
    reader.close()


def test_compaction_does_not_lose_live_sibling_journals(tmp_path):
    directory = tmp_path / "store"
    sibling = _store(directory)
    sibling.append_statistics(_stats(0), ts=_NOW + 10.0)
    sibling.flush()
    compactor = _store(directory)
    compactor.append_statistics(_stats(1), ts=_NOW + 20.0)
    compactor.state_provider = lambda: _stats(1)
    assert compactor.compact() is True
    # The sibling's journal must still be on disk (only dead journals past
    # MAX_AGE are swept) and its record must survive a merge.
    assert os.path.exists(sibling.journal_path)
    reader = _store(directory)
    assert _recovered(reader.load()) == [0, 1]
    reader.close()
    sibling.close()
    compactor.close()


# -- engine integration ------------------------------------------------------

def test_engine_attach_load_health_and_warm_start(tmp_path):
    directory = tmp_path / "store"
    first = KleisliEngine(plan_store=_store(directory))
    first.statistics_registry.register_cardinality("d", "t", 20)
    first.statistics_registry.record_latency_sample("slow", 0.08)
    books = first.health()["persistence"]
    assert books["attached"] is True
    assert books["records_appended"] == 2      # one per epoch move
    first.flush_plan_store()
    first.plan_store.close()

    second = KleisliEngine(plan_store=_store(directory))
    assert second.statistics_registry.cardinality("d", "t") == 20
    assert second.statistics_registry.observed_latency("slow") == \
        pytest.approx(0.08)
    assert second.statistics_registry.is_remote("slow")
    loaded = second.health()["persistence"]
    assert loaded["entries_loaded"] == 2
    second.plan_store.close()


def test_the_engine_journals_each_epoch_move_and_nothing_else(tmp_path):
    engine = KleisliEngine(plan_store=_store(tmp_path / "store"))
    registry = engine.statistics_registry

    def appended():
        return engine.health()["persistence"]["records_appended"]

    registry.record_latency_sample("d", 0.002)      # local, no move
    registry.record_latency_sample("d", 0.003)
    assert appended() == 0
    registry.record_latency_sample("d", 0.5)        # crosses: promoted
    assert appended() == 1
    registry.register_cardinality("d", "t", 7)
    assert appended() == 2
    engine.plan_store.close()
    state = _store(tmp_path / "store").load()
    assert state["cardinalities"] == [["d", "t", 7]]
    assert registry.is_remote("d")
    assert state["observed_latency"]["d"] == registry.observed_latency("d")


def test_statistics_appends_compact_the_journal_when_it_grows(tmp_path):
    store = _store(tmp_path / "store", compact_bytes=1024)
    engine = KleisliEngine(plan_store=store)
    for n in range(40):
        engine.statistics_registry.register_cardinality("d", f"t{n}", n)
    assert store.books()["compactions"] >= 1
    store.close()
    reader = _store(tmp_path / "store")
    assert _recovered(reader.load()) == list(range(40))
    assert reader.books()["snapshot_loaded"] == 1


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
    dropped = first.plan_store
    del first                               # no flush(), no close()

    fresh = KleisliEngine(plan_store=_store(directory))
    fresh.register_driver(SlowLookup("slow"))
    loop = B.ext("x", A.Scan("slow", {"table": "t"},
                             args={"key": B.var("x")}, kind="list"),
                 B.var("KEYS"), kind="list")
    assert fresh.statistics_registry.is_remote("slow")
    assert isinstance(fresh.compile(loop), ParallelExt)
    assert fresh.plan_for(loop).source == "statistics"
    fresh.plan_store.close()
    dropped.close()


def test_storeless_engine_reports_detached_books():
    engine = KleisliEngine()
    assert engine.health()["persistence"] == {"attached": False}
    engine.flush_plan_store()  # no-op, must not raise


def test_live_knowledge_outranks_restored_state(tmp_path):
    directory = tmp_path / "store"
    writer = _store(directory)
    writer.append_statistics({"cardinalities": [["d", "t", 50]],
                              "observed_latency": {"d": 0.2}}, ts=_NOW)
    writer.close()
    # An engine that already learned its own numbers ...
    registry = SourceStatisticsRegistry()
    registry.register_cardinality("d", "t", 999)
    registry.record_latency_sample("d", 0.5)
    # ... keeps them through a restore.
    reader = _store(directory)
    registry.restore(reader.load())
    assert registry.cardinality("d", "t") == 999
    assert registry.observed_latency("d") == pytest.approx(0.5)
    reader.close()


# -- dead-writer journal sweep ------------------------------------------------

def _dead_pid():
    """A PID that provably belongs to no process: a reaped child's."""
    import subprocess
    import sys
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_compaction_sweeps_dead_writer_journal_and_rescues_records(tmp_path):
    directory = tmp_path / "store"
    crashed = _store(directory)
    crashed.append_statistics(_stats(0, rows=42), ts=_NOW + 10.0)
    crashed.flush()
    crashed.close()
    # Rebrand the journal as a provably-dead writer's: the sweep keys on
    # the PID baked into the filename, exactly what a crashed process
    # leaves behind.
    dead_path = os.path.join(
        os.fspath(directory), f"journal-{_dead_pid()}-deadbeef.kjl")
    os.rename(crashed.journal_path, dead_path)

    compactor = _store(directory)
    compactor.append_statistics(_stats(1), ts=_NOW + 20.0)
    compactor.state_provider = lambda: _stats(1)
    assert compactor.compact() is True
    # Swept immediately — no 7-day age-out — with the dead writer's
    # records rescued into the compactor's own journal first.
    assert not os.path.exists(dead_path)
    books = compactor.books()
    assert books["journals_swept"] == 1
    assert books["records_rescued"] == 1
    compactor.close()

    reader = _store(directory)
    state = reader.load()
    assert ["d", "t0", 42] in state["cardinalities"]   # rescued, not lost
    assert _recovered(state) == [0, 1]
    reader.close()


def test_sweep_leaves_live_and_unparsable_writer_journals(tmp_path):
    directory = tmp_path / "store"
    live = _store(directory)                      # own (live) PID in the name
    live.append_statistics(_stats(0), ts=_NOW + 10.0)
    live.flush()
    unparsable = os.path.join(os.fspath(directory),
                              "journal-notapid-aaaa1111.kjl")
    with open(unparsable, "wb") as handle:
        handle.write(b"\x00garbage")

    compactor = _store(directory)
    compactor.append_statistics(_stats(1), ts=_NOW + 20.0)
    compactor.state_provider = lambda: _stats(1)
    assert compactor.compact() is True
    # A live writer's journal and a no-PID file both wait for the age-out.
    assert os.path.exists(live.journal_path)
    assert os.path.exists(unparsable)
    assert compactor.books()["journals_swept"] == 0
    live.close()
    compactor.close()


def test_sweep_rescues_nothing_from_wrong_version_dead_journal(tmp_path):
    directory = tmp_path / "store"
    dead_path = os.path.join(
        os.fspath(directory), f"journal-{_dead_pid()}-cafecafe.kjl")
    os.makedirs(os.fspath(directory), exist_ok=True)
    _write_raw_journal(dead_path, _header(version=999_999),
                       dict(_stats(7), kind="statistics", ts=_NOW))
    compactor = _store(directory)
    compactor.append_statistics(_stats(1), ts=_NOW + 20.0)
    compactor.state_provider = lambda: _stats(1)
    assert compactor.compact() is True
    # The incompatible journal is still removed (its writer is gone and
    # nothing can ever read it) but no record crosses the version fence.
    assert not os.path.exists(dead_path)
    books = compactor.books()
    assert books["journals_swept"] == 1
    assert books["records_rescued"] == 0
    compactor.close()
