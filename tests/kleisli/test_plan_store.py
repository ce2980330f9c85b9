"""The plan store's crash-injection suite.

Paranoid-recovery contract under test: a truncated tail, a bit-flipped
record, a wrong-version journal, outright garbage, a kill mid-write, or a
full disk each degrade to "skip what's unreadable, surface books, plan
from what survives" — the loader never raises and never invents records,
and persistence failures never escape into query execution.
"""

import os
import threading

import pytest

from fault_files import FaultInjectingOpener
from repro.core.errors import PlanStoreError
from repro.core.planner.feedback import PlanFeedback
from repro.core.planner.store import (
    SCHEMA_VERSION,
    PlanStore,
    decode_record,
    encode_record,
    fingerprint_algorithm_version,
    read_journal,
)
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.statistics import SourceStatisticsRegistry


def _fp(n=0):
    """A realistic fingerprint: nested tuples, a frozenset, mixed scalars."""
    return ("Ext", ("Var", 0),
            ("Scan", "d", (("dict", (("table", ("str", f"t{n}")),)),),
             frozenset({("a", n), ("b", 2.5)}), None, True),
            ("Const", ("int", n)))


def _obs(cardinality=10.0, runs=1):
    return {"cardinality": cardinality, "runs": runs}


#: The suite's frozen "now": explicit record timestamps are offsets from
#: this, so nothing ever ages past MAX_AGE behind the tests' backs.
_NOW = 1_000_000.0


def _store(path, **kwargs):
    kwargs.setdefault("stats_interval", 10_000.0)  # no piggyback noise
    kwargs.setdefault("compact_bytes", 0)          # no auto-compaction
    kwargs.setdefault("clock", lambda: _NOW)
    return PlanStore(os.fspath(path), **kwargs)


def _written_journal(tmp_path, records=3):
    """A valid journal with ``records`` feedback records; returns its bytes."""
    store = _store(tmp_path / "store")
    for i in range(records):
        assert store.append_feedback(_fp(i), _obs(), ts=_NOW + i)
    store.close()
    with open(store.journal_path, "rb") as handle:
        return store.journal_path, handle.read()


def _balanced(books, data=None):
    """The books must account for every byte: loaded + skipped = written."""
    assert books["records_skipped_corrupt"] >= 0
    assert books["records_loaded"] >= 0
    if data is not None:
        parsed, skipped = read_journal(data)
        assert books["skipped_bytes"] == skipped


# -- record framing ----------------------------------------------------------

def test_record_roundtrip_and_header_framing():
    record = {"kind": "feedback", "ts": 1.5, "key": ["t", "Ext", 3],
              "obs": _obs()}
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


def test_unpersistable_fingerprint_is_skipped_and_counted(tmp_path):
    class Opaque:
        pass

    store = _store(tmp_path / "store")
    assert store.append_feedback(("unhashable", Opaque()), _obs()) is False
    assert store.books()["unpersistable"] == 1
    # The refusal did not poison the writer: a good record still lands.
    assert store.append_feedback(_fp(), _obs())
    store.close()


# -- torn writes: truncate at every byte offset ------------------------------

def test_truncation_at_every_offset_never_raises_never_invents(tmp_path):
    journal_path, data = _written_journal(tmp_path, records=3)
    full_records, _ = read_journal(data)
    assert len(full_records) == 4  # header + 3 feedback records
    for cut in range(len(data)):
        with open(journal_path, "wb") as handle:
            handle.write(data[:cut])
        store = _store(tmp_path / "store")
        state = store.load()  # must never raise
        books = store.books()
        # Never invents: everything recovered is a prefix of the real
        # records, and the books account for the cut bytes.
        prefix, skipped = read_journal(data[:cut])
        assert len(state.feedback) == max(0, len(prefix) - 1)
        assert skipped == cut - sum(
            len(encode_record(record)) for record in prefix)
        for i, (key, obs, ts) in enumerate(state.feedback):
            assert key == _fp(i)
            assert ts == _NOW + i
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
        for i, (key, obs, ts) in enumerate(state.feedback):
            assert key == _fp(i)
            assert obs == _obs()
        assert len(state.feedback) <= 3
        store.close()


def test_garbage_empty_and_missing_stores_load_clean(tmp_path):
    # Missing directory entirely.
    store = _store(tmp_path / "never-created")
    state = store.load()
    assert state.empty
    store.close()
    # Empty directory.
    os.makedirs(tmp_path / "empty")
    store = _store(tmp_path / "empty")
    assert store.load().empty
    store.close()
    # Pure garbage in both a journal and the snapshot.
    os.makedirs(tmp_path / "garbage")
    with open(tmp_path / "garbage" / "journal-1-deadbeef.kjl", "wb") as handle:
        handle.write(os.urandom(512))
    with open(tmp_path / "garbage" / "snapshot.kjs", "wb") as handle:
        handle.write(b"\xff" * 64)
    store = _store(tmp_path / "garbage")
    state = store.load()
    assert state.empty
    books = store.books()
    assert books["records_skipped_corrupt"] >= 1
    assert books["entries_loaded"] == 0
    store.close()


# -- version guards ----------------------------------------------------------

def _write_raw_journal(path, header, *records):
    with open(path, "wb") as handle:
        handle.write(encode_record(header))
        for record in records:
            handle.write(encode_record(record))


def test_wrong_schema_version_journal_skipped_wholesale(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    header = {"kind": "header", "version": SCHEMA_VERSION + 1,
              "fpv": fingerprint_algorithm_version(), "ts": 1.0}
    _write_raw_journal(directory / "journal-1-aaaa.kjl", header,
                       {"kind": "feedback", "ts": 2.0, "key": ["t", "X"],
                        "obs": _obs()})
    store = _store(directory)
    state = store.load()
    assert state.empty
    assert store.books()["journals_skipped_version"] == 1
    store.close()


def test_wrong_fingerprint_algorithm_journal_skipped_wholesale(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    header = {"kind": "header", "version": SCHEMA_VERSION,
              "fpv": "000000000000", "ts": 1.0}
    _write_raw_journal(directory / "journal-1-aaaa.kjl", header,
                       {"kind": "feedback", "ts": 2.0, "key": ["t", "X"],
                        "obs": _obs()})
    store = _store(directory)
    assert store.load().empty
    assert store.books()["journals_skipped_version"] == 1
    store.close()


def test_wrong_version_snapshot_skipped(tmp_path):
    directory = tmp_path / "store"
    os.makedirs(directory)
    snapshot = {"kind": "snapshot", "version": SCHEMA_VERSION + 1,
                "fpv": fingerprint_algorithm_version(), "ts": 1.0,
                "feedback": [], "statistics": {}}
    with open(directory / "snapshot.kjs", "wb") as handle:
        handle.write(encode_record(snapshot))
    store = _store(directory)
    assert store.load().empty
    assert store.books()["journals_skipped_version"] == 1
    store.close()


# -- kill mid-write / full disk ----------------------------------------------

def test_kill_mid_write_leaves_recoverable_prefix(tmp_path):
    directory = tmp_path / "store"
    # First, size one full append so the crash lands mid-record ....
    probe = _store(directory / "probe")
    probe.append_feedback(_fp(0), _obs(), ts=1.0)
    record_bytes = probe.books()["journal_bytes"]
    probe.close()
    # ... then crash a fresh store midway through its third record.
    opener = FaultInjectingOpener(crash_after_bytes=record_bytes * 2 + 10)
    store = _store(directory, opener=opener)
    survived = []
    for i in range(5):
        if store.append_feedback(_fp(i), _obs(), ts=_NOW + i):
            survived.append(i)
    books = store.books()
    assert opener.crashed
    assert books["append_failures"] >= 1
    assert books["writer_disabled"] is True
    # The kill must not escape as an exception (asserted by arriving here)
    # and recovery sees exactly the fully-written prefix: the torn record
    # and everything after it are gone, nothing is invented.
    recovery = _store(directory)
    state = recovery.load()
    loaded_keys = [key for key, _obs_state, _ts in state.feedback]
    assert loaded_keys == [_fp(i) for i in survived]
    assert recovery.books()["skipped_bytes"] > 0
    recovery.close()


def test_full_disk_disables_writer_without_raising(tmp_path):
    opener = FaultInjectingOpener(fail_writes_from=3)
    store = _store(tmp_path / "store", opener=opener)
    results = [store.append_feedback(_fp(i), _obs(), ts=_NOW + i)
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
    state = recovery.load()
    assert [key for key, _o, _t in state.feedback] == [_fp(0)]
    recovery.close()


# -- snapshot + compaction ---------------------------------------------------

def _provider(entries, statistics=None):
    return lambda: (entries, statistics
                    or {"cardinalities": [], "observed_latency": {}})


def test_compaction_is_atomic_and_resets_own_journal(tmp_path):
    store = _store(tmp_path / "store")
    for i in range(4):
        store.append_feedback(_fp(i), _obs(), ts=_NOW + i)
    grown = store.books()["journal_bytes"]
    store.state_provider = _provider(
        [(_fp(i), _obs(), _NOW + i) for i in range(4)],
        {"cardinalities": [["d", "t", 123]],
         "observed_latency": {"d": 0.08}})
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
    assert [key for key, _o, _t in state.feedback] == [_fp(i)
                                                       for i in range(4)]
    assert state.statistics["observed_latency"] == {"d": 0.08}
    assert state.statistics["cardinalities"] == [["d", "t", 123]]
    assert recovery.books()["snapshot_loaded"] == 1
    recovery.close()


def test_lock_contention_skips_compaction_not_data(tmp_path):
    store_a = _store(tmp_path / "store")
    store_b = _store(tmp_path / "store")
    store_a.state_provider = _provider([(_fp(0), _obs(), _NOW)])
    store_b.state_provider = _provider([(_fp(1), _obs(), _NOW)])
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


# -- merge, decay, staleness -------------------------------------------------

def test_cross_journal_merge_newest_timestamp_wins(tmp_path):
    directory = tmp_path / "store"
    old = _store(directory)
    old.append_feedback(_fp(0), _obs(cardinality=10.0), ts=_NOW + 100.0)
    old.close()
    new = _store(directory)
    new.append_feedback(_fp(0), _obs(cardinality=99.0), ts=_NOW + 200.0)
    new.append_feedback(_fp(1), _obs(cardinality=7.0), ts=_NOW + 150.0)
    new.close()
    reader = _store(directory)
    state = reader.load()
    merged = {key: obs for key, obs, _ts in state.feedback}
    assert merged[_fp(0)]["cardinality"] == 99.0     # newest wins
    assert merged[_fp(1)]["cardinality"] == 7.0
    assert reader.books()["journals_merged"] == 2
    reader.close()


def test_staleness_decay_and_expiry_on_load(tmp_path):
    now = [1_000_000.0]
    directory = tmp_path / "store"
    writer = _store(directory, clock=lambda: now[0])
    writer.append_feedback(_fp(0), _obs(runs=8))            # fresh-ish
    writer.append_feedback(_fp(1), _obs(runs=8),
                           ts=now[0] - 8 * 24 * 3600.0)     # past MAX_AGE
    writer.close()
    # Two half-lives later: runs 8 -> 2; the ancient entry expires.
    now[0] += 2 * PlanStore.DECAY_HALF_LIFE
    reader = _store(directory, clock=lambda: now[0])
    state = reader.load()
    assert [key for key, _o, _t in state.feedback] == [_fp(0)]
    assert state.feedback[0][1]["runs"] == 2
    assert reader.books()["records_expired"] == 1
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
                assert store.append_feedback(
                    _fp(ordinal), _obs(cardinality=float(ordinal)),
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
    # the books balance: loaded records == appended feedback + the flush
    # statistics records the soak wrote.
    reader = _store(directory)
    state = reader.load()
    books = reader.books()
    assert len(state.feedback) == WRITERS * RECORDS
    assert {key for key, _o, _t in state.feedback} == {
        _fp(n) for n in range(WRITERS * RECORDS)}
    assert books["journals_merged"] == WRITERS
    assert books["records_loaded"] == appended
    assert books["records_skipped_corrupt"] == 0
    assert books["skipped_bytes"] == 0
    reader.close()


def test_compaction_does_not_lose_live_sibling_journals(tmp_path):
    directory = tmp_path / "store"
    sibling = _store(directory)
    sibling.append_feedback(_fp(0), _obs(), ts=_NOW + 10.0)
    sibling.flush()
    compactor = _store(directory)
    compactor.append_feedback(_fp(1), _obs(), ts=_NOW + 20.0)
    compactor.state_provider = _provider([(_fp(1), _obs(), _NOW + 20.0)])
    assert compactor.compact() is True
    # The sibling's journal must still be on disk (only dead journals past
    # MAX_AGE are swept) and its record must survive a merge.
    assert os.path.exists(sibling.journal_path)
    reader = _store(directory)
    state = reader.load()
    assert {key for key, _o, _t in state.feedback} == {_fp(0), _fp(1)}
    reader.close()
    sibling.close()
    compactor.close()


# -- engine integration ------------------------------------------------------

def test_engine_attach_load_health_and_warm_start(tmp_path):
    directory = tmp_path / "store"
    first = KleisliEngine(plan_store=_store(directory))
    fingerprint = _fp(7)
    first.plan_feedback.record(fingerprint, 20.0)
    first.statistics_registry.record_latency_sample("slow", 0.08)
    books = first.health()["persistence"]
    assert books["attached"] is True
    assert books["records_appended"] >= 1
    first.flush_plan_store()
    first.plan_store.close()

    second = KleisliEngine(plan_store=_store(directory))
    warm = second.plan_feedback.lookup(fingerprint)
    assert warm is not None
    assert warm.cardinality == 20.0
    assert second.statistics_registry.observed_latency("slow") == \
        pytest.approx(0.08)
    assert second.statistics_registry.is_remote("slow")
    loaded = second.health()["persistence"]
    assert loaded["entries_loaded"] >= 2
    second.plan_store.close()


def test_storeless_engine_reports_detached_books():
    engine = KleisliEngine()
    assert engine.health()["persistence"] == {"attached": False}
    engine.flush_plan_store()  # no-op, must not raise


def test_live_knowledge_outranks_restored_state(tmp_path):
    directory = tmp_path / "store"
    writer = _store(directory)
    writer.append_feedback(_fp(0), _obs(cardinality=10.0), ts=_NOW)
    writer.append_statistics({"cardinalities": [["d", "t", 50]],
                              "observed_latency": {"d": 0.2}}, ts=_NOW)
    writer.close()
    # An engine that already learned its own numbers ...
    feedback = PlanFeedback()
    feedback.record(_fp(0), 5.0)
    registry = SourceStatisticsRegistry()
    registry.register_cardinality("d", "t", 999)
    registry.record_latency_sample("d", 0.5)
    # ... keeps them through a restore.
    reader = _store(directory)
    state = reader.load()
    feedback.restore(state.feedback)
    registry.restore(state.statistics)
    assert feedback.lookup(_fp(0)).cardinality == 5.0
    assert registry.cardinality("d", "t") == 999
    assert registry.observed_latency("d") == pytest.approx(0.5)
    reader.close()


def test_snapshot_restore_roundtrip_preserves_updated_timestamps():
    feedback = PlanFeedback(clock=lambda: 123.0)
    feedback.record(_fp(0), 10.0)
    exported = feedback.snapshot()
    assert exported[0][1] == {"cardinality": 10.0, "runs": 1}
    assert exported[0][2] == 123.0
    fresh = PlanFeedback()
    assert fresh.restore(exported) == 1
    assert fresh.snapshot()[0][2] == 123.0           # age survives the hop
    observation = fresh.lookup(_fp(0))
    assert (observation.cardinality, observation.runs) == (10.0, 1)


def test_observations_are_shape_checked_on_two_fields(tmp_path):
    """A persisted observation is ``{cardinality, runs}``: one written with
    the older per-stage ``stages`` map still loads (its extra key ignored),
    and a bad cardinality or run count is still skipped as corrupt."""
    directory = tmp_path / "store"
    old_state = {"cardinality": 20.0, "runs": 3,
                 "stages": {"pipeline": [20.0, 0.5, 2.0],
                            "scan:d": [4.0, 0.25, 2.0]}}
    writer = _store(directory)
    assert writer.append_feedback(_fp(0), old_state, ts=_NOW)
    assert writer.append_feedback(_fp(1), {"cardinality": "20", "runs": 3},
                                  ts=_NOW)
    assert writer.append_feedback(_fp(2), {"cardinality": 20.0, "runs": -1},
                                  ts=_NOW)
    writer.close()

    reader = _store(directory)
    state = reader.load()
    assert [(key, obs["cardinality"], obs["runs"])
            for key, obs, _ts in state.feedback] == [(_fp(0), 20.0, 3)]
    assert reader.books()["records_skipped_corrupt"] == 2
    feedback = PlanFeedback()
    assert feedback.restore(state.feedback) == 1
    assert feedback.snapshot()[0][1] == {"cardinality": 20.0, "runs": 3}
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
    crashed.append_feedback(_fp(0), _obs(cardinality=42.0), ts=_NOW + 10.0)
    crashed.flush()
    crashed.close()
    # Rebrand the journal as a provably-dead writer's: the sweep keys on
    # the PID baked into the filename, exactly what a crashed process
    # leaves behind.
    dead_path = os.path.join(
        os.fspath(directory), f"journal-{_dead_pid()}-deadbeef.kjl")
    os.rename(crashed.journal_path, dead_path)

    compactor = _store(directory)
    compactor.append_feedback(_fp(1), _obs(), ts=_NOW + 20.0)
    compactor.state_provider = _provider([(_fp(1), _obs(), _NOW + 20.0)])
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
    merged = {key: obs for key, obs, _ts in state.feedback}
    assert merged[_fp(0)]["cardinality"] == 42.0     # rescued, not lost
    assert _fp(1) in merged
    reader.close()


def test_sweep_leaves_live_and_unparsable_writer_journals(tmp_path):
    directory = tmp_path / "store"
    live = _store(directory)                      # own (live) PID in the name
    live.append_feedback(_fp(0), _obs(), ts=_NOW + 10.0)
    live.flush()
    unparsable = os.path.join(os.fspath(directory),
                              "journal-notapid-aaaa1111.kjl")
    with open(unparsable, "wb") as handle:
        handle.write(b"\x00garbage")

    compactor = _store(directory)
    compactor.append_feedback(_fp(1), _obs(), ts=_NOW + 20.0)
    compactor.state_provider = _provider([(_fp(1), _obs(), _NOW + 20.0)])
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
    header = dict(kind="header", version=999_999,
                  fingerprint_algorithm="nothing-anyone-knows")
    _write_raw_journal(dead_path, header,
                       {"kind": "feedback", "fingerprint": ["Ext", 7],
                        "state": _obs(), "updated": _NOW})
    compactor = _store(directory)
    compactor.append_feedback(_fp(1), _obs(), ts=_NOW + 20.0)
    compactor.state_provider = _provider([(_fp(1), _obs(), _NOW + 20.0)])
    assert compactor.compact() is True
    # The incompatible journal is still removed (its writer is gone and
    # nothing can ever read it) but no record crosses the version fence.
    assert not os.path.exists(dead_path)
    books = compactor.books()
    assert books["journals_swept"] == 1
    assert books["records_rescued"] == 0
    compactor.close()
