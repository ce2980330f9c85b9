"""Zero-knowledge differential pin for the plan store.

The persistence layer's bit-for-bit contract: an engine attached to a
**missing**, **empty**, or **arbitrarily corrupted** store must plan — and
therefore execute — exactly like a storeless engine, across the PR 2-4
pipelined shape corpus.  Not just value parity: the chosen plan must BE
the default knob set (``last_plan.is_default``), and the drained-run
``elements_fetched`` accounting must match element-for-element.  A store
that has nothing trustworthy to say must be indistinguishable from no
store at all.
"""

import os

import pytest

from repro.core.planner import PhysicalPlan, PlanStore
from repro.kleisli.engine import KleisliEngine

from test_stream_differential import RangeDriver, _shapes


def _engine(store=None):
    engine = KleisliEngine(plan_store=store)
    engine.register_driver(RangeDriver())
    return engine


def _store(path):
    return PlanStore(os.fspath(path))


def _missing_store(tmp_path):
    return _store(tmp_path / "never-created")


def _empty_store(tmp_path):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    return _store(tmp_path / "empty")


def _corrupt_store(tmp_path):
    directory = tmp_path / "corrupt"
    os.makedirs(directory, exist_ok=True)
    # Garbage in every slot the loader looks at: a journal of noise, a
    # truncated snapshot, and a journal whose header is a torn frame.
    with open(directory / "journal-1-deadbeef.kjl", "wb") as handle:
        handle.write(b"\x00\x00\x01\x00" + os.urandom(300))
    with open(directory / "snapshot.kjs", "wb") as handle:
        handle.write(b"\xff\x7f" * 40)
    with open(directory / "journal-2-cafecafe.kjl", "wb") as handle:
        handle.write(b"\x00")
    return _store(directory)


STORE_FACTORIES = [
    ("no store", lambda tmp_path: None),
    ("missing store", _missing_store),
    ("empty store", _empty_store),
    ("corrupt store", _corrupt_store),
]


@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_every_store_condition_plans_bit_for_bit_default(label, expr, bindings,
                                                         tmp_path):
    baseline_engine = _engine()
    baseline = list(baseline_engine.stream(expr, bindings, optimize=False,
                                           mode="compiled"))
    baseline_stats = baseline_engine.last_eval_statistics
    baseline_plan = baseline_engine.last_plan

    for store_label, factory in STORE_FACTORIES[1:]:
        store = factory(tmp_path)
        engine = _engine(store)
        values = list(engine.stream(expr, bindings, optimize=False,
                                    mode="compiled"))
        stats = engine.last_eval_statistics
        tag = f"{label} / {store_label}"
        # Bit-for-bit: values, accounting, and the plan itself.
        assert values == baseline, tag
        assert stats.elements_fetched == baseline_stats.elements_fetched, tag
        assert engine.last_plan == baseline_plan, tag
        assert engine.last_plan == PhysicalPlan.default(), tag
        assert engine.last_plan.is_default, tag


def test_corrupt_store_surfaces_books_but_loads_nothing(tmp_path):
    engine = _engine(_corrupt_store(tmp_path))
    books = engine.health()["persistence"]
    assert books["attached"] is True
    assert books["entries_loaded"] == 0
    assert books["records_skipped_corrupt"] >= 1
    assert engine.statistics_registry.snapshot() == \
        _engine().statistics_registry.snapshot()


def test_warm_store_changes_plans_only_when_it_has_knowledge(tmp_path):
    """The converse sanity check: a store holding a statistic the first
    process learned DOES re-plan (source == "statistics" on the warm
    engine's first run) — otherwise the zero-knowledge pin above would be
    vacuous."""
    directory = tmp_path / "warm"
    label, expr, bindings = _shapes()[0]
    first = _engine(_store(directory))
    list(first.stream(expr, bindings, optimize=False, mode="compiled"))
    assert first.last_plan.is_default
    first.statistics_registry.record_latency_sample("ranges", 0.08)
    first.flush_plan_store()

    warm = _engine(_store(directory))
    list(warm.stream(expr, bindings, optimize=False, mode="compiled"))
    assert warm.last_plan.source == "statistics"
