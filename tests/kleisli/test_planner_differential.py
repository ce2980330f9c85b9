"""Differential harness: planned execution == fixed-knob execution.

Across the PR 2-4 pipelined shape corpus (``test_stream_differential``'s
``_shapes``), a planner-enabled engine must produce exactly the element
sequence — and the drained-run ``elements_fetched`` accounting — of an
engine with ``OptimizerConfig.planning`` off (the fixed historical knobs).
Two regimes:

* **zero statistics** — the planner must reproduce today's plans
  bit-for-bit (``last_plan.is_default`` pins it, not just value parity);
* **statistics registered** (cardinalities + a remote-latency declaration)
  — the plan *may* differ (different chunk maxima), but
  chunk knobs are value- and accounting-invisible by the chunked lowering's
  parity contract, so the comparison still holds exactly.
"""

import pytest

from repro.core.optimizer import OptimizerConfig
from repro.core.planner import PhysicalPlan
from repro.core.values import iter_collection
from repro.kleisli.engine import KleisliEngine

from test_stream_differential import RangeDriver, _shapes


def _planned_engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _fixed_engine():
    engine = KleisliEngine(OptimizerConfig(planning=False))
    engine.register_driver(RangeDriver())
    return engine


def _register_statistics(engine):
    engine.statistics_registry.register_cardinality("ranges", "t", 64)
    engine.statistics_registry.register_latency("ranges", 0.02)


@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_planned_matches_fixed_knobs_with_zero_statistics(label, expr, bindings):
    planned_engine = _planned_engine()
    planned = list(planned_engine.stream(expr, bindings, optimize=False,
                                         mode="compiled"))
    planned_stats = planned_engine.last_eval_statistics

    # Bit-for-bit: with nothing registered and nothing observed, the chosen
    # plan IS the default knob set, not merely an equivalent one.
    assert planned_engine.last_plan == PhysicalPlan.default(), label
    assert planned_engine.last_plan.is_default, label

    fixed_engine = _fixed_engine()
    fixed = list(fixed_engine.stream(expr, bindings, optimize=False,
                                     mode="compiled"))
    fixed_stats = fixed_engine.last_eval_statistics

    assert planned == fixed, label
    assert planned_stats.elements_fetched == fixed_stats.elements_fetched, label


@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_planned_matches_fixed_knobs_with_statistics(label, expr, bindings):
    """With statistics the plan may deviate — the values and the drained
    accounting must not."""
    planned_engine = _planned_engine()
    _register_statistics(planned_engine)
    planned = list(planned_engine.stream(expr, bindings, optimize=False,
                                         mode="compiled"))
    planned_stats = planned_engine.last_eval_statistics

    fixed_engine = _fixed_engine()
    _register_statistics(fixed_engine)
    fixed = list(fixed_engine.stream(expr, bindings, optimize=False,
                                     mode="compiled"))
    fixed_stats = fixed_engine.last_eval_statistics

    assert planned == fixed, label
    assert planned_stats.elements_fetched == fixed_stats.elements_fetched, label
    # And against eager execution, the ground truth both stream from.
    executed_engine = _fixed_engine()
    _register_statistics(executed_engine)
    result = executed_engine.execute(expr, bindings, optimize=False,
                                     mode="compiled")
    try:
        executed = list(iter_collection(result))
    except Exception:
        executed = [result]
    assert planned == executed, label


def test_shapes_with_scans_plan_non_default_once_informed():
    """Sanity check that the statistics variant above actually exercises
    non-default plans (otherwise it degenerates into the zero-stat case)."""
    informed = 0
    for label, expr, bindings in _shapes():
        engine = _planned_engine()
        _register_statistics(engine)
        list(engine.stream(expr, bindings, optimize=False, mode="compiled"))
        if not engine.last_plan.is_default:
            informed += 1
    assert informed >= 5  # every scan-bearing shape re-plans


def test_feedback_replanning_stays_value_correct_across_runs():
    """Second run of each shape re-plans from the first run's feedback;
    values and accounting must be identical run-over-run."""
    for label, expr, bindings in _shapes():
        engine = _planned_engine()
        first = list(engine.stream(expr, bindings, optimize=False,
                                   mode="compiled"))
        first_stats = engine.last_eval_statistics
        second = list(engine.stream(expr, bindings, optimize=False,
                                    mode="compiled"))
        second_stats = engine.last_eval_statistics
        assert first == second, label
        assert first_stats.elements_fetched == \
            second_stats.elements_fetched, label
        # The second run planned from feedback, not from nothing.
        assert engine.last_plan.source == "feedback", label
