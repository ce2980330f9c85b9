"""Observability at the engine level: EXPLAIN ANALYZE, the hub, the pins.

The PR 10 acceptance criteria, as tests:

* **Federated EXPLAIN ANALYZE** — a profiled query over a fault-injecting
  driver shows per-stage timings, actual vs. planner-estimated rows, and
  retry/spill annotations, in both lowerings, while producing values
  bit-identical to the unprofiled run.
* **Zero-recorder contract** — no hub + ``profile=False`` leaves every
  observability field ``None`` and reproduces the unobserved run exactly
  (values + ``elements_fetched``); attaching a hub changes observations,
  never results.
* **Sampled row width** — with zero samples ``engine.row_width`` returns
  ``NOMINAL_ROW_BYTES`` verbatim (the spill plan gate is bit-identical to
  the PR 9 constant); spilled runs feed it real bytes-per-row.
"""

import pytest

from fault_drivers import FaultInjectingDriver

from repro.core.errors import QueryCancelledError, TransientDriverError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.nrc.eval import EvalScope
from repro.core.values import iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import NOMINAL_ROW_BYTES, CancellationToken
from repro.kleisli.resilience import RetryPolicy
from repro.obs import Observability
from repro.obs.metrics import RowWidthEstimator


class RangeDriver(Driver):
    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        count = int(request.get("count", 5))

        def cursor():
            for i in range(count):
                yield i

        return cursor()


def _scan(count=50, driver="ranges"):
    return A.Scan(driver, {"table": "t", "count": count}, args={},
                  kind="bag")


def _doubling(count=50, driver="ranges"):
    return B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)),
                                  "bag"),
                 _scan(count, driver), kind="bag")


def _dedup(count=1500):
    return B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(1400)),
                                  "set"),
                 A.Scan("ranges", {"table": "t", "count": count}, args={},
                        kind="list"),
                 kind="set")


def _plain_engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _federated_engine():
    """A fault-injecting remote whose first faulting request self-heals."""
    engine = KleisliEngine()
    engine.register_driver(FaultInjectingDriver(
        name="Faulty", total=50, fail_on=(1,),
        fault_type=TransientDriverError))
    engine.resilience.set_policy(
        "Faulty", retry=RetryPolicy(max_attempts=4, backoff_base=0.0))
    return engine


def _run(engine, expr, lowering, **kwargs):
    if lowering == "eager":
        return sorted(iter_collection(engine.execute(expr, **kwargs)))
    policy = None if lowering == "chunked" else ChunkPolicy(max_chunk=1)
    return sorted(engine.stream(expr, chunk_policy=policy, **kwargs))


LOWERINGS = ["eager", "chunks of one", "chunked"]


# -- EXPLAIN ANALYZE across both lowerings ------------------------------------

@pytest.mark.parametrize("lowering", LOWERINGS)
def test_profiled_federated_run_is_bit_identical_and_annotated(lowering):
    expr = _doubling(driver="Faulty")
    baseline = _run(_federated_engine(), expr, lowering)

    engine = _federated_engine()
    values = _run(engine, expr, lowering, profile=True)
    assert values == baseline

    profile = engine.last_profile
    assert profile is not None and profile.status == "ok"
    assert profile.actual_rows == 50.0
    assert profile.estimated_rows is not None  # eager recomputes, streams plan
    assert profile.elapsed is not None and profile.elapsed >= 0
    # the fault on request #0 was retried: the annotation survives
    assert "retries=1" in profile.annotations()
    # every remote round trip shows up as a per-driver span fold
    assert profile.drivers["Faulty"]["requests"] >= 1
    text = profile.render()
    assert "EXPLAIN ANALYZE" in text and "rows: actual=50" in text
    assert "retries=1" in text


def test_chunked_profile_reports_per_stage_timings():
    engine = _plain_engine()
    list(engine.stream(_doubling(), profile=True))
    profile = engine.last_profile
    stage = profile.stages["pipeline"]
    assert stage["rows"] == 50 and stage["chunks"] >= 1
    assert stage["seconds"] >= 0
    assert "stage pipeline: 50 rows" in profile.render()


def test_profiled_spilled_run_carries_spill_annotations():
    engine = _plain_engine()
    values = list(engine.stream(_dedup(), optimize=False, spill=True,
                                profile=True))
    plain = list(_plain_engine().stream(_dedup(), optimize=False))
    assert values == plain
    profile = engine.last_profile
    assert profile.books["spills"] > 0
    assert any(note.startswith("spills=") for note in profile.annotations())
    assert "spills=" in profile.render()


def test_profiled_cancelled_stream_finalizes_with_the_error_status():
    engine = _plain_engine()
    token = CancellationToken()
    stream = engine.stream(_doubling(count=500), cancellation=token,
                           profile=True)
    for _ in range(3):
        next(stream)
    token.cancel("mid-stream")
    with pytest.raises(QueryCancelledError):
        list(stream)
    profile = engine.last_profile
    assert profile is not None
    assert profile.status == "QueryCancelledError"
    assert EvalScope.live_count() == 0


def test_profile_is_thread_local_and_session_safe():
    engine = _plain_engine()
    engine.execute(_doubling(), profile=True)
    assert engine.thread_profile() is engine.last_profile

    import threading
    seen = []

    def other_thread():
        seen.append(engine.thread_profile())

    t = threading.Thread(target=other_thread)
    t.start()
    t.join()
    assert seen == [None]  # another thread never sees this thread's profile


# -- the zero-recorder contract ------------------------------------------------

def test_zero_recorder_engine_has_no_observability_state():
    engine = _plain_engine()
    assert engine.observability is None
    list(engine.stream(_doubling()))
    engine.execute(_doubling())
    assert engine.last_profile is None
    assert engine.thread_profile() is None
    assert engine.health()["observability"] == {"attached": False}


@pytest.mark.parametrize("lowering", LOWERINGS)
def test_attached_hub_changes_observations_never_results(lowering):
    expr = _doubling(driver="Faulty")
    bare = _federated_engine()
    baseline = _run(bare, expr, lowering)
    bare_fetched = bare.last_eval_statistics.elements_fetched

    observed = _federated_engine()
    hub = observed.attach_observability(Observability())
    assert _run(observed, expr, lowering) == baseline
    assert observed.last_eval_statistics.elements_fetched == bare_fetched
    # ... but the hub really did observe the run
    assert hub.tracer.snapshot()["started"] == 1
    assert hub.request_latency.count >= 1
    assert hub.tracer.snapshot()["finished"] == 1


def test_hub_counts_retries_and_failures():
    engine = _federated_engine()
    hub = engine.attach_observability(Observability())
    list(engine.stream(_doubling(driver="Faulty")))
    assert engine.resilience.snapshot()["Faulty"]["retries"] == 1
    assert hub.driver_failures.value == 1
    assert hub.request_latency.count >= 2  # the failed try + the retry


def test_hub_slow_query_log_records_profiles():
    engine = _plain_engine()
    hub = engine.attach_observability(Observability(slow_query_threshold=0.0))
    engine.execute(_doubling())
    assert hub.slow_queries.snapshot()["logged"] == 1
    entry = hub.slow_queries.entries()[0]
    assert entry["actual_rows"] == 50.0


def test_hub_governance_counters_feed_from_the_books():
    engine = _plain_engine()
    hub = engine.attach_observability(Observability())
    list(engine.stream(_dedup(), optimize=False, spill=True))
    assert engine.governor.snapshot()["spills"] > 0
    assert hub.spilled_bytes.count >= 1
    assert engine.health()["observability"]["attached"] is True


# -- sampled row width (the PR 9 constant-gate differential pin) ----------------

def test_zero_samples_reproduce_the_nominal_constant_bit_for_bit():
    engine = _plain_engine()
    estimator = engine.row_width
    assert isinstance(estimator, RowWidthEstimator)
    assert estimator.row_bytes() == NOMINAL_ROW_BYTES
    # stays pinned across unspilled runs: nothing feeds the estimator
    list(engine.stream(_doubling()))
    engine.execute(_doubling())
    assert estimator.snapshot()["sampled_rows"] == 0
    assert estimator.row_bytes() == NOMINAL_ROW_BYTES


def test_spilled_runs_feed_the_row_width_estimator():
    engine = _plain_engine()
    list(engine.stream(_dedup(), optimize=False, spill=True))
    snap = engine.row_width.snapshot()
    assert snap["sampled_rows"] > 0
    assert snap["row_bytes"] >= 1.0
    assert engine.health()["row_width"]["sampled_rows"] > 0
