"""The resilience layer's equivalence property.

The contract the whole PR rests on, stated as a property: **for any fault
schedule that eventually lets every request through, a run under the
resilience layer is bit-identical to the fault-free run** — same values,
same order, same ``elements_fetched`` accounting — across both lowerings
(eager; chunked, streamed in chunks of one and ramped).  Faults may be
dead sources (pre-open), mid-stream cursor deaths at arbitrary depths, or
any mix; recovery must also never leak a driver cursor.

Hypothesis generates the schedules; the budget argument below guarantees
"eventually succeeds" by construction, so the property is total:

* pre-open fault ordinals and mid-stream fault ordinals are disjoint sets
  drawn from a bounded range;
* every faulty cursor dies only after producing at least one element, so
  each recovery makes progress and resets the consecutive-failure budget;
* the retry budget (``max_attempts``) exceeds the longest possible run of
  consecutive pre-open faults in the schedule.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TransientDriverError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.resilience import RetryPolicy

# The shared fault-injection fixtures live in tests/kleisli (test dirs are
# not packages; resolved here rather than via a conftest so the module name
# "conftest" keeps resolving to tests/server's for the suites that import
# helpers from it).
_KLEISLI_TESTS = str(Path(__file__).resolve().parent.parent / "kleisli")
if _KLEISLI_TESTS not in sys.path:
    sys.path.insert(0, _KLEISLI_TESTS)

from fault_drivers import FaultInjectingDriver  # noqa: E402

LOWERINGS = ["eager", "chunks of one", "chunked"]

# A schedule: disjoint pre-open / mid-stream fault ordinals plus a death
# depth (>= 1, so every recovery makes progress) for each mid-stream one.
_ordinals = st.sets(st.integers(min_value=1, max_value=12), max_size=4)


@st.composite
def fault_schedules(draw):
    fail_on = draw(_ordinals)
    midstream = draw(_ordinals.filter(lambda s: not (s & fail_on)))
    depths = {ordinal: draw(st.integers(min_value=1, max_value=7))
              for ordinal in midstream}
    count = draw(st.integers(min_value=1, max_value=9))
    return {"fail_on": fail_on, "midstream_fail_on": midstream,
            "depths": depths, "count": count}


def _term(count):
    body = B.singleton(B.prim("mul", B.var("x"), B.const(3)), "list")
    return B.ext("x", body,
                 A.Scan("Faulty", {"table": "t", "count": count},
                        kind="list"), kind="list")


def _run(engine, term, lowering):
    if lowering == "eager":
        values = list(engine.execute(term, optimize=False))
    else:
        policy = None if lowering == "chunked" else ChunkPolicy(max_chunk=1)
        values = list(engine.stream(term, optimize=False, chunk_policy=policy))
    return values, engine.last_eval_statistics.elements_fetched


def _engine(schedule, resilient):
    engine = KleisliEngine()
    driver = engine.register_driver(FaultInjectingDriver(
        fail_on=schedule["fail_on"] if resilient else (),
        midstream_fail_on=schedule["midstream_fail_on"] if resilient else (),
        midstream_after=schedule["depths"],
        fault_type=TransientDriverError))
    if resilient:
        # max_attempts exceeds any possible consecutive-fault run: every
        # schedule in the domain eventually succeeds by construction.
        engine.configure_resilience(
            "Faulty",
            RetryPolicy(max_attempts=len(schedule["fail_on"])
                        + len(schedule["midstream_fail_on"]) + 2,
                        backoff_base=0.0))
    return engine, driver


class TestRecoveryEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(schedule=fault_schedules(), lowering=st.sampled_from(LOWERINGS))
    def test_eventually_succeeding_schedules_are_invisible(
            self, schedule, lowering):
        term = _term(schedule["count"])
        clean_engine, _clean = _engine(schedule, resilient=False)
        expected = _run(clean_engine, term, lowering)

        engine, driver = _engine(schedule, resilient=True)
        got = _run(engine, term, lowering)

        assert got == expected, (
            f"schedule {schedule!r} under {lowering}: recovered run "
            f"diverged (values, elements_fetched) {got!r} != {expected!r}")
        assert driver.open_cursors == 0, \
            f"schedule {schedule!r} leaked a cursor"

    @settings(max_examples=25, deadline=None)
    @given(schedule=fault_schedules())
    def test_lowerings_agree_with_each_other_under_faults(self, schedule):
        term = _term(schedule["count"])
        runs = []
        for lowering in LOWERINGS:
            engine, _driver = _engine(schedule, resilient=True)
            runs.append(_run(engine, term, lowering))
        assert runs[0] == runs[1] == runs[2], (
            f"schedule {schedule!r}: lowerings disagree: {runs!r}")
