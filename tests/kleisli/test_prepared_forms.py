"""A session's prepared query forms: the front half once per query form.

``Session.query`` and ``Session.stream`` keep a text's parsed, typed and
optimized form and reuse it while nothing it depends on has changed.  Each
test here pins one thing that must invalidate a form (or must not), so that
deleting the epoch bump behind it fails the test.
"""

import sys
import threading

import pytest

from repro.core import types as T
from repro.core.cpl.typecheck import TypeChecker
from repro.core.errors import UnboundVariableError
from repro.core.nrc import ast as A
from repro.core.optimizer.parallel import ParallelExt
from repro.core.planner import QueryPlanner
from repro.core.values import CSet
from repro.kleisli.drivers.base import Driver, DriverFunction
from repro.kleisli.session import PREPARED_FORM_LIMIT, Session
from repro.kleisli.statistics import SourceStatisticsRegistry


class RangeDriver(Driver):
    """``Range(n)`` is the set ``{0, ..., n - 1}``."""

    def __init__(self):
        super().__init__("R")

    def _execute(self, request):
        return CSet(range(request["n"]))

    def cpl_functions(self):
        return [DriverFunction("Range", {}, argument_key="n")]


#: A loop over one scan whose body calls the driver again: a parallel loop
#: once the driver is remote, unless its source is known to be too small.
NESTED = "{y | \\x <- Range(3), \\y <- Range(x)}"


def _scans(expr):
    found = [expr] if isinstance(expr, A.Scan) else []
    for child in expr.children():
        found.extend(_scans(child))
    return found


def _session_over_a_table(rows=(1, 2, 3)):
    session = Session()
    session.bind("T", list(rows), list_as="set")
    return session


def test_a_second_send_reuses_the_form():
    session = _session_over_a_table()
    first = session.query("{x + 1 | \\x <- T}")
    second = session.query("{x + 1 | \\x <- T}")
    assert second.optimized is first.optimized and second.nrc is first.nrc
    assert second.inferred_type is first.inferred_type
    assert second.value == first.value == CSet([2, 3, 4])
    # A stream of the text runs the same form.
    assert set(session.stream("{x + 1 | \\x <- T}")) == {2, 3, 4}
    assert len(session._forms) == 1


def test_redefining_between_two_sends_changes_the_answer():
    session = _session_over_a_table()
    session.run("define N == 1")
    assert session.query("{x + N | \\x <- T}").value == CSet([2, 3, 4])
    assert list(session.stream("N * 10")) == [10]
    session.run("define N == 5")
    assert session.query("{x + N | \\x <- T}").value == CSet([6, 7, 8])
    assert list(session.stream("N * 10")) == [50]


def test_rebinding_a_table_retypes_it():
    session = _session_over_a_table()
    text = "{x | \\x <- T}"
    assert session.query(text).inferred_type == T.SetType(T.INT)
    session.bind("T", ["a", "b"], list_as="set")
    result = session.query(text)
    assert result.inferred_type == T.SetType(T.STRING)
    assert result.value == CSet(["a", "b"])


def test_declaring_a_type_retypes_its_uses():
    session = Session()
    session.register_driver(RangeDriver())
    # A driver function's type is a placeholder until it is declared.
    assert isinstance(session.query("Range(3)").inferred_type, T.TypeVar)
    session.define_type("Range", T.FunctionType(T.INT, T.SetType(T.INT)))
    assert session.query("Range(3)").inferred_type == T.SetType(T.INT)


def test_a_driver_registered_after_the_first_send_is_scanned():
    session = Session()
    with pytest.raises(UnboundVariableError):
        session.query(NESTED)
    session.register_driver(RangeDriver())
    result = session.query(NESTED)
    assert result.value == CSet([0, 1])
    assert len(_scans(result.optimized)) == 2
    # Unregistered, the calls are plain applications of the session's
    # fallback binding again.
    session.engine.unregister_driver("R")
    result = session.query(NESTED)
    assert result.value == CSet([0, 1]) and _scans(result.optimized) == []


def test_a_driver_promoted_to_remote_by_observed_latency_runs_in_parallel():
    session = Session()
    session.register_driver(RangeDriver())
    registry = session.engine.statistics_registry
    first = session.query(NESTED).optimized
    assert type(first) is A.Ext
    # A routine sample keeps the driver local, and the form with it.
    registry.record_latency_sample("R", 0.002)
    assert session.query(NESTED).optimized is first
    # The EMA moves to 0.1016 s, past the remote threshold.
    registry.record_latency_sample("R", 0.5)
    assert registry.is_remote("R")
    promoted = session.query(NESTED)
    assert isinstance(promoted.optimized, ParallelExt)
    assert promoted.value == CSet([0, 1])


def test_a_small_registered_cardinality_vetoes_the_parallel_loop():
    session = Session()
    session.register_driver(RangeDriver(), latency=0.01)
    assert isinstance(session.query(NESTED).optimized, ParallelExt)
    session.engine.statistics_registry.register_cardinality(
        "R", "", QueryPlanner.MIN_PARALLEL_SOURCE - 1)
    result = session.query(NESTED)
    assert type(result.optimized) is A.Ext
    assert result.value == CSet([0, 1])


def test_the_statistics_epoch_moves_only_on_what_the_rules_read():
    registry = SourceStatisticsRegistry()

    def moves(change):
        before = registry.epoch
        change()
        return registry.epoch != before

    assert moves(lambda: registry.register_cardinality("D", "t", 5))
    assert moves(lambda: registry.register_latency("D", 0.01))
    assert moves(lambda: registry.set_available("D", False))
    assert moves(lambda: registry.restore({"observed_latency": {"E": 0.5}}))
    # An observed latency moves it only when it crosses the threshold.
    assert not moves(lambda: registry.record_latency_sample("U", 0.002))
    assert not moves(lambda: registry.record_latency_sample("U", 0.01))
    assert moves(lambda: registry.record_latency_sample("U", 1.0))
    assert not moves(lambda: registry.record_latency_sample("U", 1.0))
    assert moves(lambda: [registry.record_latency_sample("U", 0.002)
                          for _ in range(20)])
    assert not registry.is_remote("U")


def test_typecheck_off_and_optimize_off_behave_as_before(monkeypatch):
    session = _session_over_a_table()
    text = "{x + 1 | \\x <- T}"
    plain = session.query(text, optimize=False)
    assert plain.optimized is plain.nrc
    assert list(session.stream(text, optimize=False)) == list(plain.value)
    optimized = session.query(text)
    assert optimized.optimized is not plain.optimized
    assert optimized.value == plain.value
    session.typecheck = False
    untyped = session.query(text)
    assert untyped.inferred_type is None and untyped.value == plain.value
    session.typecheck = True
    assert session.query(text).inferred_type == T.SetType(T.INT)

    calls = []
    infer = TypeChecker.infer
    monkeypatch.setattr(TypeChecker, "infer",
                        lambda checker, expr: calls.append(expr) or infer(checker, expr))
    unchecked = Session(typecheck=False)
    unchecked.bind("T", [1, 2, 3], list_as="set")
    assert unchecked.query(text).value == plain.value
    assert set(unchecked.stream(text)) == {2, 3, 4}
    assert calls == []


def test_two_sessions_on_one_engine_share_no_forms():
    first = _session_over_a_table()
    second = Session(engine=first.engine)
    second.bind("T", [10, 20], list_as="set")
    first.run("define N == 1")
    second.run("define N == 2")
    text = "{x + N | \\x <- T}"
    mine, theirs = first.query(text), second.query(text)
    assert (mine.value, theirs.value) == (CSet([2, 3, 4]), CSet([12, 22]))
    assert theirs.optimized is not mine.optimized


TEXTS = ("{[a = x, b = y] | \\x <- T, \\y <- U, x = y}",
         "{[k = x, n = count({y | \\y <- U, y < x})] | \\x <- T}",
         "{x | \\x <- T, member(x, {y + 1 | \\y <- U})}")


def _three_table_session():
    session = _session_over_a_table(range(30))
    session.bind("U", list(range(0, 60, 2)), list_as="set")
    return session


def test_eight_threads_on_one_session_agree_with_a_serial_run():
    expected = [_three_table_session().query(text).value for text in TEXTS]
    session = _three_table_session()
    outcomes, errors = [], []

    def client():
        try:
            for _ in range(5):
                for text in TEXTS:
                    outcomes.append((text, session.query(text).value))
                    outcomes.append((text, CSet(session.stream(text))))
        except BaseException as error:  # pragma: no cover - the failure path
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and not any(thread.is_alive() for thread in threads)
    sends = 8 * 5 * len(TEXTS) * 2
    assert len(outcomes) == sends
    for text, value in outcomes:
        assert value == expected[TEXTS.index(text)], text
    assert len(session._forms) == len(TEXTS)
    assert session._forms.hits + session._forms.misses == sends


def test_distinct_texts_keep_at_most_the_bound_of_forms():
    session = _session_over_a_table()
    for shift in range(200):
        assert session.query(f"{{x + {shift} | \\x <- T}}").value == \
            CSet([1 + shift, 2 + shift, 3 + shift])
    assert PREPARED_FORM_LIMIT <= 64
    assert len(session._forms) == PREPARED_FORM_LIMIT
    assert session._forms.evictions == 200 - PREPARED_FORM_LIMIT
