"""Regression tests: abandoning a pipelined query must release its resources.

``KleisliEngine.stream`` yields results as the outer generator produces them;
a consumer that stops early (closes the iterator) must not

* leave the driver's cursor open (the driver generator's ``finally`` must
  run), nor
* leave a ``ParallelExt`` body's task running on a worker, nor
* eagerly drain the source behind the consumer's back —

in **both** execution modes.
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CSet, from_python
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import ExecutionMode, KleisliEngine
from repro.kleisli.tokens import TokenStream

MODES = [ExecutionMode.INTERPRET, ExecutionMode.COMPILED]


class CursorDriver(Driver):
    """A driver whose scans hand out generators that track open/closed state."""

    def __init__(self, name="cursors", total=100, wrap_token_stream=False):
        super().__init__(name)
        self.total = total
        self.wrap_token_stream = wrap_token_stream
        self.open_cursors = 0
        self.produced = 0

    def _execute(self, request):
        def cursor():
            self.open_cursors += 1
            try:
                for i in range(self.total):
                    self.produced += 1
                    yield i
            finally:
                self.open_cursors -= 1

        if self.wrap_token_stream:
            return TokenStream(cursor(), kind="set")
        return cursor()


def _scan_comprehension():
    return B.ext("x", B.singleton(B.var("x")), A.Scan("cursors", {"table": "t"}))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("wrap_token_stream", [False, True],
                         ids=["raw-generator", "token-stream"])
class TestEarlyTermination:
    def test_closing_the_stream_closes_the_driver_cursor(self, mode, wrap_token_stream):
        engine = KleisliEngine()
        driver = engine.register_driver(
            CursorDriver(total=100, wrap_token_stream=wrap_token_stream))
        stream = engine.stream(_scan_comprehension(), optimize=False, mode=mode)
        assert next(stream) == 0
        assert next(stream) == 1
        assert driver.open_cursors == 1
        stream.close()
        assert driver.open_cursors == 0, "driver cursor left open after close()"

    def test_early_close_does_not_drain_the_source(self, mode, wrap_token_stream):
        engine = KleisliEngine()
        driver = engine.register_driver(
            CursorDriver(total=100, wrap_token_stream=wrap_token_stream))
        stream = engine.stream(_scan_comprehension(), optimize=False, mode=mode)
        for _ in range(3):
            next(stream)
        stream.close()
        assert driver.produced <= 4, f"stream drained {driver.produced} elements eagerly"

    def test_exhausted_stream_also_closes_the_cursor(self, mode, wrap_token_stream):
        engine = KleisliEngine()
        driver = engine.register_driver(
            CursorDriver(total=5, wrap_token_stream=wrap_token_stream))
        values = list(engine.stream(_scan_comprehension(), optimize=False, mode=mode))
        assert values == list(range(5))
        assert driver.open_cursors == 0


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestDirectTokenStreamSource:
    def test_early_close_reaches_a_bound_token_stream(self, mode):
        """The source can be a TokenStream bound directly in the environment
        (no Scan in between); closing the stream must still reach its cursor."""
        state = {"open": 0}

        def cursor():
            state["open"] += 1
            try:
                for i in range(100):
                    yield i
            finally:
                state["open"] -= 1

        token_stream = TokenStream(cursor(), kind="list")
        engine = KleisliEngine()
        expr = B.ext("x", B.singleton(B.var("x"), "list"), B.var("S"), kind="list")
        stream = engine.stream(expr, {"S": token_stream}, optimize=False, mode=mode)
        assert next(stream) == 0
        assert state["open"] == 1
        stream.close()
        assert state["open"] == 0, "bound TokenStream cursor left open"


class TestClosedTokenStreamIsPoisoned:
    def test_closed_stream_refuses_to_materialise_partially(self):
        """A closed-but-undrained TokenStream must raise, not silently pass
        off its partial buffer as the complete collection."""
        from repro.core.errors import EvaluationError

        stream = TokenStream(iter(range(10)), kind="list")
        iterator = iter(stream)
        assert [next(iterator), next(iterator)] == [0, 1]
        stream.close()
        with pytest.raises(EvaluationError):
            stream.to_collection()
        with pytest.raises(EvaluationError):
            list(stream)

    def test_closing_a_drained_stream_is_a_no_op(self):
        stream = TokenStream(iter(range(3)), kind="list")
        assert len(stream.to_collection()) == 3
        stream.close()
        assert len(stream.to_collection()) == 3


class BiDriver(Driver):
    """Two cursor families ("outer"/"inner") with independent open/close state."""

    def __init__(self, name="bi", outer_total=50, inner_total=50):
        super().__init__(name)
        self.totals = {"outer": outer_total, "inner": inner_total}
        self.open_cursors = {"outer": 0, "inner": 0}
        self.produced = {"outer": 0, "inner": 0}

    def _execute(self, request):
        family = request["table"]

        def cursor():
            self.open_cursors[family] += 1
            try:
                for i in range(self.totals[family]):
                    self.produced[family] += 1
                    yield i
            finally:
                self.open_cursors[family] -= 1

        return cursor()


def _nested_scan_comprehension():
    """ext x <- scan(outer): ext y <- scan(inner, base=x): {x*1000 + y}"""
    inner = B.ext(
        "y",
        B.singleton(B.prim("add", B.prim("mul", B.var("x"), B.const(1000)),
                           B.var("y")), "list"),
        A.Scan("bi", {"table": "inner"}, args={"base": B.var("x")}, kind="list"),
        kind="list")
    return B.ext("x", inner, A.Scan("bi", {"table": "outer"}, kind="list"),
                 kind="list")


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestBodyCursorRelease:
    """Closing the stream must release *body-level* cursors, not just the
    source's (the context-managed evaluation scope)."""

    def test_early_close_closes_body_cursors(self, mode):
        engine = KleisliEngine()
        driver = engine.register_driver(BiDriver())
        stream = engine.stream(_nested_scan_comprehension(),
                               optimize=False, mode=mode)
        for _ in range(3):
            next(stream)
        stream.close()
        assert driver.open_cursors == {"outer": 0, "inner": 0}, \
            "body-level cursor left open after close()"

    def test_compiled_stream_pipelines_the_body_cursor(self, mode):
        """In compiled mode the body scan is itself pipelined: after pulling
        two elements the inner cursor is still open mid-consumption — and
        close() must reach it.  (Interpreted mode materializes the body per
        outer element, so its inner cursor is already drained here.)"""
        engine = KleisliEngine()
        driver = engine.register_driver(BiDriver())
        stream = engine.stream(_nested_scan_comprehension(),
                               optimize=False, mode=mode)
        assert next(stream) == 0
        assert next(stream) == 1
        if mode is ExecutionMode.COMPILED:
            assert driver.open_cursors["inner"] == 1, \
                "body scan should stream, not materialize"
            assert driver.produced["inner"] <= 3
            assert driver.produced["outer"] <= 2
        stream.close()
        assert driver.open_cursors == {"outer": 0, "inner": 0}

    def test_exhausting_the_stream_closes_everything(self, mode):
        engine = KleisliEngine()
        driver = engine.register_driver(BiDriver(outer_total=3, inner_total=4))
        values = list(engine.stream(_nested_scan_comprehension(),
                                    optimize=False, mode=mode))
        assert len(values) == 12
        assert driver.open_cursors == {"outer": 0, "inner": 0}

    def test_drained_body_cursors_are_not_pinned_by_the_scope(self, mode):
        """The scope must track only *live* cursors: a drained body-level
        cursor unregisters itself, so a long stream does not accumulate one
        retained (buffer-holding) cursor per outer element (regression)."""
        from repro.core.nrc.compile import compile_chunked
        from repro.core.nrc.eval import EvalContext, Environment, Evaluator

        engine = KleisliEngine()
        engine.register_driver(BiDriver(outer_total=40, inner_total=5))
        context = EvalContext(driver_executor=engine.driver_executor)
        if mode is ExecutionMode.COMPILED:
            iterator = compile_chunked(_nested_scan_comprehension())(None, context)
        else:
            expr = _nested_scan_comprehension()

            def interpreted():
                with context.evaluation_scope():
                    evaluator = Evaluator(context)
                    source = evaluator._eval(expr.source, Environment())
                    for item in source:
                        body = evaluator._eval(
                            expr.body, Environment({expr.var: item}))
                        yield from body

            iterator = interpreted()
        peak = 0
        for i, _ in enumerate(iterator):
            if i % 10 == 0:
                # The run's scope is active on the context mid-iteration.
                peak = max(peak, len(context.scope._resources))
        assert peak <= 3, f"scope pinned {peak} cursors (drained ones retained)"


class TestVarBoundCursorScopeRelease:
    def test_drained_streams_unregister_via_direct_iteration(self):
        """Direct check on the helper: _iterate_streamed registers a
        closeable source and unregisters it once drained."""
        from repro.core.nrc.compile import _iterate_streamed
        from repro.core.nrc.eval import EvalContext

        context = EvalContext()
        with context.evaluation_scope() as scope:
            token_stream = TokenStream(iter(range(5)), kind="list")
            iterator = _iterate_streamed(token_stream, context)
            assert list(iterator) == [0, 1, 2, 3, 4]
            assert len(scope._resources) == 0, "drained cursor still tracked"
            abandoned = TokenStream(iter(range(5)), kind="list")
            iterator = _iterate_streamed(abandoned, context)
            assert next(iterator) == 0
            assert len(scope._resources) == 1, "live cursor must be tracked"
        state = {"closed": abandoned.closed}
        assert state["closed"], "abandoned cursor not closed by the scope"


class TestCompiledPipelining:
    """The compiled backend pipelines nested/filtered/parallel shapes — the
    first element must arrive after O(1) source elements, not O(n)."""

    def test_nested_ext_is_pipelined(self):
        engine = KleisliEngine()
        driver = engine.register_driver(BiDriver(outer_total=100, inner_total=100))
        stream = engine.stream(_nested_scan_comprehension(),
                               optimize=False, mode=ExecutionMode.COMPILED)
        assert next(stream) == 0
        assert driver.produced["outer"] <= 2, "outer source drained eagerly"
        assert driver.produced["inner"] <= 2, "inner source drained eagerly"
        stream.close()

    def test_filtered_comprehension_is_pipelined(self):
        engine = KleisliEngine()
        driver = engine.register_driver(CursorDriver(total=100))
        expr = B.ext(
            "x",
            B.if_then_else(B.prim("gt", B.var("x"), B.const(4)),
                           B.singleton(B.var("x")), B.empty()),
            A.Scan("cursors", {"table": "t"}))
        stream = engine.stream(expr, optimize=False, mode=ExecutionMode.COMPILED)
        assert next(stream) == 5
        assert driver.produced <= 7, "filter drained the source eagerly"
        stream.close()
        assert driver.open_cursors == 0

    def test_parallel_ext_prefetches_boundedly(self):
        """A streamed ParallelExt keeps at most max_workers requests in
        flight: the source is consumed only one window ahead, plus the rest
        of the ramp chunk the window's last element sits in (chunks [0],
        [1, 2], [3..6] feed a window of 4) — the no-lookahead-past-the-chunk
        rule of test_chunked_stream_does_not_outrun_the_ramp."""
        from repro.core.nrc.compile import ChunkPolicy

        expr = ParallelExt("x", B.singleton(B.prim("mul", B.var("x"), B.const(2))),
                           A.Scan("cursors", {"table": "t"}),
                           kind="set", max_workers=4)
        for policy, ahead in [(None, 4 + 3), (ChunkPolicy(max_chunk=1), 4 + 2)]:
            engine = KleisliEngine()
            driver = engine.register_driver(CursorDriver(total=100))
            stream = engine.stream(expr, optimize=False, chunk_policy=policy,
                                   mode=ExecutionMode.COMPILED)
            assert next(stream) == 0
            assert driver.produced <= ahead, \
                f"prefetch ran {driver.produced} elements ahead of the consumer"
            stream.close()
            assert driver.open_cursors == 0


class TestBlockedJoinStreams:
    """A blocked join streams its outer side and fetches its inner side
    once, on first need, however the ramp cuts the outer into chunks —
    exactly as ``execute`` does."""

    @staticmethod
    def _join():
        pair = B.record(o=B.var("o"), i=B.var("i"))
        return B.ext("o", B.ext("i", B.if_then_else(
            B.prim("lt", B.var("i"), B.var("o")), B.singleton(pair, "list"), B.empty("list")),
            A.Cached(A.Scan("bi", {"table": "inner"}, kind="list")), "list"),
            A.Scan("bi", {"table": "outer"}, kind="list"), "list")

    def test_ten_outer_rows_scan_the_inner_once(self):
        from repro.core.nrc.compile import ChunkPolicy
        from repro.core.values import iter_collection

        runs = []
        for mode in MODES:
            engine = KleisliEngine()
            engine.register_driver(BiDriver(outer_total=10, inner_total=4))
            value = engine.execute(self._join(), optimize=False, mode=mode)
            runs.append((list(iter_collection(value)), engine))
        for policy in (None, ChunkPolicy(max_chunk=1)):
            engine = KleisliEngine()
            engine.register_driver(BiDriver(outer_total=10, inner_total=4))
            assert engine.compiled_chunked(self._join()).fully_chunked
            runs.append((list(engine.stream(self._join(), optimize=False,
                                            chunk_policy=policy)), engine))
        expected = [{"o": o, "i": i} for o in range(10) for i in range(4) if i < o]
        for values, engine in runs:
            assert [record.to_dict() for record in values] == expected
            stats = engine.last_eval_statistics
            assert stats.scan_requests == 2  # the outer, the inner once
            # Both scans, the outer loop, and the inner rows once per outer row.
            assert stats.elements_fetched == 10 + 4 + 10 + 10 * 4
            assert engine.drivers["bi"].open_cursors == {"outer": 0, "inner": 0}

    def test_early_close_releases_both_cursors(self):
        from repro.core.nrc.eval import EvalScope

        engine = KleisliEngine()
        driver = engine.register_driver(BiDriver(outer_total=10, inner_total=4))
        stream = engine.stream(self._join(), optimize=False)
        assert next(stream).to_dict() == {"o": 1, "i": 0}
        assert driver.open_cursors["outer"] == 1
        assert driver.produced["outer"] <= 3, "pulled past the ramp's second chunk"
        stream.close()
        assert driver.open_cursors == {"outer": 0, "inner": 0}
        assert EvalScope.live_count() == 0


class TestChunkedEarlyClose:
    """The chunked lowering buffers elements (ramping chunks: 1, 2, 4, ...);
    abandoning the stream mid-chunk must still release every cursor through
    the EvalScope — including cursors whose elements sit buffered but
    unconsumed in the current chunk — and must never have pulled the source
    beyond the chunk being read."""

    def test_ramping_chunk_early_close_releases_the_source_cursor(self):
        engine = KleisliEngine()
        driver = engine.register_driver(CursorDriver(total=100))
        stream = engine.stream(_scan_comprehension(), optimize=False,
                               mode="compiled")
        # Consume 2 elements: the ramp has pulled chunks [0] and [1, 2], so
        # element 2 is buffered in the current chunk but not yet consumed.
        assert next(stream) == 0
        assert next(stream) == 1
        assert driver.open_cursors == 1
        assert driver.produced <= 3, \
            f"ramp pulled {driver.produced} elements for 2 consumed"
        stream.close()
        assert driver.open_cursors == 0, \
            "cursor left open behind a buffered-but-unconsumed chunk element"

    def test_ramping_chunk_early_close_releases_body_cursors(self):
        """Same guarantee for *body-level* cursors: the batched body fetch
        registers every chunk result with the scope up front, so closing
        mid-chunk reaches cursors downstream never even started."""
        engine = KleisliEngine()
        driver = engine.register_driver(BiDriver(outer_total=50, inner_total=50))
        stream = engine.stream(_nested_scan_comprehension(), optimize=False,
                               mode="compiled")
        for _ in range(3):
            next(stream)
        assert driver.open_cursors["inner"] == 1
        stream.close()
        assert driver.open_cursors == {"outer": 0, "inner": 0}, \
            "body-level cursor left open after closing a chunked stream"

    def test_chunked_stream_does_not_outrun_the_ramp(self):
        """No lookahead beyond the chunk boundary: closing after 3 elements
        has pulled at most the chunks containing them (1 + 2 + started 4)."""
        engine = KleisliEngine()
        driver = engine.register_driver(CursorDriver(total=100))
        stream = engine.stream(_scan_comprehension(), optimize=False,
                               mode="compiled")
        for _ in range(3):
            next(stream)
        stream.close()
        assert driver.produced <= 1 + 2 + 4, \
            f"chunked stream drained {driver.produced} elements eagerly"

    def test_exception_mid_chunk_releases_cursors(self):
        from repro.core.errors import EvaluationError

        engine = KleisliEngine()
        driver = engine.register_driver(CursorDriver(total=100))
        expr = B.ext(
            "x",
            B.if_then_else(B.prim("lt", B.var("x"), B.const(3)),
                           B.singleton(B.var("x")),
                           B.singleton(B.project(B.var("x"), "boom"))),
            A.Scan("cursors", {"table": "t"}))
        stream = engine.stream(expr, optimize=False, mode="compiled")
        with pytest.raises(EvaluationError):
            for _ in range(10):
                next(stream)
        assert driver.open_cursors == 0, \
            "cursor left open after a failing chunked pipeline stage"


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestSchedulerWorkerCleanup:
    def test_no_scheduler_threads_survive_early_close(self, mode,
                                                      threads_besides_workers):
        """A ParallelExt body hands tasks to the engine's workers per element;
        closing mid-stream must leave none busy and start no other thread
        (a window waits for its tasks in flight)."""
        engine = KleisliEngine()
        inner = ParallelExt(
            "y", B.singleton(B.prim("add", B.var("y"), B.var("x"))),
            A.Const(from_python([10, 20, 30], list_as="set")),
            kind="set", max_workers=3)
        expr = B.ext("x", inner, A.Const(CSet(range(50))))
        baseline = threads_besides_workers()
        stream = engine.stream(expr, optimize=False, mode=mode)
        for _ in range(4):
            next(stream)
        stream.close()
        assert threads_besides_workers(engine) == baseline, "threads leaked"


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestExceptionMidStream:
    """A pipeline stage *raising* mid-stream must release every cursor via
    the evaluation scope — the exception path, not just exhaustion or an
    early close — in both execution modes."""

    def test_failing_body_closes_the_source_cursor(self, mode):
        from repro.core.errors import EvaluationError

        engine = KleisliEngine()
        driver = engine.register_driver(CursorDriver(total=100))
        # The body succeeds for x < 3, then projects a field off an int.
        expr = B.ext(
            "x",
            B.if_then_else(B.prim("lt", B.var("x"), B.const(3)),
                           B.singleton(B.var("x")),
                           B.singleton(B.project(B.var("x"), "boom"))),
            A.Scan("cursors", {"table": "t"}))
        stream = engine.stream(expr, optimize=False, mode=mode)
        assert [next(stream) for _ in range(3)] == [0, 1, 2]
        assert driver.open_cursors == 1
        with pytest.raises(EvaluationError):
            next(stream)
        assert driver.open_cursors == 0, \
            "source cursor left open after a failing pipeline stage"

    def test_failing_body_closes_body_level_cursors(self, mode):
        """The failure happens while a *body-level* scan is mid-consumption:
        the scope must reach that cursor too, not only the source's."""
        from repro.core.errors import EvaluationError

        engine = KleisliEngine()
        driver = engine.register_driver(BiDriver())
        inner = B.ext(
            "y",
            B.if_then_else(B.prim("lt", B.var("y"), B.const(2)),
                           B.singleton(B.var("y"), "list"),
                           B.singleton(B.project(B.var("y"), "boom"), "list")),
            A.Scan("bi", {"table": "inner"}, args={"base": B.var("x")},
                   kind="list"),
            kind="list")
        expr = B.ext("x", inner, A.Scan("bi", {"table": "outer"}, kind="list"),
                     kind="list")
        stream = engine.stream(expr, optimize=False, mode=mode)
        with pytest.raises(EvaluationError):
            # Compiled mode pipelines the body, so the elements before the
            # failure arrive first; interpreted mode materializes the body
            # per outer element and fails on the first next() instead.
            assert next(stream) == 0
            list(stream)
        assert driver.open_cursors == {"outer": 0, "inner": 0}, \
            "cursors left open after a failing body stage"

    def test_injected_driver_fault_midstream_releases_cursors(self, mode):
        """The shared fault harness (``fault_drivers``): a driver whose
        cursor *itself* raises mid-production must still end with zero open
        cursors — the scope releases what the failure interrupted."""
        from repro.core.errors import DriverError
        from fault_drivers import FaultInjectingDriver

        engine = KleisliEngine()
        driver = engine.register_driver(
            FaultInjectingDriver(total=50, midstream_fail_on={1},
                                 midstream_after=3))
        expr = B.ext("x", B.singleton(B.var("x")),
                     A.Scan("Faulty", {"table": "t", "count": 50}))
        stream = engine.stream(expr, optimize=False, mode=mode)
        with pytest.raises(DriverError, match="mid-stream"):
            for _ in range(10):
                next(stream)
        assert driver.open_cursors == 0, \
            "cursor left open after an injected mid-stream driver fault"
        assert driver.faults_raised == 1

    def test_injected_dead_source_fails_cleanly(self, mode):
        """A request that dies before producing anything (``fail_on``) must
        surface the DriverError without leaking scheduler state; the next
        request on the same engine succeeds."""
        from repro.core.errors import DriverError
        from fault_drivers import FaultInjectingDriver

        engine = KleisliEngine()
        driver = engine.register_driver(FaultInjectingDriver(fail_on={1}))
        expr = B.ext("x", B.singleton(B.var("x")),
                     A.Scan("Faulty", {"table": "t", "count": 5}))
        with pytest.raises(DriverError, match="injected failure"):
            list(engine.stream(expr, optimize=False, mode=mode))
        assert driver.open_cursors == 0
        # The fault poisons nothing: the very next run drains fine.
        assert list(engine.stream(expr, optimize=False, mode=mode)) == \
            list(range(5))

    def test_failing_join_condition_closes_the_probe_cursor(self, mode):
        """The pinned join-condition error (non-boolean) must also release
        the streamed probe side's cursor."""
        from repro.core.errors import EvaluationError
        from repro.core.values import CList

        engine = KleisliEngine()
        driver = engine.register_driver(CursorDriver(total=100))
        expr = B.ext("o", B.ext("i", B.if_then_else(
            B.const(1),  # truthy non-boolean: raises on first pair
            B.singleton(B.var("o"), "list"), B.empty("list")), B.var("INNER"), "list"),
            A.Scan("cursors", {"table": "t"}, kind="list"), "list")
        with pytest.raises(EvaluationError, match="condition must be a boolean"):
            list(engine.stream(expr, {"INNER": CList([1])},
                               optimize=False, mode=mode))
        assert driver.open_cursors == 0
