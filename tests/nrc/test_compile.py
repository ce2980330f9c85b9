"""Unit tests for the compile-to-closures backend and its engine wiring."""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc import compile as C
from repro.core.nrc.compile import CompiledQuery, ExecutionMode, compile_term
from repro.core.nrc.eval import EvalContext, Environment, Evaluator
from repro.core.errors import EvaluationError, NRCError, TermTooDeepError
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CBag, CList, CSet, Record, from_python
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session


class TestCompileBasics:
    def test_every_core_node_has_a_native_compiler(self):
        supported = C.supported_node_types()
        for name in ["Const", "Var", "Lam", "Apply", "RecordExpr", "Project",
                     "VariantExpr", "Case", "Empty", "Singleton", "Union",
                     "Ext", "Fold", "IfThenElse", "PrimCall", "Let", "Deref",
                     "Scan", "Cached", "ParallelExt"]:
            assert name in supported
        assert "Join" not in supported

    def test_simple_arithmetic(self):
        term = B.prim("add", B.const(40), B.const(2))
        assert compile_term(term)() == 42

    def test_free_variables_read_from_environment(self):
        query = compile_term(B.prim("mul", B.var("x"), B.var("y")))
        assert query.free_names == ("x", "y")
        assert query(Environment({"x": 6, "y": 7})) == 42

    def test_collection_kinds_are_preserved(self):
        for kind, cls in [("set", CSet), ("bag", CBag), ("list", CList)]:
            term = B.ext("x", B.singleton(B.var("x"), kind),
                         A.Const(from_python([3, 1, 2], list_as=kind)), kind)
            value = compile_term(term)()
            assert isinstance(value, cls)

    def test_compiled_record_uses_interned_directory(self):
        term = B.record(b=B.const(2), a=B.const(1))
        value = compile_term(term)()
        assert value == Record({"a": 1, "b": 2})
        assert value.directory is Record({"a": 9, "b": 9}).directory

    def test_statistics_count_iterations(self):
        term = B.ext("x", B.singleton(B.var("x")), A.Const(CSet(range(7))))
        context = EvalContext()
        compile_term(term)(context=context)
        assert context.statistics.ext_iterations == 7
        assert context.statistics.elements_fetched == 7

    def test_fold_sees_let_bindings_of_the_compiled_frame(self):
        plus = B.lam("a", B.lam("b", B.prim("add", B.var("a"), B.var("b"))))
        term = B.let("base", B.const(100),
                     B.fold(plus, B.var("base"), A.Const(CSet([1, 2, 3]))))
        context = EvalContext()
        assert compile_term(term)(context=context) == 106
        assert context.statistics.fold_iterations == 3


class TestEveryNodeTypeIsLowered:
    def test_every_expr_subclass_the_program_defines_has_a_compiler(self):
        """The lowering has no interpreter hand-off, so every node type in
        ``repro`` must be registered (test-defined subclasses aside)."""
        import repro.core.optimizer  # noqa: F401 - registers ParallelExt

        def subclasses(cls):
            for subclass in cls.__subclasses__():
                yield subclass
                yield from subclasses(subclass)

        defined = [cls for cls in subclasses(A.Expr)
                   if cls.__module__.startswith("repro.")]
        assert {A.Fold, A.BindScan, ParallelExt} <= set(defined)
        missing = [cls.__name__ for cls in defined if cls not in C._COMPILERS]
        assert missing == []

    def test_interpreter_closures_cross_into_compiled_apply(self):
        interpreted_closure = Evaluator().evaluate(
            B.lam("x", B.prim("add", B.var("x"), B.const(1))))
        query = compile_term(B.apply(B.var("f"), B.const(41)))
        assert query(Environment({"f": interpreted_closure})) == 42


class TestOverDeepTerms:
    """A term nested past what the recursive walks can take is a typed
    error on every entry point, never a bare ``RecursionError``."""

    @pytest.fixture(scope="class")
    def deep(self):
        term = B.singleton(B.const(0))
        for i in range(3000):
            term = A.Union(B.singleton(B.const(i)), term, "set")
        return term

    @pytest.mark.parametrize("run", [
        lambda term: C.term_fingerprint(term),
        lambda term: C.compile_term(term),
        lambda term: C.compile_chunked(term),
        lambda term: KleisliEngine().execute(term),
        lambda term: KleisliEngine().execute(term, optimize=False),
        lambda term: list(KleisliEngine().stream(term)),
        lambda term: list(KleisliEngine().stream(term, optimize=False)),
        lambda term: KleisliEngine().execute(term, optimize=False, mode="interpret"),
        lambda term: list(KleisliEngine().stream(term, optimize=False,
                                                 mode="interpret")),
        # The interpreter's pipelined path evaluates a top-level loop's
        # source and body itself.
        lambda term: list(KleisliEngine().stream(
            B.ext("x", B.singleton(B.var("x")), term), optimize=False,
            mode="interpret")),
        lambda term: list(KleisliEngine().stream(
            B.ext("x", term, B.singleton(B.const(1))), optimize=False,
            mode="interpret")),
    ], ids=["term_fingerprint", "compile_term", "compile_chunked", "execute",
            "execute unoptimized", "stream", "stream unoptimized",
            "execute interpreted", "stream interpreted",
            "stream interpreted, loop source",
            "stream interpreted, loop body"])
    def test_typed_error(self, deep, run):
        with pytest.raises(TermTooDeepError, match="nests too deeply"):
            run(deep)

    def test_over_nested_text_is_a_syntax_error(self):
        from repro.core.cpl.parser import parse, parse_expression
        from repro.core.errors import CPLSyntaxError

        text = "{" * 100 + "1" + "}" * 100
        for run in (parse_expression, parse,
                    lambda source: Session().query(source)):
            with pytest.raises(CPLSyntaxError, match="nests too deeply"):
                run(text)

    def test_the_engine_survives_and_runs_the_next_query(self, deep):
        engine = KleisliEngine()
        with pytest.raises(NRCError):
            engine.execute(deep)
        assert engine.execute(B.singleton(B.const(1))) == CSet([1])


class TestParallelExtCompiled:
    def test_parallel_ext_compiles_natively_and_agrees(self):
        term = ParallelExt("x", B.singleton(B.prim("mul", B.var("x"), B.const(3))),
                           A.Const(CSet([1, 2, 3, 4])), kind="set", max_workers=2)
        query = compile_term(term)
        context = EvalContext()
        assert query(context=context) == CSet([3, 6, 9, 12])
        assert context.statistics.ext_iterations == 4


class TestFingerprintExtSubclasses:
    def test_parallel_ext_scheduler_settings_are_in_the_fingerprint(self):
        from repro.core.nrc.compile import term_fingerprint

        source = A.Const(CSet([1, 2]))
        body = B.singleton(B.var("x"))
        two = ParallelExt("x", body, source, max_workers=2)
        five = ParallelExt("x", body, source, max_workers=5)
        assert term_fingerprint(two) != term_fingerprint(five)

    def test_registered_subclass_without_extras_is_identity_keyed(self, monkeypatch):
        """A registered Ext subclass that does not declare fingerprint_extras
        may bake in parameters the fingerprint cannot see — key by identity
        so structurally-equal terms never share a compiled query."""
        from repro.core.nrc.compile import term_fingerprint

        class StepExt(A.Ext):
            __slots__ = ("step",)

            def __init__(self, var, body, source, kind="set", step=1):
                super().__init__(var, body, source, kind)
                self.step = step

        def compile_step(expr, scope, state):
            source_fn = C._compile(expr.source, scope, state)
            body_fn = C._compile(expr.body, scope + (expr.var,), state)

            def run(frame, context):
                items = list(source_fn(frame, context))[::expr.step]
                out = []
                for item in items:
                    out.extend(body_fn(frame + [item], context))
                from repro.core.values import make_collection
                return make_collection(expr.kind, out)

            return run

        monkeypatch.setitem(C._COMPILERS, StepExt, compile_step)
        source = A.Const(CList([1, 2, 3, 4]))
        body = B.singleton(B.var("x"), "list")
        one = StepExt("x", body, source, kind="list", step=1)
        two = StepExt("x", body, source, kind="list", step=2)
        assert one == two  # _key() does not include step
        assert term_fingerprint(one) != term_fingerprint(two)
        engine = KleisliEngine()
        assert engine.execute(one, optimize=False) == CList([1, 2, 3, 4])
        assert engine.execute(two, optimize=False) == CList([1, 3])


class TestEngineModes:
    def test_execute_modes_agree_and_report_mode(self):
        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(1))),
                     A.Const(CSet(range(10))))
        compiled_value = engine.execute(term, mode="compiled")
        assert engine.last_eval_statistics.execution_mode == "compiled"
        interpreted_value = engine.execute(term, mode="interpret")
        assert engine.last_eval_statistics.execution_mode == "interpreted"
        assert compiled_value == interpreted_value

    def test_default_mode_is_compiled(self):
        engine = KleisliEngine()
        assert engine.execution_mode is ExecutionMode.COMPILED
        engine.execute(B.const(1))
        assert engine.last_eval_statistics.execution_mode == "compiled"

    def test_a_fold_runs_compiled_and_counts_no_fallback(self):
        """``compiled_fallbacks`` is kept for the trace's sum and reads 0:
        every node type has a lowering."""
        engine = KleisliEngine()
        plus = B.lam("a", B.lam("b", B.prim("add", B.var("a"), B.var("b"))))
        term = B.fold(plus, B.const(0), A.Const(CSet([1, 2, 3])))
        assert engine.execute(term, optimize=False) == 6
        stats = engine.last_eval_statistics
        assert stats.execution_mode == "compiled"
        assert stats.compiled_fallbacks == 0
        assert stats.fold_iterations == 3

    def test_compiled_queries_are_memoized(self):
        engine = KleisliEngine()
        term = B.prim("add", B.const(1), B.const(2))
        engine.compiled_query(term)  # a first lowering is not kept
        assert engine.compiled_query(term) is engine.compiled_query(
            B.prim("add", B.const(1), B.const(2)))

    def test_equal_cached_nodes_with_different_keys_do_not_share_a_query(self):
        """Cached.__eq__ ignores the cache key (rewrite-fixpoint detection
        needs that), but the compiled closure bakes the key in — the memo must
        not conflate them, or one term would read the other's cache entry."""
        engine = KleisliEngine()
        first = A.Cached(B.var("X"), key="k1")
        second = A.Cached(B.var("X"), key="k2")
        assert first == second  # the structural-equality trap
        assert engine.compiled_query(first) is not engine.compiled_query(second)
        assert engine.execute(first, {"X": CSet([1])}, optimize=False) == CSet([1])
        assert engine.execute(second, {"X": CSet([2])}, optimize=False) == CSet([2])
        interpreted = engine.execute(second, {"X": CSet([2])}, optimize=False,
                                     mode="interpret")
        assert interpreted == CSet([2])

    def test_memo_distinguishes_literal_types(self):
        """Python's True == 1 == 1.0 makes Const(True)/Const(1) structurally
        equal; the memo must not hand one query the other's burned-in
        constant."""
        engine = KleisliEngine()
        assert A.Const(1) == A.Const(True)  # the equality trap
        assert engine.execute(A.Const(1), optimize=False) == 1
        value = engine.execute(A.Const(True), optimize=False)
        assert value is True
        assert engine.execute(A.Const(1.0), optimize=False) == 1.0
        assert isinstance(engine.execute(A.Const(1.0), optimize=False), float)

    def test_memo_distinguishes_literal_types_inside_a_collection(self):
        """The True == 1 trap one node down: equal ``Singleton`` terms
        around ``Const(1)`` and ``Const(True)`` keep their own queries."""
        engine = KleisliEngine()
        first = B.singleton(B.const(1))
        second = B.singleton(B.const(True))
        assert first == second  # the equality trap
        assert engine.execute(first, optimize=False) == CSet([1])
        value = engine.execute(second, optimize=False)
        assert next(iter(value)) is True

    def test_memo_hits_across_fresh_binder_names(self):
        """Re-desugaring the same query mints fresh variable names; the
        alpha-invariant fingerprint must still share one compiled query.
        (Two sessions: one session reuses the text's prepared form.)"""
        session = Session()
        other = Session(engine=session.engine)
        for each in (session, other):
            each.bind("DB", [1, 2, 3], list_as="set")
        first = session.query(r"{x + 1 | \x <- DB}")
        second = other.query(r"{x + 1 | \x <- DB}")
        assert first.value == second.value
        assert first.optimized != second.optimized  # fresh binders differ
        assert len(session.engine._compiled_queries) == 1

    def test_compiled_closure_applies_under_the_callers_context(self):
        """A closure escaping one run must charge statistics to (and resolve
        drivers through) the context of the run that applies it — like an
        interpreter Closure."""
        make_closure = compile_term(
            B.lam("x", B.ext("y", B.singleton(B.var("y")), B.var("x"))))
        creation_context = EvalContext()
        closure = make_closure(context=creation_context)
        applying_context = EvalContext()
        value = Evaluator(applying_context).apply_function(closure, CSet([1, 2, 3]))
        assert value == CSet([1, 2, 3])
        assert applying_context.statistics.ext_iterations == 3
        assert creation_context.statistics.ext_iterations == 0

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(EvaluationError):
            KleisliEngine(execution_mode="warp-speed")

    def test_stream_modes_yield_identical_elements(self):
        engine = KleisliEngine()
        term = A.Ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)), "list"),
                     A.Const(CList([3, 1, 2])), kind="list")
        compiled = list(engine.stream(term, optimize=False, mode="compiled"))
        assert engine.last_eval_statistics.execution_mode == "compiled"
        interpreted = list(engine.stream(term, optimize=False, mode="interpret"))
        assert engine.last_eval_statistics.execution_mode == "interpreted"
        assert compiled == interpreted == [6, 2, 4]


class TestSessionModes:
    def test_session_query_mode_override(self):
        session = Session()
        session.bind("DB", [1, 2, 3], list_as="set")
        compiled = session.query(r"{x + 1 | \x <- DB}")
        assert session.engine.last_eval_statistics.execution_mode == "compiled"
        interpreted = session.query(r"{x + 1 | \x <- DB}", mode="interpret")
        assert session.engine.last_eval_statistics.execution_mode == "interpreted"
        assert compiled.value == interpreted.value == CSet([2, 3, 4])

    def test_interpret_only_session(self):
        session = Session(execution_mode="interpret")
        session.bind("DB", [1, 2], list_as="set")
        session.query(r"{x | \x <- DB}")
        assert session.engine.last_eval_statistics.execution_mode == "interpreted"

    def test_explicit_engine_honours_session_execution_mode(self):
        """The mode is the session's default: its runs are interpreted, while
        the engine and a second session on it keep compiling."""
        engine = KleisliEngine()
        session = Session(engine=engine, execution_mode="interpret")
        other = Session(engine=engine)
        for each in (session, other):
            each.bind("DB", [1, 2], list_as="set")
        session.query(r"{x | \x <- DB}")
        assert engine.last_eval_statistics.execution_mode == "interpreted"
        list(session.stream(r"{x | \x <- DB}"))
        assert engine.last_eval_statistics.execution_mode == "interpreted"
        other.query(r"{x | \x <- DB}")
        assert engine.last_eval_statistics.execution_mode == "compiled"
        assert engine.execution_mode is ExecutionMode.COMPILED
        engine2 = KleisliEngine(execution_mode="interpret")
        Session(engine=engine2)  # no mode given: the engine's own is kept
        assert engine2.execution_mode is ExecutionMode.INTERPRET


class TestConstantFusion:
    """A literal operand is checked once, at compile time, whatever the other
    operand is: a projection of the loop variable (``g.pos > 4000``,
    ``h.len * 3``) takes the fused one-argument form, and its values and
    typed errors are the interpreter's."""

    OPS = ["add", "sub", "mul", "mod", "lt", "le", "gt", "ge", "eq", "neq"]
    FIELDS = [7, 2.5, 0, -3, True, "s", None, 2 ** 1100]
    LITERALS = [3, 0, 0.5, True, "s"]

    @staticmethod
    def _outcome(run):
        try:
            return ("value", list(run()))
        except Exception as error:  # class and message are the observable
            return ("raised", type(error).__name__, str(error))

    def test_a_projection_beside_a_literal_takes_the_fused_form(self):
        scope, state = ("g",), C._CompileState(0)
        pos = B.project(B.var("g"), "pos")
        for term in (B.prim("gt", pos, B.const(4000)),
                     B.prim("mul", B.const(3), pos)):
            kind, build = C._item_plan(term, scope, state, 0)
            assert (kind, build.__name__) == ("call", "build_fused")

    @pytest.mark.parametrize("op", OPS)
    def test_fused_operands_agree_with_the_interpreter(self, op):
        field = B.project(B.var("g"), "f")
        for literal in self.LITERALS:
            for body in (B.prim(op, field, B.const(literal)),
                         B.prim(op, B.const(literal), field)):
                for value in self.FIELDS:
                    term = B.ext("g", B.singleton(body, "list"), B.var("T"),
                                 kind="list")
                    bindings = {"T": CList([Record({"f": value})])}
                    expected = self._outcome(lambda: KleisliEngine().execute(
                        term, bindings, optimize=False, mode="interpret"))
                    assert self._outcome(lambda: KleisliEngine().execute(
                        term, bindings, optimize=False,
                        mode="compiled")) == expected, (op, literal, value)
                    assert self._outcome(lambda: KleisliEngine().stream(
                        term, bindings, optimize=False)) == expected, \
                        (op, literal, value)
