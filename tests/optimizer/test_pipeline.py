"""Tests for the staged optimizer pipeline and its ablation switches."""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer import (
    OptimizerConfig,
    OptimizerPipeline,
    ScanSpec,
)
from repro.core.values import CSet


@pytest.fixture()
def pipeline():
    registry = {"GDB-Tab": ScanSpec("GDB", {}, argument_key="table")}
    capabilities = {"GDB": frozenset({"sql"}), "GenBank": frozenset({"path", "index-select"})}
    return OptimizerPipeline(function_registry=registry, capabilities=capabilities)


class TestPipeline:
    def test_stages_compose(self, pipeline):
        # A bare-projection head cannot be expressed as a SQL result relation
        # (SQL returns records, CPL wants a set of strings), so the whole block
        # is not collapsed — but the projection IS pushed as a column list.
        expr = B.ext("x", B.singleton(B.project(B.var("x"), "locus_symbol")),
                     B.apply(B.var("GDB-Tab"), B.const("locus")))
        optimized = pipeline.optimize(expr)
        assert isinstance(optimized, A.Ext)
        assert isinstance(optimized.source, A.Scan)
        assert optimized.source.request["columns"] == ["locus_symbol"]

    def test_record_head_collapses_to_single_query(self, pipeline):
        expr = B.ext("x", B.singleton(B.record(sym=B.project(B.var("x"), "locus_symbol"))),
                     B.apply(B.var("GDB-Tab"), B.const("locus")))
        optimized = pipeline.optimize(expr)
        assert isinstance(optimized, A.Scan)
        assert "select" in optimized.request["query"]

    def test_disabled_config_is_identity_on_driverless_terms(self):
        pipeline = OptimizerPipeline(config=OptimizerConfig.disabled())
        expr = B.ext("x", B.singleton(B.var("x")), B.var("S"))
        assert pipeline.optimize(expr) == expr

    def test_monadic_only_config(self):
        pipeline = OptimizerPipeline(config=OptimizerConfig(
            sql_pushdown=False, path_pushdown=False, local_joins=False,
            caching=False, parallelism=False))
        inner = B.ext("y", B.singleton(B.var("y")), B.var("S"))
        outer = B.ext("x", B.singleton(B.var("x")), inner)
        optimized = pipeline.optimize(outer)
        assert isinstance(optimized, A.Ext)
        assert isinstance(optimized.source, A.Var)

    def test_explain_produces_stage_traces(self, pipeline):
        expr = B.apply(B.var("GDB-Tab"), B.const("locus"))
        _, stats, traces = pipeline.explain(expr)
        assert any(name == "introduction" for name, _ in traces)
        assert stats.fired("driver-introduction") == 1

    def test_rebuild_picks_up_new_registry(self, pipeline):
        pipeline.function_registry["NewFn"] = ScanSpec("GDB", {"table": "locus"})
        pipeline.rebuild()
        optimized = pipeline.optimize(B.apply(B.var("NewFn"), B.const(None)))
        assert isinstance(optimized, A.Scan)


class TestPrepare:
    def test_compile_rewrites_then_lowers_to_closures(self):
        from repro.core.nrc.compile import CompiledQuery
        from repro.core.nrc.eval import EvalContext, Environment
        from repro.kleisli.engine import KleisliEngine

        engine = KleisliEngine()
        expr = B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(1))),
                     B.ext("y", B.singleton(B.var("y")), B.var("S")))
        optimized = engine.compile(expr)
        compiled = engine.compiled_query(optimized)
        assert isinstance(compiled, CompiledQuery)
        # The compiler saw the post-rewrite term (fused: one loop, not two).
        assert compiled.expr is optimized
        assert isinstance(optimized, A.Ext) and not isinstance(optimized.source, A.Ext)
        context = EvalContext()
        value = compiled(Environment({"S": CSet([1, 2, 3])}), context)
        assert value == CSet([2, 3, 4])
        assert context.statistics.ext_iterations == 3
