"""E6 — local join operators: naive nested loop vs blocked vs indexed blocked nested loop.

Paper claim (Section 4): for joins that cannot be pushed to a server, Kleisli
adds a blocked nested-loop join and an indexed blocked nested-loop join (index
built on the fly), with a rule set that decides which to apply (the indexed
join needs an equality key).

The benchmark joins two in-memory collections of increasing size with the
un-rewritten nested loop, the blocked join and the indexed join, and reports
times and the crossover behaviour.
"""

import time

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalContext, Environment, Evaluator
from repro.core.optimizer.joins import make_join_rule_set
from repro.core.values import CSet, Record

from conftest import report

SIZES = [(200, 200), (1000, 1000), (3000, 3000)]


def _data(outer_size, inner_size):
    outer = CSet([Record({"id": i, "symbol": f"D22S{i}"}) for i in range(outer_size)])
    inner = CSet([Record({"ref": i % (outer_size // 2 or 1), "value": i})
                  for i in range(inner_size)])
    return {"OUTER": outer, "INNER": inner}


def _nested_loop_expr():
    condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
    head = B.record(symbol=B.project(B.var("o"), "symbol"),
                    value=B.project(B.var("i"), "value"))
    inner = B.ext("i", B.if_then_else(condition, B.singleton(head), B.empty()), B.var("INNER"))
    return B.ext("o", inner, B.var("OUTER"))


def _join_expr(method):
    expr = make_join_rule_set(minimum_inner_size=0).apply(_nested_loop_expr())
    assert isinstance(expr, A.Join)
    if method == "blocked":
        return A.Join("blocked", expr.outer_var, expr.outer, expr.inner_var, expr.inner,
                      B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref")),
                      expr.body, None, None, expr.kind)
    return expr


def _evaluate(expr, data):
    return Evaluator(EvalContext()).evaluate(expr, Environment(dict(data)))


def _timed(expr, data):
    started = time.perf_counter()
    value = _evaluate(expr, data)
    return time.perf_counter() - started, value


@pytest.mark.parametrize("sizes", SIZES[:2], ids=lambda s: f"{s[0]}x{s[1]}")
def test_indexed_join(benchmark, sizes):
    data = _data(*sizes)
    expr = _join_expr("indexed")
    benchmark(_evaluate, expr, data)


@pytest.mark.parametrize("sizes", SIZES[:1], ids=lambda s: f"{s[0]}x{s[1]}")
def test_naive_nested_loop(benchmark, sizes):
    data = _data(*sizes)
    expr = _nested_loop_expr()
    benchmark(_evaluate, expr, data)


def test_e6_report():
    rows = []
    for outer_size, inner_size in SIZES:
        data = _data(outer_size, inner_size)
        naive_time, naive_value = _timed(_nested_loop_expr(), data)
        blocked_time, blocked_value = _timed(_join_expr("blocked"), data)
        indexed_time, indexed_value = _timed(_join_expr("indexed"), data)
        assert naive_value == blocked_value == indexed_value
        rows.append([f"{outer_size}x{inner_size}",
                     f"{naive_time * 1000:.0f} ms",
                     f"{blocked_time * 1000:.0f} ms",
                     f"{indexed_time * 1000:.0f} ms",
                     f"{naive_time / indexed_time:.1f}x"])
    report("E6: local joins — naive nested loop vs blocked vs indexed blocked nested loop",
           rows, ["outer x inner", "naive", "blocked", "indexed", "naive/indexed"])
    # The indexed join must win by a growing factor as inputs grow.
    assert float(rows[-1][4].rstrip("x")) > float(rows[0][4].rstrip("x"))
