"""E2 / E3 — the monadic rewrite rules (vertical/horizontal fusion, filter promotion, R4).

Paper claims (Section 4): R1 removes intermediate collections; R2 replaces two
traversals of the same set by one; R3 hoists loop-invariant filters; R4 prunes
columns in intermediate data.  The benchmark measures evaluation time and the
evaluator's intermediate-data statistics for each query with the optimization
on and off, over Publication sets of increasing size.

Ablation: each case's baseline is the term as desugared, before the rule set
runs (the ``--no-nrc`` design question from DESIGN.md: fusion is applied on
NRC, the baseline skips it).
"""

import time

import pytest

from repro.bio.publications import build_publications
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalContext, Environment, Evaluator
from repro.core.nrc.rules_monadic import monadic_rule_set
from repro.core.values import CSet

from conftest import report

SIZES = [200, 1000, 4000]

# A producer/consumer query: the producer builds wide intermediate records, the
# consumer keeps one field.  R1+R4 fuse the loops and drop the extra columns.
PRODUCER_CONSUMER = (
    r"{x.title | \x <- {[title = p.title, authors = p.authors, abstract = p.abstract,"
    r" keywords = p.keywd] | \p <- DB}}")

# Two independent loops over the same set (R2), and a loop with an invariant filter (R3).
HORIZONTAL = None  # built as NRC below (union of two comprehensions)
FILTERED = r"{p.title | \p <- DB, threshold > 1988, p.year >= threshold}"


def _evaluate(expr, bindings):
    context = EvalContext()
    Evaluator(context).evaluate(expr, Environment(dict(bindings)))
    return context


def _timed(expr, bindings):
    started = time.perf_counter()
    context = _evaluate(expr, bindings)
    return time.perf_counter() - started, context


def _horizontal_expr():
    left = B.ext("x", B.singleton(B.project(B.var("x"), "title")), B.var("DB"))
    right = B.ext("x", B.singleton(B.project(B.var("x"), "abstract")), B.var("DB"))
    return B.union(left, right)


@pytest.mark.parametrize("size", SIZES)
def test_vertical_fusion_optimized(benchmark, size):
    db = build_publications(size)
    expr = monadic_rule_set().apply(desugar_expression(parse_expression(PRODUCER_CONSUMER)))
    benchmark(_evaluate, expr, {"DB": db})


@pytest.mark.parametrize("size", SIZES)
def test_vertical_fusion_baseline(benchmark, size):
    db = build_publications(size)
    expr = desugar_expression(parse_expression(PRODUCER_CONSUMER))
    benchmark(_evaluate, expr, {"DB": db})


def test_e2_e3_report():
    """Regenerates the E2/E3 comparison tables."""
    rows = []
    for size in SIZES:
        db = build_publications(size)
        raw = desugar_expression(parse_expression(PRODUCER_CONSUMER))
        fused = monadic_rule_set().apply(raw)
        baseline_time, baseline_ctx = _timed(raw, {"DB": db})
        fused_time, fused_ctx = _timed(fused, {"DB": db})
        rows.append([size, f"{baseline_time * 1000:.1f} ms", f"{fused_time * 1000:.1f} ms",
                     f"{baseline_time / fused_time:.2f}x",
                     baseline_ctx.statistics.ext_iterations,
                     fused_ctx.statistics.ext_iterations])
    report("E2: R1 vertical fusion + R4 projection reduction (producer/consumer query)",
           rows, ["publications", "unfused", "fused", "speed-up",
                  "iterations (unfused)", "iterations (fused)"])
    assert rows[-1][4] > rows[-1][5]  # fusion removes the intermediate loop

    rows = []
    for size in SIZES:
        db = build_publications(size)
        expr = _horizontal_expr()
        fused = monadic_rule_set().apply(expr)
        two_pass, two_ctx = _timed(expr, {"DB": db})
        one_pass, one_ctx = _timed(fused, {"DB": db})
        rows.append([size, f"{two_pass * 1000:.1f} ms", f"{one_pass * 1000:.1f} ms",
                     two_ctx.statistics.ext_iterations, one_ctx.statistics.ext_iterations])
    report("E3a: R2 horizontal fusion (two loops over the same set)",
           rows, ["publications", "two traversals", "one traversal",
                  "iterations (before)", "iterations (after)"])
    assert rows[-1][3] == 2 * rows[-1][4]

    rows = []
    for size in SIZES:
        db = build_publications(size)
        raw = desugar_expression(parse_expression(FILTERED))
        promoted = monadic_rule_set().apply(raw)
        bindings = {"DB": db, "threshold": 1900}   # filter false: promoted version skips the loop
        raw_time, _ = _timed(raw, bindings)
        promoted_time, promoted_ctx = _timed(promoted, bindings)
        rows.append([size, f"{raw_time * 1000:.2f} ms", f"{promoted_time * 1000:.2f} ms",
                     promoted_ctx.statistics.ext_iterations])
    report("E3b: R3 filter promotion (loop-invariant test hoisted out)",
           rows, ["publications", "filter inside", "filter hoisted", "iterations when false"])
    assert rows[-1][3] == 0
