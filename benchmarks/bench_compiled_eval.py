"""E9 — compile-to-closures backend vs the tree-walking interpreter.

The paper's Kleisli compiles CPL/NRC to an executable form; this benchmark
measures what that buys over node-by-node interpretation on the two
interpreter-bound workloads from the earlier experiments:

* **local joins** (E6's data): the un-rewritten nested-loop comprehension and
  the loop over a probe of an on-the-fly index the optimizer makes of it;
* **rewrite-heavy queries** (E2's data): the producer/consumer query raw and
  after monadic fusion.

Each workload is evaluated with the same optimized NRC term under both
execution modes (best of three runs), values are asserted equal, and the
report prints the speed-up.  The acceptance bar is >= 2x on both headline
workloads.

A ``BENCH_compiled.json`` summary is written next to this file in the same
sectioned format as ``BENCH_streaming.json``; CI uploads both as workflow
artifacts so speed-ups can be diffed across runs.
"""

import os
import time

from repro.bio.publications import build_publications
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc import builder as B
from repro.core.nrc.compile import compile_term
from repro.core.nrc.eval import EvalContext, Environment, Evaluator
from repro.core.nrc.rules_monadic import monadic_rule_set
from repro.core.optimizer.caching import make_caching_rule_set
from repro.core.values import CSet, Record

from conftest import report, update_summary

PRODUCER_CONSUMER = (
    r"{x.title | \x <- {[title = p.title, authors = p.authors, abstract = p.abstract,"
    r" keywords = p.keywd] | \p <- DB}}")

REPS = 3

#: The asserted floor for the headline speed-ups.  Locally the observed
#: margin is ~2.6-8x; CI sets this lower so a noisy shared runner cannot
#: fail an unrelated PR on wall-clock variance.
MIN_SPEEDUP = float(os.environ.get("BENCH_COMPILED_MIN_SPEEDUP", "2.0"))


def _timed_pair(expr, bindings, reps=REPS):
    """Best-of-``reps`` evaluation time under each mode; values must agree."""
    environment = Environment(dict(bindings))
    compiled = compile_term(expr)
    interp_time = compiled_time = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        interp_value = Evaluator(EvalContext()).evaluate(expr, environment)
        interp_time = min(interp_time, time.perf_counter() - started)
        started = time.perf_counter()
        compiled_value = compiled(environment, EvalContext())
        compiled_time = min(compiled_time, time.perf_counter() - started)
        assert interp_value == compiled_value
    return interp_time, compiled_time


def _join_workloads(outer_size, inner_size):
    outer = CSet([Record({"id": i, "symbol": f"D22S{i}"}) for i in range(outer_size)])
    inner = CSet([Record({"ref": i % (outer_size // 2 or 1), "value": i})
                  for i in range(inner_size)])
    bindings = {"OUTER": outer, "INNER": inner}
    condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
    head = B.record(symbol=B.project(B.var("o"), "symbol"),
                    value=B.project(B.var("i"), "value"))
    nested = B.ext("o", B.ext("i", B.if_then_else(condition, B.singleton(head),
                                                  B.empty()), B.var("INNER")),
                   B.var("OUTER"))
    indexed = make_caching_rule_set().apply(nested)
    assert "probe(cached(index(INNER by" in indexed.pretty()
    return bindings, nested, indexed


def test_e9_report():
    rows = []
    speedups = {}
    timings = {}

    # Workload 1: local joins (interpreter-bound inner loops).
    bindings, nested, indexed = _join_workloads(600, 600)
    for label, expr in [("nested-loop join 600x600", nested),
                        ("indexed join 600x600", indexed)]:
        interp_time, compiled_time = _timed_pair(expr, bindings)
        speedups[label] = interp_time / compiled_time
        timings[label] = (interp_time, compiled_time)
        rows.append([label, f"{interp_time * 1000:.1f} ms",
                     f"{compiled_time * 1000:.1f} ms",
                     f"{speedups[label]:.2f}x"])

    # Workload 2: rewrite-heavy query over publications.
    db = build_publications(4000)
    raw = desugar_expression(parse_expression(PRODUCER_CONSUMER))
    fused = monadic_rule_set().apply(raw)
    for label, expr in [("producer/consumer raw", raw),
                        ("producer/consumer fused", fused)]:
        interp_time, compiled_time = _timed_pair(expr, {"DB": db})
        speedups[label] = interp_time / compiled_time
        timings[label] = (interp_time, compiled_time)
        rows.append([label, f"{interp_time * 1000:.1f} ms",
                     f"{compiled_time * 1000:.1f} ms",
                     f"{speedups[label]:.2f}x"])

    report("E9: closure compiler vs interpreter (same optimized NRC term)",
           rows, ["workload", "interpreted", "compiled", "speed-up"])

    def section(*labels):
        return {
            label: {
                "interpreted_s": timings[label][0],
                "compiled_s": timings[label][1],
                "speedup": speedups[label],
            } for label in labels
        }

    update_summary("BENCH_compiled.json", "local_joins",
                   section("nested-loop join 600x600", "indexed join 600x600"))
    update_summary("BENCH_compiled.json", "producer_consumer",
                   section("producer/consumer raw", "producer/consumer fused"))

    # Acceptance: >= 2x (locally) on both interpreter-bound workload families.
    assert speedups["nested-loop join 600x600"] >= MIN_SPEEDUP, speedups
    assert speedups["producer/consumer fused"] >= MIN_SPEEDUP, speedups


def test_compile_time_is_amortised():
    """Compilation is a one-off cost well under a single interpreted run."""
    db = build_publications(2000)
    expr = monadic_rule_set().apply(
        desugar_expression(parse_expression(PRODUCER_CONSUMER)))
    environment = Environment({"DB": db})
    started = time.perf_counter()
    compiled = compile_term(expr)
    compile_time = time.perf_counter() - started
    started = time.perf_counter()
    Evaluator(EvalContext()).evaluate(expr, environment)
    interp_time = time.perf_counter() - started
    compiled(environment, EvalContext())
    update_summary("BENCH_compiled.json", "compile_amortisation", {
        "compile_time_s": compile_time,
        "one_interpreted_run_s": interp_time,
        "amortised_after_runs": compile_time / interp_time
        if interp_time > 0 else 0.0,
    })
    assert compile_time < interp_time, (compile_time, interp_time)
