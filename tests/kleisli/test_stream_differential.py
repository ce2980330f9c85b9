"""Differential streaming harness: ``stream`` must agree with ``execute``.

For every query shape the streaming backend pipelines — nested ``Ext``
chains, filtered comprehensions, unions, ``ParallelExt``, both local join plans —
and in both execution modes, ``engine.stream`` must yield exactly the element
sequence of ``engine.execute``'s result, and consume exactly as many source
elements (``EvalStatistics.elements_fetched``) once drained.

Set-kind shapes hold with *duplicate-producing* data too: set stages dedup
as they go, and ``CSet`` iterates in first-occurrence order, so the streamed
sequence equals iterating the eagerly built set.

Record heads (``[acc = a.acc, ...]``) are their own family of inputs: the
chunk lowering gathers their fields column-wise per source directory and a set
of them dedups on value tuples before any ``Record`` exists, so every shape
that can reach that kernel — and every one that must fall out of it — runs on
all paths above and, governed, under a budget and a spilled seen-set.
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer.caching import make_caching_rule_set
from repro.core.optimizer.joins import make_join_rule_set
from repro.core.optimizer.parallel import ParallelExt
from repro.core.errors import EvaluationError
from repro.core.nrc.compile import ChunkPolicy
from repro.core.values import CBag, CList, CSet, Record, Ref, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import ExecutionMode, KleisliEngine

MODES = [ExecutionMode.INTERPRET, ExecutionMode.COMPILED]


class RangeDriver(Driver):
    """Scans yield ``base .. base+count-1`` lazily through a generator."""

    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        base = int(request.get("base", 0))
        count = int(request.get("count", 5))

        def cursor():
            for i in range(base, base + count):
                yield i

        return cursor()


def _engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _join_loop(outer, inner, conditions, body, kind="set", inner_kind=None):
    """``U{ U{ if c.. then body | \\i <- inner } | \\o <- outer }``: the loop a
    local join is written as (the blocked plan, when ``inner`` is a value)."""
    for condition in reversed(conditions):
        body = B.if_then_else(condition, body, B.empty(inner_kind or kind))
    return B.ext("o", B.ext("i", body, inner, inner_kind or kind), outer, kind)


def _probe_plan(loop):
    """``loop`` as the optimizer's two local stages plan it: the key first,
    then a probe of an index built once (the indexed plan)."""
    plan = make_caching_rule_set().apply(make_join_rule_set().apply(loop))
    assert "probe(cached(index(" in plan.pretty()
    return plan


def _scan(base=0, count=5):
    request = {"table": "t", "count": count}
    args = {}
    if isinstance(base, A.Expr):
        # A computed base (e.g. the outer loop variable) is a scan argument,
        # evaluated before the request is issued.
        args["base"] = base
    else:
        request["base"] = base
    return A.Scan("ranges", request, args=args, kind="list")


def _head(var="a", *labels, **computed):
    fields = {label: B.project(B.var(var), label) for label in labels}
    fields.update(computed)
    return B.record(**fields)


def _heads_over(table, kind, *labels, var="a", **computed):
    return B.ext(var, B.singleton(_head(var, *labels, **computed), kind),
                 B.var(table), kind=kind)


class _Store:
    """Resolves every reference to one record."""

    def resolve(self, ref):
        return Record({"acc": f"ref{ref.identifier}", "org": "worm", "n": 0})


def _record_head_shapes():
    """Record heads: what the row kernel takes, and what must fall out of it."""
    organisms = ["human", "mouse", "rat"]
    # 3000 rows, 1500 distinct heads: enough to push a spilled seen-set to disk.
    table = CList([Record({"acc": f"U{i % 1500}", "org": organisms[i % 3],
                           "src": "TA", "n": i}) for i in range(3000)])
    other = CList([Record({"acc": f"U{i % 40}", "org": organisms[i % 3],
                           "n": i}) for i in range(0, 120, 2)])
    narrow = CList([Record({"acc": f"U{i % 7}", "org": "rat"}) for i in range(30)])
    mixed = CList([narrow[i] if i % 3 else other[i] for i in range(30)])
    with_refs = CList([other[0], Ref("Seq", 1, _Store()), other[1],
                       Ref("Seq", 1, _Store())])
    nan = float("nan")
    odd = CList([Record({"v": value, "w": 0}) for value in
                 (1, 1.0, True, nan, nan, float("nan"), 0, False, -0.0)])
    tables = {"T": table, "O": other, "N": narrow, "M": mixed, "R": with_refs,
              "ODD": odd}
    plus_one = B.prim("add", B.project(B.var("a"), "n"), B.const(1))
    shapes = [
        ("heads: homogeneous table, 50% duplicates",
         _heads_over("T", "set", "acc", "org")),
        ("heads: two directories interleaved in one chunk",
         _heads_over("M", "set", "acc", "org")),
        ("heads: a reference among the rows", _heads_over("R", "set", "acc", "org")),
        ("heads: one field", _heads_over("T", "set", "org")),
        ("heads: no fields", _heads_over("O", "set")),
        ("heads: computed beside projected",
         _heads_over("O", "list", "acc", "org", len=plus_one, tag=B.const("x"))),
        ("heads: the row itself as a field", _heads_over("N", "set", "acc", row=B.var("a"))),
        ("heads: 1, 1.0, True and shared vs distinct NaN", _heads_over("ODD", "set", "v")),
        ("heads: bag keeps duplicates", _heads_over("T", "bag", "acc", "org")),
        ("heads: list keeps duplicates", _heads_over("M", "list", "acc")),
        ("heads: filtered", B.ext("a", B.if_then_else(
            B.prim("gt", B.project(B.var("a"), "n"), B.const(50)),
            B.singleton(_head("a", "acc", "org")), B.empty()), B.var("O"))),
        ("heads: inner set of heads feeding an outer stage",
         B.ext("h", B.singleton(B.project(B.var("h"), "org")),
               _heads_over("O", "set", "acc", "org"))),
        ("heads: union chain on one directory (one tuple-keyed seen-set)",
         A.Union(_heads_over("T", "set", "acc", "org"),
                 A.Union(_heads_over("O", "set", "acc", "org", var="b"),
                         _heads_over("M", "set", "acc", "org", var="c"), "set"),
                 "set")),
        ("heads: union chain with an operand that is not a head",
         A.Union(_heads_over("O", "set", "acc", "org"),
                 A.Union(B.ext("b", B.singleton(B.var("b")), B.var("N")),
                         _heads_over("M", "set", "acc", "org", var="c"), "set"),
                 "set")),
        ("heads: union chain over two directories",
         A.Union(_heads_over("O", "set", "acc", "org"),
                 _heads_over("O", "set", "acc", var="b"), "set")),
    ]
    # A join whose body is a whole set-kind comprehension ending in a head
    # (fields off its own row and off the matched outer row): the body is a
    # chunk pipeline of its own, drained per matched pair.
    pair_body = _heads_over("N", "set", "acc", var="p",
                            org=B.project(B.var("o"), "org"))
    same_acc = (B.project(B.var("o"), "acc"), B.project(B.var("i"), "acc"))
    shapes += [
        ("heads: join body, indexed",
         _probe_plan(_join_loop(B.var("O"), B.var("N"), [B.eq(*same_acc)], pair_body))),
        ("heads: join body, blocked",
         _join_loop(B.var("O"), B.var("N"), [B.eq(*same_acc)], pair_body)),
    ]
    return [(label, expr, tables) for label, expr in shapes]


def _shapes():
    """(label, expr, bindings) triples covering the pipelined shapes."""
    xs = CList(range(4))
    records = CList([Record({"id": i, "tag": f"r{i}"}) for i in range(6)])
    refs = CList([Record({"ref": i % 3, "weight": i * 10}) for i in range(9)])

    shapes = []

    shapes.append((
        "flat scan comprehension",
        B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(3)), "list"),
              _scan(count=6), kind="list"),
        {},
    ))

    shapes.append((
        "nested ext over two scans (body scan depends on loop var)",
        B.ext("x",
              B.ext("y",
                    B.singleton(B.prim("add", B.prim("mul", B.var("x"), B.const(100)),
                                       B.var("y")), "list"),
                    _scan(count=3, base=B.var("x")), kind="list"),
              _scan(count=4), kind="list"),
        {},
    ))

    shapes.append((
        "filtered comprehension",
        B.ext("x",
              B.if_then_else(B.prim("gt", B.var("x"), B.const(2)),
                             B.singleton(B.var("x"), "list"),
                             B.empty("list")),
              _scan(count=8), kind="list"),
        {},
    ))

    shapes.append((
        "union of two comprehensions (list)",
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
            B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
                  _scan(count=3), kind="list"),
            "list"),
        {},
    ))

    shapes.append((
        "let over a bound collection",
        A.Let("k", B.const(7),
              B.ext("x", B.singleton(B.prim("add", B.var("x"), B.var("k")), "list"),
                    B.var("XS"), kind="list")),
        {"XS": xs},
    ))

    shapes.append((
        "parallel ext (bounded prefetch)",
        ParallelExt("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)), "list"),
                    _scan(count=7), kind="list", max_workers=3),
        {},
    ))

    shapes.append((
        "parallel ext nested inside an outer loop",
        B.ext("x",
              ParallelExt("y", B.singleton(B.prim("add", B.var("x"), B.var("y")),
                                           "list"),
                          A.Const(CList([100, 200, 300])), kind="list",
                          max_workers=2),
              A.Const(CList([1, 2])), kind="list"),
        {},
    ))

    condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
    head = B.record(tag=B.project(B.var("o"), "tag"),
                    weight=B.project(B.var("i"), "weight"))
    blocked = _join_loop(B.var("OUTER"), B.var("INNER"), [condition],
                         B.singleton(head))
    shapes.append(("indexed join (streamed probe side)", _probe_plan(blocked),
                   {"OUTER": records, "INNER": refs}))
    shapes.append(("blocked join (streamed probe side)", blocked,
                   {"OUTER": records, "INNER": refs}))

    # List kind: no dedup hides the emission order (outer-major).
    ordered = _join_loop(B.var("OUTER"), B.var("INNER"),
                         [B.prim("lt", B.project(B.var("o"), "id"),
                                 B.project(B.var("i"), "ref"))],
                         B.singleton(head, "list"), "list")
    shapes.append(("blocked join, list kind (outer-major order)",
                   ordered, {"OUTER": records, "INNER": refs}))

    shapes.append((
        "typed union of two scan chains (streams both operands)",
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=4), kind="list"),
            B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
                  _scan(count=4), kind="list"),
            "list"),
        {},
    ))

    shapes.append((
        "typed set union with cross-operand duplicates (shared seen-filter)",
        A.Union(
            B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
                  A.Const(CSet(range(5)))),
            B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(4))),
                  A.Const(CSet(range(6)))),
            "set"),
        {},
    ))

    shapes.append((
        "nested typed SET unions (one shared seen-filter, dupes everywhere)",
        A.Union(
            A.Union(
                B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
                      A.Const(CSet(range(7)))),
                B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(4))),
                      A.Const(CSet(range(6)))),
                "set"),
            B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(5))),
                  A.Const(CSet(range(9)))),
            "set"),
        {},
    ))

    shapes.append((
        "nested typed unions (three-way chain)",
        A.Union(
            A.Union(
                B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=2),
                      kind="list"),
                B.singleton(B.const(99), "list"),
                "list"),
            B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(7)), "list"),
                  _scan(count=2), kind="list"),
            "list"),
        {},
    ))

    shapes.append((
        "union with an unproven operand (eager fallback stays correct)",
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
            B.var("XS_LIST"),
            "list"),
        {"XS_LIST": CList([7, 8])},
    ))

    shapes.append((
        "scalar query (single-element stream)",
        B.prim("add", B.const(40), B.const(2)),
        {},
    ))

    shapes.append((
        "set-kind comprehension (duplicate-free)",
        B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.var("x"))),
              A.Const(CSet([1, 2, 3, 4]))),
        {},
    ))

    shapes.append((
        "set-kind comprehension producing duplicates (mod collapses them)",
        B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
              A.Const(CSet(range(10)))),
        {},
    ))

    shapes.append((
        "set-kind let-wrapped duplicate-producing comprehension",
        A.Let("v", B.const(2),
              B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.var("v"))),
                    A.Const(CSet([1, 2, 3, 4, 5])))),
        {},
    ))

    shapes.append((
        "set-kind parallel ext producing duplicates",
        ParallelExt("x", B.singleton(B.prim("mod", B.var("x"), B.const(4))),
                    A.Const(CSet(range(12))), kind="set", max_workers=3),
        {},
    ))

    return shapes + _record_head_shapes()


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_stream_matches_execute(mode, label, expr, bindings):
    engine = _engine()
    streamed = list(engine.stream(expr, bindings, optimize=False, mode=mode))
    stream_stats = engine.last_eval_statistics

    engine2 = _engine()
    result = engine2.execute(expr, bindings, optimize=False, mode=mode)
    execute_stats = engine2.last_eval_statistics
    try:
        executed = list(iter_collection(result))
    except Exception:
        executed = [result]

    assert streamed == executed, label
    assert stream_stats.elements_fetched == execute_stats.elements_fetched, label


def _moving_window(expr):
    """``expr`` with every parallel loop's window free to move."""
    expr = expr.rebuild([_moving_window(child) for child in expr.children()])
    if type(expr) is ParallelExt:
        return ParallelExt(expr.var, expr.body, expr.source, expr.kind,
                           expr.max_workers, adaptive=True)
    return expr


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("label,expr,bindings",
                         [shape for shape in _shapes() if "parallel" in shape[0]],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_pinned_and_moving_windows_agree(mode, label, expr, bindings):
    outcomes = []
    for term in (expr, _moving_window(expr)):
        engine = _engine()
        value = list(iter_collection(
            engine.execute(term, bindings, optimize=False, mode=mode)))
        fetched = engine.last_eval_statistics.elements_fetched
        streamed = list(engine.stream(term, bindings, optimize=False, mode=mode))
        assert engine.last_eval_statistics.elements_fetched == fetched
        outcomes.append((value, fetched, streamed))
    assert _moving_window(expr) != expr
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_chunked_stream_matches_execute(mode, label, expr, bindings):
    """The chunked lowering against ``execute`` in BOTH execution modes:
    exact element sequence and exact ``elements_fetched``, ``ext_iterations``
    and ``scan_requests`` once drained — chunk sizes must be value- and
    accounting-invisible."""
    engine = _engine()
    chunked = list(engine.stream(expr, bindings, optimize=False,
                                 mode="compiled"))
    chunked_stats = engine.last_eval_statistics

    engine2 = _engine()
    result = engine2.execute(expr, bindings, optimize=False, mode=mode)
    execute_stats = engine2.last_eval_statistics
    try:
        executed = list(iter_collection(result))
    except Exception:
        executed = [result]

    assert chunked == executed, label
    for counter in ("elements_fetched", "ext_iterations", "scan_requests"):
        assert getattr(chunked_stats, counter) == getattr(execute_stats, counter), \
            (label, counter)


@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_ramped_stream_matches_chunks_of_one(label, expr, bindings):
    """The default ramp and the element-at-a-time policy: one element
    sequence and one drained-run accounting."""
    engine = _engine()
    ramped = list(engine.stream(expr, bindings, optimize=False,
                                mode="compiled"))
    ramped_stats = engine.last_eval_statistics
    engine2 = _engine()
    element = list(engine2.stream(expr, bindings, optimize=False,
                                  mode="compiled",
                                  chunk_policy=ChunkPolicy(max_chunk=1)))
    element_stats = engine2.last_eval_statistics
    assert ramped == element, label
    for counter in ("elements_fetched", "ext_iterations", "scan_requests"):
        assert getattr(ramped_stats, counter) == getattr(element_stats, counter), \
            (label, counter)


#: The streamed paths a record head must agree on with the interpreter,
#: the seen-set's three backends among them.
HEAD_PATHS = [
    ("chunked", {}),
    ("chunks of one", {"chunk_policy": ChunkPolicy(max_chunk=1)}),
    ("budgeted", {"memory_budget": 1 << 26, "spill": False}),
    ("spilled", {"spill": True}),
    ("spilled chunks of one", {"chunk_policy": ChunkPolicy(max_chunk=1),
                               "spill": True}),
]


def _exact(value):
    """Tells apart what ``==`` does not: a record's directory and the classes
    of its field values (``1``, ``1.0`` and ``True`` are equal)."""
    if type(value) is Record:
        return (value.directory.labels, len(value.values),
                tuple(map(type, value.values)))
    return type(value)


@pytest.mark.parametrize("path,options", HEAD_PATHS, ids=[p for p, _ in HEAD_PATHS])
@pytest.mark.parametrize("label,expr,bindings", _record_head_shapes(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_record_heads_agree_with_the_interpreter(label, expr, bindings,
                                                 path, options):
    """Values, order, ``elements_fetched`` and ``ext_iterations``: the row
    kernel, its fallbacks and the tuple-keyed seen-set are invisible."""
    reference = _engine()
    expected = list(iter_collection(reference.execute(
        expr, bindings, optimize=False, mode="interpret")))
    expected_stats = reference.last_eval_statistics
    engine = _engine()
    got = list(engine.stream(expr, bindings, optimize=False, **options))
    stats = engine.last_eval_statistics
    assert got == expected
    assert [_exact(value) for value in got] == [_exact(value) for value in expected]
    assert stats.elements_fetched == expected_stats.elements_fetched
    assert stats.ext_iterations == expected_stats.ext_iterations
    assert stats.stream_fallbacks == 0
    if path.startswith("spilled") and "homogeneous" in label:
        assert engine.governor.snapshot()["spills"] > 0


def test_a_head_inside_a_join_body_is_chunk_native():
    """No eager section, and one body loop per matched pair: 12 of the 60
    outer rows find 51 partners, each mapping the 30 rows of ``N`` once —
    after 30 rows indexed and 51 probed, or 30 scanned per outer row."""
    join_loops = {"heads: join body, indexed": 60 + 30 + 51,
                  "heads: join body, blocked": 60 + 60 * 30}
    for label, expr, bindings in _record_head_shapes():
        if "join body" in label:
            engine = _engine()
            assert engine.compiled_chunked(expr).fully_chunked, label
            list(engine.stream(expr, bindings, optimize=False))
            assert engine.last_eval_statistics.ext_iterations == \
                join_loops.pop(label) + 51 * 30, label
    assert not join_loops


RAISING_HEADS = [
    ("a label the rows do not have", _heads_over("O", "set", "acc", "missing"),
     "record has no field 'missing' (fields: acc, n, org)"),
    ("a label one directory of two does not have", _heads_over("M", "set", "n"),
     "record has no field 'n' (fields: acc, org)"),
    ("a row that is not a record", _heads_over("X", "set", "acc", "org"),
     "cannot project field 'acc' from int"),
]


@pytest.mark.parametrize("label,expr,message", RAISING_HEADS,
                         ids=[label for label, _, _ in RAISING_HEADS])
def test_record_head_errors_are_the_same_on_every_path(label, expr, message):
    bindings = dict(_record_head_shapes()[0][2])
    bindings["X"] = CList([bindings["O"][0], bindings["O"][1], 7, bindings["O"][2]])
    runs = [lambda e, m=mode: e.execute(expr, bindings, optimize=False, mode=m)
            for mode in MODES]
    runs += [lambda e, o=options: list(e.stream(expr, bindings, optimize=False, **o))
             for _, options in HEAD_PATHS]
    for run in runs:
        with pytest.raises(EvaluationError) as raised:
            run(_engine())
        assert type(raised.value) is EvaluationError
        assert str(raised.value) == message


def test_record_head_stream_closed_early_reads_no_further():
    """One chunk of heads, then ``close()``: the ramp's first chunk is one
    row, and nothing past what was pulled has been mapped."""
    label, expr, bindings = _record_head_shapes()[0]
    engine = _engine()
    stream = engine.stream(expr, bindings, optimize=False)
    first = [next(stream), next(stream), next(stream)]
    stream.close()
    assert first == [Record({"acc": f"U{i}", "org": ["human", "mouse", "rat"][i]})
                     for i in range(3)]
    assert engine.last_eval_statistics.ext_iterations == 3  # chunks of 1 and 2


def test_ungoverned_heads_dedup_in_a_plain_set(monkeypatch):
    """The zero-governance contract: no budget, no spill, no token — the
    tuple-keyed seen-set is a builtin ``set``."""
    from repro.core.nrc import compile as lowering
    made = []
    original = lowering._make_seen_set

    def recording(context):
        made.append(original(context))
        return made[-1]

    monkeypatch.setattr(lowering, "_make_seen_set", recording)
    (expr, bindings), = [(expr, bindings) for label, expr, bindings
                         in _record_head_shapes() if "one tuple-keyed" in label]
    values = list(_engine().stream(expr, bindings, optimize=False))
    assert [type(seen) for seen in made] == [set]
    assert made[0] == {record.values for record in values}


def test_chunked_pipelines_without_eager_sections_on_optimizer_shapes():
    """Every optimizer-producible pipelined shape has a native chunk-wise
    lowering: no eager sections (stream_fallbacks) inside a chunked run."""
    records = CList([Record({"id": i, "tag": f"r{i}"}) for i in range(6)])
    refs = CList([Record({"ref": i % 3, "weight": i * 10}) for i in range(9)])
    condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
    shapes = [
        B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(3)), "list"),
              _scan(count=6), kind="list"),
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
            B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
                  _scan(count=3), kind="list"),
            "list"),
        _join_loop(B.var("OUTER"), B.var("INNER"), [condition],
                   B.singleton(B.project(B.var("o"), "tag"), "list"), "list"),
        _probe_plan(_join_loop(B.var("OUTER"), B.var("INNER"), [condition],
                               B.singleton(B.project(B.var("o"), "tag"), "list"), "list")),
        ParallelExt("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)), "list"),
                    _scan(count=7), kind="list", max_workers=3),
    ]
    bindings = {"OUTER": records, "INNER": refs}
    for expr in shapes:
        engine = _engine()
        query = engine.compiled_chunked(expr)
        assert query.fully_chunked, query.eager_nodes
        list(engine.stream(expr, bindings, optimize=False))
        stats = engine.last_eval_statistics
        assert stats.stream_fallbacks == 0, stats.as_dict()


@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_stream_agrees_across_modes(label, expr, bindings):
    """Compiled-streamed, interpreted-streamed: one element sequence."""
    per_mode = {}
    for mode in MODES:
        engine = _engine()
        per_mode[mode.value] = list(engine.stream(expr, bindings,
                                                  optimize=False, mode=mode))
    assert per_mode["interpret"] == per_mode["compiled"], label


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_plain_python_iterables_are_one_value_not_a_sequence(mode):
    """A non-CPL iterable (tuple, dict, str) bound to a variable is a single
    value in every mode — streaming must not explode it element-wise
    (regression: the compiled top-level tolerance iterated any iterable)."""
    engine = _engine()
    for value in [(1, 2), {"a": 1}, "xy"]:
        streamed = list(engine.stream(B.var("V"), {"V": value},
                                      optimize=False, mode=mode))
        assert streamed == [value], (value, streamed)
        executed = engine.execute(B.var("V"), {"V": value}, optimize=False,
                                  mode=mode)
        assert executed == value


def test_last_eval_statistics_is_current_before_first_next():
    """engine.stream() must rebind last_eval_statistics to the new run
    immediately, not on first next() (regression: callers reading it right
    after stream() got the previous run's numbers)."""
    engine = _engine()
    expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list")
    assert list(engine.stream(expr, optimize=False)) == [0, 1, 2]
    previous = engine.last_eval_statistics
    stream = engine.stream(expr, optimize=False)
    assert engine.last_eval_statistics is not previous
    assert engine.last_eval_statistics.elements_fetched == 0
    stream.close()


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_stats_object_published_at_stream_time_reports_the_run(mode):
    """The EvalStatistics bound at stream() time must be the one the run
    updates — for every shape, including the interpreted non-Ext path
    (regression: that path routed through execute(), which rebound
    last_eval_statistics to a fresh object mid-stream)."""
    engine = _engine()
    plus = B.lam("a", B.lam("b", B.prim("add", B.var("a"), B.var("b"))))
    fold = B.fold(plus, B.const(0), A.Const(CList([1, 2, 3])))
    stream = engine.stream(fold, optimize=False, mode=mode)
    stats = engine.last_eval_statistics
    assert list(stream) == [6]
    assert engine.last_eval_statistics is stats
    assert stats.fold_iterations == 3


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_scalar_results_stream_as_one_element(mode):
    """Scalar values reached through the transparent spine (Const, Var, Let
    bodies, IfThenElse branches) must stream as a single element, exactly
    like the eager path — not raise (regression: the first streaming lowering
    rejected them as non-collections in compiled mode)."""
    engine = _engine()
    cases = [
        ("const", A.Const(5), {}, [5]),
        ("var bound to a scalar", B.var("N"), {"N": 7}, [7]),
        ("let with a scalar body",
         A.Let("x", B.const(40), B.prim("add", B.var("x"), B.const(2))), {}, [42]),
        ("if-then-else with scalar branches",
         B.if_then_else(B.const(True), B.const(1), B.const(2)), {}, [1]),
        ("let with a streaming body",
         A.Let("k", B.const(5),
               B.ext("x", B.singleton(B.prim("add", B.var("x"), B.var("k")),
                                      "list"),
                     A.Const(CList([1, 2])), kind="list")), {}, [6, 7]),
    ]
    for label, expr, bindings, expected in cases:
        got = list(engine.stream(expr, bindings, optimize=False, mode=mode))
        assert got == expected, (label, got)


def test_parallel_ext_in_body_does_not_accumulate_pools(threads_besides_workers):
    """A ParallelExt in the body of an outer loop runs once per outer
    element; each section must leave no task running on exit (regression:
    pools were only released at whole-stream end, one live pool per
    iteration), and all of them share the engine's workers."""
    import threading

    engine = _engine()
    expr = B.ext(
        "x",
        ParallelExt("y", B.singleton(B.prim("add", B.var("x"), B.var("y")),
                                     "list"),
            A.Const(CList([1, 2, 3])), kind="list", max_workers=3),
        A.Const(CList(range(20))), kind="list")
    baseline = threading.active_count()
    others = threads_besides_workers()
    stream = engine.stream(expr, optimize=False, mode="compiled")
    peak = 0
    for i, _ in enumerate(stream):
        if i % 6 == 0:
            peak = max(peak, threading.active_count())
    assert peak <= baseline + 3, \
        f"{peak - baseline} threads live mid-stream (pools accumulating)"
    assert threads_besides_workers(engine) == others


def test_streamed_pipeline_reports_compiled_mode():
    engine = _engine()
    expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list")
    assert list(engine.stream(expr, optimize=False, mode="compiled")) == [0, 1, 2]
    stats = engine.last_eval_statistics
    assert stats.execution_mode == "compiled"
    assert stats.stream_fallbacks == 0


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_union_of_mismatched_kinds_raises_in_stream_too(mode):
    """union_like's operand type check must hold when streaming: a term
    execute() rejects must not silently succeed under stream() (regression:
    the streamed list/bag union chained operands without the check)."""
    from repro.core.errors import EvaluationError

    engine = _engine()
    expr = A.Union(B.var("L"), B.var("R"), "list")
    bindings = {"L": CList([1, 2]), "R": CSet([3, 4])}
    with pytest.raises(EvaluationError):
        engine.execute(expr, bindings, optimize=False, mode=mode)
    with pytest.raises(EvaluationError):
        list(engine.stream(expr, bindings, optimize=False, mode=mode))


def test_streamed_source_accepts_what_eager_accepts():
    """iterate_source accepts any iterable as a generator source (e.g. a
    bound str); the streaming lowering must agree (regression: it rejected
    str/bytes sources the eager backend iterates)."""
    engine = _engine()
    expr = B.ext("x", B.singleton(B.var("x"), "list"), B.var("S"), kind="list")
    bindings = {"S": "abc"}
    executed = list(iter_collection(
        engine.execute(expr, bindings, optimize=False, mode="compiled")))
    streamed = list(engine.stream(expr, bindings, optimize=False,
                                  mode="compiled"))
    assert streamed == executed == ["a", "b", "c"]


def test_eager_sections_are_surfaced_in_statistics():
    """A set-kind Union has no pull-based form (it deduplicates across both
    operands): it runs eagerly inside the pipeline and the run reports it."""
    engine = _engine()
    source = A.Union(A.Const(CSet([1, 2])), A.Const(CSet([2, 3])), "set")
    expr = B.ext("x", B.singleton(B.var("x")), source)
    streamed = list(engine.stream(expr, optimize=False, mode="compiled"))
    assert sorted(streamed) == [1, 2, 3]
    stats = engine.last_eval_statistics
    assert stats.stream_fallbacks >= 1
    query = engine.compiled_chunked(expr)
    assert "Union" in query.eager_nodes


def test_typed_union_pipelines_without_fallback():
    """A union whose operand kinds are statically proven streams end-to-end:
    no eager section, and the first element is produced before the right
    operand's scan is even requested."""
    engine = _engine()
    expr = A.Union(
        B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=5), kind="list"),
        B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
              _scan(count=5), kind="list"),
        "list")
    query = engine.compiled_chunked(expr)
    assert query.fully_chunked, query.eager_nodes
    stream = engine.stream(expr, optimize=False, mode="compiled")
    assert next(stream) == 0
    stats = engine.last_eval_statistics
    assert stats.stream_fallbacks == 0
    assert stats.scan_requests == 1, "right operand requested before needed"
    stream.close()


def test_unproven_union_still_reports_an_eager_section():
    """Only PROVEN unions stream; a bound-variable operand keeps the eager
    union_like section (and its statistics surfacing)."""
    engine = _engine()
    expr = A.Union(
        B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
        B.var("XS"), "list")
    query = engine.compiled_chunked(expr)
    assert not query.fully_chunked
    assert "Union" in query.eager_nodes
    streamed = list(engine.stream(expr, {"XS": CList([7])},
                                  optimize=False, mode="compiled"))
    assert streamed == [0, 1, 2, 7]
    assert engine.last_eval_statistics.stream_fallbacks >= 1


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_union_with_provenly_mismatched_operands_raises_in_stream_too(mode):
    """A Union whose operand kinds provably disagree with its own falls back
    to the eager union_like — which must keep raising exactly where
    execute raises, in both modes."""
    from repro.core.errors import EvaluationError

    engine = _engine()
    expr = A.Union(
        B.ext("x", B.singleton(B.var("x"), "bag"), B.var("XS"), kind="bag"),
        B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"), kind="list"),
        "list")
    bindings = {"XS": CList([1, 2])}
    with pytest.raises(EvaluationError):
        engine.execute(expr, bindings, optimize=False, mode=mode)
    with pytest.raises(EvaluationError):
        list(engine.stream(expr, bindings, optimize=False, mode=mode))


class TestJoinConditionPolicy:
    """The pinned join-condition behavior (ROADMAP): a non-boolean condition
    value raises for BOTH join plans in all three backends — interpreter,
    eager closures, and the streamed lowering.  A join's residual condition
    is an ordinary filter of the loop, so there is one policy to have."""

    @staticmethod
    def _join(method, condition):
        if method == "indexed":
            return _probe_plan(_join_loop(
                B.var("OUTER"), B.var("INNER"), [B.eq(B.var("o"), B.var("i")), condition],
                B.singleton(B.var("o"), "list"), "list"))
        return _join_loop(B.var("OUTER"), B.var("INNER"), [condition],
                          B.singleton(B.var("o"), "list"), "list")

    BINDINGS = {"OUTER": CList([1, 2]), "INNER": CList([1, 3])}

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("method", ["blocked", "indexed"])
    def test_non_boolean_condition_raises_everywhere(self, mode, method):
        from repro.core.errors import EvaluationError

        engine = _engine()
        expr = self._join(method, B.const(1))   # truthy, but not a boolean
        with pytest.raises(EvaluationError, match="condition must be a boolean"):
            engine.execute(expr, self.BINDINGS, optimize=False, mode=mode)
        with pytest.raises(EvaluationError, match="condition must be a boolean"):
            list(engine.stream(expr, self.BINDINGS, optimize=False, mode=mode))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("method", ["blocked", "indexed"])
    def test_boolean_conditions_still_filter(self, mode, method):
        engine = _engine()
        expr = self._join(method, B.eq(B.var("o"), B.var("i")))
        assert list(engine.stream(expr, self.BINDINGS,
                                  optimize=False, mode=mode)) == [1]


def test_unit_block_join_probes_per_outer_element():
    """A blocked join yields each outer element's matches before the next
    outer element is pulled."""

    class CountingDriver(Driver):
        def __init__(self):
            super().__init__("counting")
            self.produced = 0

        def _execute(self, request):
            def cursor():
                for i in range(100):
                    self.produced += 1
                    yield i

            return cursor()

    engine = KleisliEngine()
    driver = engine.register_driver(CountingDriver())
    expr = _join_loop(A.Scan("counting", {"table": "t"}, kind="list"), B.var("INNER"),
                      [B.eq(B.prim("mod", B.var("o"), B.const(2)), B.var("i"))],
                      B.singleton(B.var("o"), "list"), "list")
    stream = engine.stream(expr, {"INNER": CList([0, 1])},
                           optimize=False, mode="compiled")
    assert next(stream) == 0
    assert driver.produced <= 2, \
        f"blocked join drained {driver.produced} outer elements eagerly"
    stream.close()


def test_engine_stream_plans_unit_block_joins():
    """engine.stream optimizes exactly as engine.execute does: one query,
    one blocked plan (the nested loop itself), one value."""
    engine = _engine()
    condition = B.prim("lt", B.project(B.var("o"), "id"),
                       B.project(B.var("i"), "ref"))
    head = B.record(o=B.project(B.var("o"), "id"), r=B.project(B.var("i"), "ref"))
    inner = B.ext("i", B.if_then_else(condition, B.singleton(head), B.empty()),
                  B.var("INNER"))
    expr = B.ext("o", inner, B.var("OUTER"))

    plan = engine.compile(expr)
    # No key, and an inner side that is a value already: the loop as written.
    assert plan == expr
    assert plan == engine.compile_for_stream(expr)

    bindings = {
        "OUTER": CSet([Record({"id": i, "name": f"n{i}"}) for i in range(12)]),
        "INNER": CSet([Record({"ref": i, "data": f"d{i}"}) for i in range(12)]),
    }
    streamed = CSet(engine.stream(expr, bindings, optimize=True, mode="compiled"))
    executed = engine.execute(expr, bindings, optimize=True, mode="compiled")
    assert streamed == executed


class TestOneJoinPlan:
    """``execute`` and ``stream`` optimize one query to one term: there is
    no block size to differ in, and no second optimizer to differ through."""

    class TablesDriver(Driver):
        """``outer`` (600 rows) and ``inner`` (20) behind lazy cursors,
        counting the requests it serves."""

        ROWS = {"outer": 600, "inner": 20}

        def __init__(self):
            super().__init__("tables")
            self.requests = []

        def _execute(self, request):
            self.requests.append(request["table"])
            return iter(range(self.ROWS[request["table"]]))

    @staticmethod
    def _inequality_join():
        inner = B.ext("i", B.if_then_else(
            B.prim("lt", B.var("o"), B.var("i")),
            B.singleton(B.record(o=B.var("o"), i=B.var("i"))), B.empty()),
            A.Scan("tables", {"table": "inner"}, kind="set"))
        return B.ext("o", inner, A.Scan("tables", {"table": "outer"}, kind="set"))

    @pytest.mark.parametrize("caching", [True, False])
    def test_execute_and_stream_issue_the_same_requests(self, caching):
        from repro.core.nrc.compile import term_fingerprint
        from repro.core.optimizer import OptimizerConfig

        engine = KleisliEngine(optimizer_config=OptimizerConfig(caching=caching))
        driver = engine.register_driver(self.TablesDriver())
        query = self._inequality_join()
        plan = engine.compile(query)
        # The blocked plan: the loop as written, its inner scan hoisted when
        # the caching stage runs.
        inner = A.Scan("tables", {"table": "inner"}, kind="set")
        assert plan.body.source == (A.Cached(inner) if caching else inner)
        assert plan == engine.compile_for_stream(query)
        assert term_fingerprint(plan) == \
            term_fingerprint(engine.compile_for_stream(query))

        # Two requests.  The hoist belongs to the caching stage (the join
        # stage only picks the key): with it off the plan is the loop as
        # written and the inner scan is requested once per outer row.  Both
        # paths alike, which is the pin.
        requests = ["inner"] * (1 if caching else 600) + ["outer"]
        executed = engine.execute(query)
        assert sorted(driver.requests) == requests
        del driver.requests[:]
        streamed = CSet(engine.stream(query))
        assert sorted(driver.requests) == requests
        assert streamed == executed
        assert len(executed) == sum(range(20))

    def test_an_empty_outer_never_evaluates_the_inner(self):
        join = _join_loop(
            B.var("OUTER"), A.Cached(A.Scan("tables", {"table": "inner"}, kind="list")),
            [], B.singleton(B.var("o"), "list"), "list")
        runs = [lambda engine, **options: engine.execute(join, **options),
                lambda engine, **options: list(engine.stream(join, **options))]
        for mode in MODES:
            for run in runs:
                engine = KleisliEngine()
                driver = engine.register_driver(self.TablesDriver())
                run(engine, bindings={"OUTER": CList([])}, optimize=False, mode=mode)
                assert driver.requests == [], mode

    def test_the_knobs_are_gone(self):
        import inspect

        from repro.core.optimizer import OptimizerConfig, OptimizerPipeline
        from repro.core.planner.plan import PhysicalPlan

        assert not hasattr(A, "Join")
        fields = set(OptimizerConfig._fields)
        assert "streaming" not in fields
        assert not [name for name in fields if name.startswith("join_")]
        assert list(inspect.signature(make_join_rule_set).parameters) == []
        assert "cardinality_of" not in inspect.signature(OptimizerPipeline).parameters
        assert not PhysicalPlan.default().describe().keys() & \
            {"join_block_size", "parallel_workers"}
        assert not hasattr(KleisliEngine(), "stream_optimizer")

        # No stopwatch sizes a chunk: the first chunk is one element, a
        # parallel task one source element, and a plan is what the sources
        # declare — no run-time ledger re-plans anything.
        from repro.core import planner
        from repro.core.nrc.compile import ChunkPolicy, _ChunkRamp

        clocked = {"adaptive_ramp", "parallel_chunk", "initial_chunk"}
        assert not clocked & set(ChunkPolicy.__slots__)
        assert not clocked & set(inspect.signature(ChunkPolicy).parameters)
        assert set(PhysicalPlan.default().describe()) == \
            {"source", "remote_max_chunk", "estimated_rows"}
        assert "adaptive" not in _ChunkRamp.__slots__
        # The remote cap is a closed form: no cost model ranks candidates.
        import importlib.util
        assert importlib.util.find_spec("repro.core.planner.cost") is None
        assert not hasattr(planner, "CostModel")
        assert not hasattr(planner, "PlanFeedback")
        assert not hasattr(KleisliEngine(), "plan_feedback")

    def test_registering_a_driver_builds_one_optimizer_pipeline(self, monkeypatch):
        from repro.core.optimizer import OptimizerPipeline

        builds = []
        build = OptimizerPipeline._build_engine
        monkeypatch.setattr(OptimizerPipeline, "_build_engine",
                            lambda self: builds.append(1) or build(self))
        engine = KleisliEngine()
        del builds[:]
        for name in ("a", "b", "c"):
            engine.register_driver(RangeDriver(name))
        assert len(builds) == 3


def test_optimized_stream_matches_optimized_execute_when_set_order_is_visible():
    """Blocked-join emission is outer-major in the eager closure and in the
    chunked lowering alike, so stream() and execute() must return the same
    value even when the set-kind join's first-occurrence order becomes
    value-visible downstream (a list comprehension over the join result)."""
    engine = _engine()
    condition = B.prim("lt", B.project(B.var("o"), "id"),
                       B.project(B.var("i"), "ref"))
    head = B.record(o=B.project(B.var("o"), "id"), r=B.project(B.var("i"), "ref"))
    inner = B.ext("i", B.if_then_else(condition, B.singleton(head), B.empty()),
                  B.var("INNER"))
    set_join = B.ext("o", inner, B.var("OUTER"))
    # The set's iteration order becomes a CList: order is now part of the value.
    expr = B.ext("p", B.singleton(B.project(B.var("p"), "r"), "list"),
                 set_join, kind="list")
    bindings = {
        "OUTER": CSet([Record({"id": i, "name": f"n{i}"}) for i in range(9)]),
        "INNER": CSet([Record({"ref": i, "data": f"d{i}"}) for i in range(12)]),
    }
    streamed = list(engine.stream(expr, bindings, optimize=True, mode="compiled"))
    executed = list(iter_collection(
        engine.execute(expr, bindings, optimize=True, mode="compiled")))
    assert streamed == executed


def test_failed_requests_do_not_pollute_the_latency_ema():
    """A driver raising quickly (overloaded remote) must not drag the
    observed-latency EMA down and demote the driver from remote."""

    class FailingDriver(Driver):
        def __init__(self):
            super().__init__("flaky")

        def _execute(self, request):
            raise RuntimeError("overloaded")

    engine = KleisliEngine()
    engine.register_driver(FailingDriver())
    engine.statistics_registry.record_latency_sample("flaky", 0.2)
    assert engine.statistics_registry.is_remote("flaky")
    for _ in range(20):
        try:
            engine.driver_executor("flaky", {"table": "t"})
        except RuntimeError:
            pass
    assert engine.statistics_registry.observed_latency("flaky") == 0.2
    assert engine.statistics_registry.is_remote("flaky"), \
        "fast failures demoted a slow remote driver"
