"""Differential property test for subquery decorrelation (hypothesis).

The caching stage hoists loop-invariant subqueries and turns a correlated
loop over a loop-invariant relation into a probe of an index built once
(:mod:`repro.core.optimizer.caching`); the join stage only moves a key
equality in front of the filters that hide it from that walk.  The
oracle is the tree-walking interpreter on the **unoptimized** term — the
end-to-end benchmark's own oracle optimizes too, so it cannot see a wrong
rewrite.  The subjects are the default optimizer's plan under the eager
closure compiler, the interpreter, and both streamed lowerings — and the
caching stage applied alone to the term as written, where the binders the
normaliser would inline are still there.

Generated: an outer loop over ``R`` (possibly empty) whose body holds a
subquery over ``S`` as a nested field, as the flat inner generator, or as the
set a ``member`` tests; set/bag/list kinds with duplicate rows; a filter chain
in any order drawn from row-only, mixed and outer-only filters and equalities
with the key on either side, under a ``Let``/``Lam``/``Case`` binder the
subquery does or does not mention; keys, heads and whole subqueries that
raise for some rows.  Values must agree type-exactly and in order, and a
subject raises a typed error iff the interpreter does.

Two older stages do not preserve *which* runs raise, and the generator steps
around them rather than weaken the check.  The join stage's one rule moves
the key equality of the flat set placement in front of a filter on both rows
(:mod:`repro.core.optimizer.joins`): the key is then evaluated for rows the
filter would have turned away, and the filter for fewer.  A term that rule
fires on — and no other — is generated again with total expressions only;
everything else of that placement may raise, a filter on the outer row between
the two generators included (it runs once per outer row, before the probe, as
in the nested loop).  The normaliser promotes a filter on the outer row out of
the subquery, past the subquery's source: it is not drawn together with the
raising view.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EvaluationError, QueryCancelledError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.nrc.eval import EvalScope
from repro.core.nrc.rewrite import RewriteStats
from repro.core.optimizer.caching import make_caching_rule_set
from repro.core.values import CBag, CList, CSet, Record, make_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import NOMINAL_ROW_BYTES, CancellationToken


def _col(var, column):
    return B.project(B.var(var), column)


def _div(numerator, denominator):
    return B.prim("div", numerator, denominator)


#: What a subquery's filter chain is drawn from: ``(label, mentions the outer
#: row, may raise, constant -> binder -> condition)``.  ``z`` is the enclosing
#: Let/Lam/Case binder, or a constant where there is none.
FILTERS = [
    ("row filter", False, False, lambda c, z: B.prim("gt", _col("y", "v"), B.const(c))),
    ("row guard", False, False, lambda c, z: B.prim("neq", _col("y", "k"), B.const(0))),
    ("row equality", False, False, lambda c, z: B.eq(_col("y", "k"), _col("y", "v"))),
    ("mixed filter", True, False, lambda c, z: B.prim("le", _col("y", "v"), _col("x", "a"))),
    ("outer filter", True, False, lambda c, z: B.prim("gt", _col("x", "a"), B.const(c))),
]
EQUALITIES = [
    ("key = outer", True, False, lambda c, z: B.eq(_col("y", "k"), _col("x", "k"))),
    ("outer = key", True, False, lambda c, z: B.eq(_col("x", "k"), _col("y", "k"))),
    ("raising key", True, True, lambda c, z: B.eq(_div(B.const(2), _col("y", "k")), _col("x", "k"))),
    ("raising probe", True, True, lambda c, z: B.eq(_col("y", "k"), _div(B.const(2), _col("x", "a")))),
    ("key = binder", False, False, lambda c, z: B.eq(_col("y", "k"), z)),
    ("key = constant", False, False, lambda c, z: B.eq(B.const(c), _col("y", "k"))),
    ("second key", True, False, lambda c, z: B.eq(_col("y", "v"), _col("x", "a"))),
    ("mixed key", True, False,
     lambda c, z: B.eq(B.prim("add", _col("y", "k"), _col("x", "a")), B.const(c))),
]
CONDITIONS = FILTERS + EQUALITIES

#: Filters on the outer row alone, written between the two generators of the
#: flat placement: ``(label, may raise, constant -> condition)``.
PREFIXES = [
    ("outer prefix", False, lambda c: B.prim("gt", _col("x", "a"), B.const(c))),
    ("raising prefix", True, lambda c: B.prim("gt", _div(B.const(4), _col("x", "a")), B.const(c))),
]

HEADS = [
    ("row value", False, False, lambda: _col("y", "v")),
    ("both rows", True, False, lambda: B.record(a=_col("x", "a"), v=_col("y", "v"))),
    ("raising head", False, True, lambda: _div(B.const(6), _col("y", "v"))),
]


def _source(choice, kind):
    """The relation the subquery ranges over: the bound table, a view of it,
    or a view that raises on a zero key.  The raising view sits behind a
    conversion to its own kind: the normaliser fuses a bare view into its
    consumer, and a fused field is evaluated only where it is used."""
    if choice == 0:
        return B.var("S")
    key = _col("s", "k") if choice == 1 else _div(B.const(2), _col("s", "k"))
    view = B.ext("s", B.singleton(B.record(k=key, v=_col("s", "v")), kind), B.var("S"), kind)
    return view if choice == 1 else B.prim(f"{kind}_of", view)


def _subquery(kind, picks, head_index, source_choice, z):
    body = B.singleton(HEADS[head_index][3](), kind)
    for index, constant in reversed(picks):
        body = A.IfThenElse(CONDITIONS[index][3](constant, z), body, A.Empty(kind))
    return B.ext("y", body, _source(source_choice, kind), kind)


def _bind(binder, value, body):
    """``body`` under a binder ``z`` whose value depends on the outer row."""
    if binder == "let":
        return B.let("z", value, body)
    if binder == "lam":
        return B.apply(B.lam("z", body), value)
    if binder == "case":
        return B.case_of(B.variant("t", value), [A.CaseBranch("t", "z", body)])
    return body


def _typed(value):
    """A value with every scalar's and collection's class made explicit."""
    if isinstance(value, Record):
        return ("record", tuple(sorted((label, _typed(value.project(label)))
                                       for label in value.labels)))
    if isinstance(value, CSet):
        return ("set", frozenset(_typed(element) for element in value))
    if isinstance(value, CBag):
        return ("bag", tuple(sorted((_typed(element) for element in value), key=repr)))
    if isinstance(value, CList):
        return ("list", tuple(_typed(element) for element in value))
    return (type(value).__name__, value)


def _outcome(run):
    try:
        return ("value", _typed(run()))
    except EvaluationError as error:
        return ("error", error)


ENGINE = KleisliEngine()


def _check(expr, bindings, kind, note=""):
    """Every subject agrees with the interpreter on the unoptimized term."""
    expected = _outcome(lambda: ENGINE.execute(expr, bindings, optimize=False, mode="interpret"))
    plan = ENGINE.compile(expr)
    cached = make_caching_rule_set().apply(expr)
    subjects = {
        "compiled": lambda: ENGINE.execute(plan, bindings, optimize=False),
        "interpreted plan": lambda: ENGINE.execute(plan, bindings, optimize=False,
                                                   mode="interpret"),
        "caching alone, compiled": lambda: ENGINE.execute(cached, bindings, optimize=False),
        "caching alone, interpreted": lambda: ENGINE.execute(cached, bindings, optimize=False,
                                                             mode="interpret"),
        "chunked stream": lambda: make_collection(
            kind, ENGINE.stream(expr, bindings)),
        "stream in chunks of one": lambda: make_collection(
            kind, ENGINE.stream(expr, bindings,
                                chunk_policy=ChunkPolicy(max_chunk=1))),
    }
    for label, run in subjects.items():
        status, payload = _outcome(run)
        shown = (cached if label.startswith("caching") else plan).pretty()
        assert status == expected[0], (label, note, expected, payload, shown)
        if status == "value":
            assert payload == expected[1], (label, note, shown)
    assert EvalScope.live_count() == 0
    return plan


def _reorders(expr):
    """Whether the join stage's key-first rule fires on ``expr``."""
    stats = RewriteStats()
    ENGINE.optimizer.optimize(expr, stats)
    return stats.fired("local-join") > 0


def _chain(rng):
    """Filters, then (mostly) one or two equalities, then filters again: the
    chain a comprehension's qualifiers desugar to.  Drawn from a seeded
    ``random.Random``: hypothesis favours the first alternatives of a choice,
    and every equality should lead its share of chains."""
    filters = list(range(len(FILTERS)))
    equalities = list(range(len(FILTERS), len(CONDITIONS)))
    rng.shuffle(filters)
    rng.shuffle(equalities)
    before = rng.choice([0, 0, 1, 1, 2])
    chain = filters[:before] + equalities[:rng.choice([0, 1, 1, 1, 2])]
    chain += filters[before:before + rng.choice([0, 0, 1])]
    return [(index, rng.randrange(4)) for index in chain]


def _table(rng, columns, sizes):
    """Rows of small integers, duplicates and all."""
    return [tuple(rng.randrange(bound) for bound in columns)
            for _ in range(rng.choice(sizes))]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_decorrelated_plans_agree_with_the_interpreter(seed):
    # Hypothesis picks the seed; a seeded generator makes the choices, for
    # the reason given in ``_chain`` — which holds for row values too.
    rng = random.Random(seed)
    outer_rows = _table(rng, (4, 3), [0, 1, 2, 3, 4])
    inner_rows = _table(rng, (3, 4), [0, 1, 3, 4, 5, 6, 8])
    outer_kind = rng.choice(["set", "bag", "list"])
    inner_kind = rng.choice(["set", "bag", "list"])
    picks = _chain(rng)
    reach = rng.choice(["outer row", "outer row", "outer row", "binder", "nothing"])
    head_index = rng.randrange(len(HEADS))
    source_choice = rng.randrange(3)
    binder = rng.choice([None, "let", "lam", "case"])
    placement = rng.choice(["field", "flat", "member"])
    if reach != "outer row":
        # The subquery sees the outer row through the binder alone, or not at
        # all: the cases where hoisting it is right, or exactly wrong.
        picks = [pick for pick in picks if not CONDITIONS[pick[0]][1]]
        head_index = head_index if not HEADS[head_index][1] else 0
    if reach == "nothing":
        picks = [pick for pick in picks if CONDITIONS[pick[0]][0] != "key = binder"]
    elif reach == "binder" and _pick("key = binder") not in [pick[0] for pick in picks]:
        picks.insert(rng.randrange(len(picks) + 1), (_pick("key = binder"), 0))
    z = B.var("z") if binder else B.const(1)
    if source_choice == 2:
        picks = [pick for pick in picks if CONDITIONS[pick[0]][0] != "outer filter"]
    prefix = None
    if placement == "flat":
        # The subquery is the inner generator: one kind, and sometimes a
        # filter on the outer row in front of it.
        inner_kind = outer_kind
        prefix = rng.choice([None, None, 0, 1])
    prefix_constant = rng.randrange(4)
    if placement == "member":
        # ``member`` tests a set of keys that does not mention the outer row.
        picks = [pick for pick in picks if not CONDITIONS[pick[0]][1]]
        head_index = head_index if not HEADS[head_index][1] else 0

    def build(picks, head_index, source_choice, prefix):
        subquery = _subquery(inner_kind, picks, head_index, source_choice, z)
        if placement == "field":
            body = B.singleton(B.record(a=_col("x", "a"), sub=subquery), outer_kind)
        elif placement == "flat":
            body = subquery
            if prefix is not None:
                body = A.IfThenElse(PREFIXES[prefix][2](prefix_constant), body,
                                    A.Empty(outer_kind))
        else:
            body = A.IfThenElse(B.prim("member", _col("x", "k"), subquery),
                                B.singleton(_col("x", "a"), outer_kind), A.Empty(outer_kind))
        binder_value = B.prim("add", _col("x", "k"), B.const(0))
        return B.ext("x", _bind(binder, binder_value, body), B.var("R"), outer_kind)

    expr = build(picks, head_index, source_choice, prefix)
    if _reorders(expr):
        # The key moves in front of a filter on both rows (see the module
        # docstring): nothing in this term may raise.
        picks = [pick for pick in picks if not CONDITIONS[pick[0]][2]]
        expr = build(picks, head_index if not HEADS[head_index][2] else 0,
                     min(source_choice, 1), None if prefix is None else 0)
    bindings = {
        "R": make_collection(outer_kind, [Record({"a": a, "k": k}) for a, k in outer_rows]),
        "S": make_collection(inner_kind, [Record({"k": k, "v": v}) for k, v in inner_rows]),
    }
    _check(expr, bindings, outer_kind, (placement, binder, picks, prefix))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_join_then_probe_chain_agrees_with_the_interpreter(seed):
    """``\\x <- R, \\y <- S, y.k = x.k, \\w <- T, w.k = y.<key>``: a probe for
    the second generator and one for the third, whatever the kind."""
    rng = random.Random(seed)
    outer_rows = _table(rng, (4, 3), [0, 1, 2, 3, 4])
    middle_rows = _table(rng, (3, 4), [0, 2, 3, 5])
    inner_rows = _table(rng, (3, 4), [0, 2, 3, 5])
    kind = rng.choice(["set", "set", "bag", "list"])
    middle_key = rng.choice(["k", "v"])
    filtered = rng.random() < 0.5
    head = B.singleton(B.record(a=_col("x", "a"), v=_col("y", "v"), w=_col("w", "v")), kind)
    innermost = B.ext("w", A.IfThenElse(B.eq(_col("w", "k"), _col("y", middle_key)),
                                        head, A.Empty(kind)), B.var("T"), kind)
    if filtered:
        innermost = A.IfThenElse(B.prim("gt", _col("y", "v"), B.const(0)), innermost, A.Empty(kind))
    middle = B.ext("y", A.IfThenElse(B.eq(_col("y", "k"), _col("x", "k")),
                                     innermost, A.Empty(kind)), B.var("S"), kind)
    expr = B.ext("x", middle, B.var("R"), kind)
    bindings = {
        "R": make_collection(kind, [Record({"a": a, "k": k}) for a, k in outer_rows]),
        "S": make_collection(kind, [Record({"k": k, "v": v}) for k, v in middle_rows]),
        "T": make_collection(kind, [Record({"k": k, "v": v}) for k, v in inner_rows]),
    }
    plan = _check(expr, bindings, kind)
    assert plan.pretty().count("probe(") == 2


# ---------------------------------------------------------------------------
# The rewrite fires where it should, and only there
# ---------------------------------------------------------------------------

def _fired(expr):
    """(hoists, indexes) the caching stage makes of ``expr`` as written."""
    stats = RewriteStats()
    make_caching_rule_set().apply(expr, stats)
    return stats.fired("hoist-loop-invariant"), stats.fired("index-correlated-loop")


def _nested(picks, head_index=1, binder=None, kind="bag"):
    z = B.var("z") if binder else B.const(1)
    subquery = _subquery(kind, [(index, 1) for index in picks], head_index, 0, z)
    body = B.singleton(B.record(a=_col("x", "a"), sub=subquery), kind)
    return B.ext("x", _bind(binder, _col("x", "k"), body), B.var("R"), kind)


def _pick(label):
    return [name for name, *_ in CONDITIONS].index(label)


def test_the_generated_shapes_exercise_both_rules():
    assert _fired(_nested([_pick("key = outer")])) == (0, 1)
    assert _fired(_nested([_pick("row filter"), _pick("outer = key")])) == (0, 1)
    assert _fired(_nested([_pick("key = outer"), _pick("mixed filter")])) == (0, 1)
    assert _fired(_nested([_pick("key = binder")], binder="let")) == (0, 1)
    # A subquery that mentions neither the row nor the binder is hoisted whole.
    assert _fired(_nested([_pick("row filter")], head_index=0, binder="case")) == (1, 0)


def test_filters_that_mention_the_outer_row_block_the_index():
    """In front of the equality they must run where they are: for every row,
    before the key is looked at."""
    assert _fired(_nested([_pick("mixed filter"), _pick("key = outer")])) == (0, 0)
    assert _fired(_nested([_pick("outer filter"), _pick("key = outer")])) == (0, 0)


def test_a_loop_dependent_let_binder_is_a_binder():
    """``let z = x.k in {.. | \\y <- S, y.k = z}`` is correlated through ``z``:
    indexed on ``y.k``, never hoisted."""
    expr = _nested([_pick("key = binder")], head_index=0, binder="let")
    assert _fired(expr) == (0, 1)
    bindings = {"R": CBag([Record({"a": 0, "k": k}) for k in (0, 1, 2)]),
                "S": CBag([Record({"k": k, "v": 10 + k}) for k in (0, 1, 1)])}
    value = ENGINE.execute(expr, bindings)
    assert sorted(len(row.project("sub")) for row in value) == [0, 1, 2]


def test_an_empty_outer_loop_never_evaluates_the_hoisted_subquery():
    raising_view = _subquery("set", [], 0, 2, B.const(1))
    expr = B.ext("x", A.IfThenElse(B.prim("member", _col("x", "k"), raising_view),
                                   B.singleton(_col("x", "a")), A.Empty("set")), B.var("R"))
    zero_key = CSet([Record({"k": 0, "v": 1})])
    assert _fired(expr) == (1, 0)
    assert ENGINE.execute(expr, {"R": CSet(), "S": zero_key}) == CSet()
    with pytest.raises(EvaluationError, match="division by zero"):
        ENGINE.execute(expr, {"R": CSet([Record({"a": 1, "k": 1})]), "S": zero_key})


def test_a_probe_key_is_not_evaluated_when_no_row_reaches_the_equality():
    expr = _nested([_pick("row filter"), _pick("raising probe")], head_index=0)
    assert _fired(expr) == (0, 1)
    outer = CBag([Record({"a": 0, "k": 1})])   # 2 / x.a raises
    low = CBag([Record({"k": 1, "v": 0})])     # ... but no row passes y.v > 1
    assert len(ENGINE.execute(expr, {"R": outer, "S": low})) == 1
    high = CBag([Record({"k": 1, "v": 3})])
    for mode in ("compiled", "interpret"):
        with pytest.raises(EvaluationError, match="division by zero"):
            ENGINE.execute(expr, {"R": outer, "S": high}, mode=mode)


# ---------------------------------------------------------------------------
# Governance: the index build is a loop like any other
# ---------------------------------------------------------------------------

class _Rows(Driver):
    """``{"table": "rows"}`` → a lazy cursor over ``count`` keyed rows."""

    def __init__(self, count):
        super().__init__("ROWS")
        self.count = count
        self.open_cursors = 0

    def _execute(self, request):
        def cursor():
            self.open_cursors += 1
            try:
                for i in range(self.count):
                    yield Record({"k": i % 7, "v": i})
            finally:
                self.open_cursors -= 1
        return cursor()


def _probing_query():
    scan = A.Scan("ROWS", {"table": "rows"}, kind="list")
    sub = B.ext("y", A.IfThenElse(B.eq(_col("y", "k"), _col("x", "k")),
                                  B.singleton(_col("y", "v"), "list"), A.Empty("list")),
                scan, "list")
    return B.ext("x", B.singleton(B.record(k=_col("x", "k"), n=B.prim("count", sub)), "list"),
                 B.var("R"), "list")


def test_index_build_charges_the_budget_and_gives_it_back():
    engine = KleisliEngine(memory_pool_limit=1 << 30)
    engine.register_driver(_Rows(700))
    bindings = {"R": CList([Record({"k": k}) for k in range(7)])}
    value = engine.execute(_probing_query(), bindings, memory_budget=1 << 28)
    assert [row.project("n") for row in value] == [100] * 7
    assert engine.last_eval_statistics.scan_requests == 1
    pool = engine.governor.pool
    assert pool.peak >= 700 * NOMINAL_ROW_BYTES   # every indexed row was charged
    assert pool.used == 0                         # ... and released with the run


class _CountdownToken(CancellationToken):
    """Cancels itself at its ``n``-th checkpoint."""

    __slots__ = ("remaining",)

    def __init__(self, checkpoints):
        super().__init__()
        self.remaining = checkpoints

    def raise_if_cancelled(self):
        self.remaining -= 1
        if self.remaining <= 0:
            self.cancel("countdown")
        super().raise_if_cancelled()


@pytest.mark.parametrize("streamed", [False, True], ids=["execute", "stream"])
def test_cancellation_during_the_index_build_leaks_nothing(streamed):
    driver = _Rows(700)
    engine = KleisliEngine()
    engine.register_driver(driver)
    bindings = {"R": CList([Record({"k": k}) for k in range(7)])}
    query = _probing_query()
    # Checkpoint 300 is a loop head inside the build: the outer loop has
    # spent one or two, the cursor is open and half drained.
    token = _CountdownToken(300)
    with pytest.raises(QueryCancelledError):
        if streamed:
            list(engine.stream(query, bindings, cancellation=token))
        else:
            engine.execute(query, bindings, cancellation=token)
    assert EvalScope.live_count() == 0
    if streamed:
        assert driver.open_cursors == 0
    # The half-built index was never stored: the next run builds its own.
    value = engine.execute(query, bindings)
    assert [row.project("n") for row in value] == [100] * 7
