"""Differential property test for the correlated-aggregate memo (hypothesis).

The caching stage computes a ``count``/``sum``/``avg``/``max``/``min`` in a
loop body once per distinct value of the projections ``x.l`` it reads of the
enclosing binders (``memoize-correlated-aggregate`` in
:mod:`repro.core.optimizer.caching`).  The oracle is the tree-walking
interpreter on the **unoptimized** text; the subjects are ``Session.query``
(compiled and interpreted), a drained ``Session.stream`` and a stream in
chunks of one, all on the optimized plan.

Generated: two small bound tables of any kind, ``OUT`` and ``IN``, whose key
columns draw ``True``, ``1``, ``1.0``, ``2``, two distinct NaN objects,
``-0.0``, ``0.0`` and strings (values ``==`` groups, a memo must not), and
whose aggregated column holds integers, a fraction and a NaN (a fresh NaN per
row is a distinct set element, so a memo must not share one).  The aggregate
is keyed by one or two projections of the outer row, sits in the head or in a
filter, and raises for a key with no match when it is ``max``, ``min`` or
``avg`` of an empty collection; an outer row may lack the second key, which
the text reads only for a matching row.  Each subject's outcome — the value with every
scalar's class and every collection's multiplicity, or the error class — must
equal the oracle's.  Typechecking is off: the tables mix classes on purpose.

Cost: 500 examples in about 3 s on a 2-core box.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nrc.compile import ChunkPolicy
from repro.core.records import Record
from repro.core.values import CBag, CList, CSet, iter_collection
from repro.kleisli.session import Session

NAN_A = float("nan")
NAN_B = float("nan")
KEYS = [True, 1, 1.0, 2, NAN_A, NAN_B, -0.0, 0.0, "s", "t"]
VALUES = [0, 1, 2, 3, 2.5, NAN_A]
AGGREGATES = ["count", "sum", "avg", "max", "min"]
BRACES = {"set": ("{", "}"), "bag": ("{|", "|}"), "list": ("[|", "|]")}


def _typed(value):
    """A value with every scalar's class and every collection's multiplicity
    explicit; a NaN is named, so that two runs' NaNs compare equal while a
    set holding two of them still shows both."""
    if isinstance(value, Record):
        return ("record", tuple(sorted((label, _typed(value.project(label)))
                                       for label in value.labels)))
    if isinstance(value, (CSet, CBag)):
        return (type(value).__name__, tuple(sorted(map(_typed, value), key=repr)))
    if isinstance(value, CList):
        return ("list", tuple(map(_typed, value)))
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    return (type(value).__name__, repr(value))


def _outcome(run):
    try:
        return ("value", run())
    except Exception as error:  # the class is the outcome (a bare one too)
        return ("error", type(error).__name__)


def _text(rng):
    aggregate = rng.choice(AGGREGATES)
    outer, inner = rng.choice(list(BRACES)), rng.choice(list(BRACES))
    keys = "x.k = o.a" + (", x.j = o.b" if rng.random() < 0.5 else "")
    # Heads that read a key as a value, so that its class and sign show in
    # the aggregate (``2 * True`` raises, ``2 * 1.0`` is 2.0, ``2 * -0.0`` is
    # -0.0, and ``max`` of ``o.b`` is ``o.b``).
    head = rng.choice(["x.v", "x.v * o.b", "o.b"])
    left, right = BRACES[inner]
    call = f"{aggregate}({left}{head} | \\x <- IN, {keys}{right})"
    left, right = BRACES[outer]
    if rng.random() < 0.7:
        return outer, f"{left}[a = o.a, n = {call}] | \\o <- OUT{right}"
    return outer, f"{left}o.a | \\o <- OUT, {call} >= 1{right}"


def _table(rng, size, columns):
    """Rows of ``size``, each with an ``id`` no query reads: a set-kind table
    keeps rows whose other columns repeat."""
    return [dict({column: rng.choice(pool) for column, pool in columns}, id=row)
            for row in range(size)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_memoized_aggregates_agree_with_the_interpreter(seed):
    rng = random.Random(seed)
    kind, text = _text(rng)
    session = Session(typecheck=False)
    # A few keys and values per example, so that rows share them.
    keys = rng.sample(KEYS, rng.randrange(2, 5))
    values = rng.sample(VALUES, 2)
    outer_rows = _table(rng, rng.randrange(8), [("a", keys), ("b", keys)])
    for row in outer_rows:
        if rng.random() < 0.15:
            # A key the aggregate reads only for a matching row: reading it
            # for the memo first must not raise where the text does not.
            del row["b"]
    session.bind("OUT", outer_rows, list_as=rng.choice(list(BRACES)))
    session.bind("IN", _table(rng, rng.randrange(10),
                              [("k", keys), ("j", keys), ("v", values)]),
                 list_as=rng.choice(list(BRACES)))

    def elements(values):
        typed = [_typed(value) for value in values]
        return typed if kind == "list" else sorted(typed, key=repr)

    expected = _outcome(lambda: elements(iter_collection(
        session.query(text, optimize=False, mode="interpret").value)))
    subjects = {
        "query": lambda: elements(iter_collection(session.query(text).value)),
        "query, interpreted": lambda: elements(iter_collection(
            session.query(text, mode="interpret").value)),
        "stream": lambda: elements(list(session.stream(text))),
        "stream in chunks of one": lambda: elements(list(session.stream(
            text, chunk_policy=ChunkPolicy(max_chunk=1)))),
    }
    for label, run in subjects.items():
        assert _outcome(run) == expected, (label, text)
    # The subjects ran the memo: the text's prepared plan holds one.
    plan = session._prepare(text, True)[2]
    assert "memo[" in plan.pretty(), plan.pretty()


def test_a_fresh_nan_is_not_shared_between_rows():
    """Two rows with one key, whose ``sum`` is a NaN each computes anew: the
    two heads are two set elements (a NaN equals only itself), so the memo
    must not hand the second row the first row's NaN."""
    session = Session(typecheck=False)
    session.bind("OUT", [{"a": 1, "id": 0}, {"a": 1, "id": 1}], list_as="set")
    session.bind("IN", [{"k": 1, "v": NAN_A}], list_as="set")
    text = "{[a = o.a, n = sum({|x.v | \\x <- IN, x.k = o.a|})] | \\o <- OUT}"
    assert len(session.query(text, optimize=False, mode="interpret").value) == 2
    for mode in ("compiled", "interpret"):
        assert len(session.query(text, mode=mode).value) == 2
        assert len(list(session.stream(text))) == 2
    plan = session._prepare(text, True)[2].pretty()
    assert "memo[" in plan and ".a](sum(" in plan, plan
