"""No local join goes quadratic or changes value.

A local join is the loop it was written as: the join stage puts the key
equality where the decorrelation walk finds it, and the walk turns the inner
loop into a probe of an index built once (:mod:`repro.core.optimizer.joins`,
:mod:`repro.core.optimizer.caching`).  Every way of writing a join over bound
tables is pinned here: its value is the interpreter's on the **unoptimized**
term (type-exact, in order) under every lowering, its plan holds only node
types the compiler lowers natively, the join stage's rule fires only where a
filter hides the key, and — whenever a usable equality exists — the loops
read each relation a bounded number of times, never once per outer row.
"""

import pytest

from repro.core.nrc.compile import ChunkPolicy, supported_node_types
from repro.kleisli.session import Session

from paths import exact

R_ROWS, S_ROWS, T_ROWS = 200, 200, 100


def _tables():
    # ``S.k`` is a permutation of ``R.id`` (one partner each); ``T.k`` is the
    # even half of it.
    return {
        "R": [{"id": i, "a": i % 7} for i in range(R_ROWS)],
        "S": [{"k": (i * 7) % S_ROWS, "cls": i % 3, "v": i} for i in range(S_ROWS)],
        "T": [{"k": 2 * i, "w": i % 5} for i in range(T_ROWS)],
        "S3": [{"k": k, "cls": 1, "v": k} for k in (5, 50, 150)],
    }


@pytest.fixture(scope="module", params=["set", "bag", "list"])
def session(request):
    session = Session()
    for name, rows in _tables().items():
        session.bind(name, rows, list_as=request.param)
    session.kind = request.param
    return session


HEAD = "[a = r.id, v = s.v]"
#: label, generators and filters, key matches (``None``: no usable equality),
#: whether the join stage's rule fires on the set-kind loop.
SHAPES = [
    ("equality first", r"\r <- R, \s <- S, s.k = r.id", 200, False),
    ("mixed filter before the equality", r"\r <- R, \s <- S, s.cls < r.a, s.k = r.id", 200, True),
    ("own and mixed filter before the equality",
     r"\r <- R, \s <- S, s.v < 150, s.cls < r.a, s.k = r.id, r.a < 6", 150, True),
    ("equality the other way round", r"\r <- R, \s <- S, r.id = s.k", 200, False),
    ("two equalities", r"\r <- R, \s <- S, s.k = r.id, s.cls = r.a", 200, False),
    ("outer-only filter between the generators", r"\r <- R, r.a = 0, \s <- S, s.k = r.id", 29, False),
    ("non-equi only", r"\r <- R, \s <- S3, s.v < r.a", None, False),
    ("inner subquery with its own filter",
     r"\r <- R, \s <- {x | \x <- S, x.cls < 2}, s.k = r.id", 134, False),
    # The walk would key the index on the first equality it meets: ``cls``.
    ("inner subquery with its own equality",
     r"\r <- R, \s <- {x | \x <- S, x.cls = 1}, s.k = r.id", 200, True),
    ("inner of three rows", r"\r <- R, \s <- S3, s.k = r.id", 3, False),
    ("three generators", r"\r <- R, \s <- S, s.k = r.id, \t <- T, t.k = s.k", 200 + 100, False),
]
BRACKETS = {"set": ("{", "}"), "bag": ("{|", "|}"), "list": ("[|", "|]")}


def _query(kind, generators):
    opening, closing = BRACKETS[kind]
    generators = generators.replace("{x |", opening + "x |").replace("}, s.k", closing + ", s.k")
    return f"{opening}{HEAD} | {generators}{closing}"


def _nodes(expr):
    yield expr
    for child in expr.children():
        yield from _nodes(child)


@pytest.mark.parametrize("label,generators,matches,fires", SHAPES, ids=[shape[0] for shape in SHAPES])
def test_every_way_of_writing_a_join(session, label, generators, matches, fires):
    text = _query(session.kind, generators)
    engine = session.engine
    oracle = session.query(text, optimize=False, mode="interpret")
    expected = exact(oracle.value)
    collection = type(oracle.value)

    result = session.query(text)
    statistics = engine.last_eval_statistics
    plan = result.optimized
    assert exact(result.value) == expected
    # The join stage matches set loops; every other kind is planned by the
    # decorrelation walk alone.
    assert engine.last_rewrite_stats.fired("local-join") == \
        (1 if fires and session.kind == "set" else 0)
    assert {type(node).__name__ for node in _nodes(plan)} <= set(supported_node_types())

    if matches is not None and (session.kind == "set" or not fires):
        # Each relation read once to loop or to index, plus the matched
        # pairs: 40 200 when the inner relation is scanned per outer row.
        assert "probe(cached(index(" in plan.pretty()
        assert statistics.ext_iterations <= R_ROWS + 2 * (S_ROWS + T_ROWS) + matches
        assert statistics.stream_fallbacks == 0

    subjects = {
        "interpreted plan": lambda: session.query(text, mode="interpret").value,
        "chunked": lambda: collection(engine.stream(oracle.nrc, session.values)),
        "chunks of one": lambda: collection(engine.stream(
            oracle.nrc, session.values, chunk_policy=ChunkPolicy(max_chunk=1))),
    }
    for subject, run in subjects.items():
        assert exact(run()) == expected, subject
