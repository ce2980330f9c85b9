"""Join-key equality is ``eq`` — Python ``==`` — on every path (ROADMAP 5c).

A hash index finds a key by *identity* before it asks ``==``, so rows whose key
is one shared NaN object used to join each other under an index where the
nested loop it replaces pairs them with nothing.  Pinned here, identically
for the nested loop as written and for the caching stage's ``probe`` — under
the interpreter and every compiled lowering, the spilled index included:

* NaN equals nothing, not even itself (shared object or not);
* ``-0.0`` and ``0.0`` are one key; so are ``True``/``1`` and ``1``/``1.0``.
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.optimizer.caching import make_caching_rule_set
from repro.core.optimizer.joins import make_join_rule_set
from repro.core.values import CBag, CSet, Record, make_collection

from paths import assert_agree, exact, outcomes

NAN = float("nan")


def _self_join(kind):
    """``{[a = x.v, b = y.v] | \\x <- T, \\y <- T, x.k = y.k}`` as written."""
    head = B.singleton(B.record(a=B.project(B.var("x"), "v"), b=B.project(B.var("y"), "v")), kind)
    inner = B.ext("y", A.IfThenElse(B.eq(B.project(B.var("x"), "k"), B.project(B.var("y"), "k")),
                                    head, A.Empty(kind)), B.var("T"), kind)
    return B.ext("x", inner, B.var("T"), kind)


def _pairs(value):
    return sorted((row.project("a"), row.project("b")) for row in value)


#: ``(label, key column, expected (a, b) pairs of the self-join)``; ``v`` is
#: the row's position.
CASES = [
    ("shared NaN object", [NAN, NAN, 1.0], [(2, 2)]),
    ("distinct NaN objects", [float("nan"), float("nan")], []),
    ("signed zeros", [0.0, -0.0], [(0, 0), (0, 1), (1, 0), (1, 1)]),
    ("bool and int", [True, 1, 2], [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]),
    ("int and float", [1, 1.0, "1"], [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]),
]


def _terms(kind):
    """The self-join as written and as a probe."""
    nested = _self_join(kind)
    probed = make_caching_rule_set().apply(nested)
    assert make_join_rule_set().apply(nested) == nested     # the key is already first
    assert "probe(cached(index(" in probed.pretty()
    return nested, probed


@pytest.mark.parametrize("label,keys,expected", CASES, ids=[case[0] for case in CASES])
def test_every_path_pairs_the_same_rows(label, keys, expected):
    for kind in ("set", "bag"):
        table = make_collection(kind, [Record({"k": key, "v": position})
                                       for position, key in enumerate(keys)])
        nested, probed = _terms(kind)
        bindings = {"T": table}

        def run(term, **options):
            return lambda engine: engine.execute(term, bindings, optimize=False, **options)

        def stream(term, **options):
            return lambda engine: list(engine.stream(term, bindings, optimize=False, **options))

        results = outcomes(nested, bindings, ordered=False, extra={
            "nested loop, compiled": run(nested),
            "probe, compiled": run(probed),
            "probe, interpreted": run(probed, mode="interpret"),
            "probe, chunked": stream(probed),
            "probe, chunks of one": stream(probed, chunk_policy=ChunkPolicy(max_chunk=1)),
            "probe, spilled": run(probed, spill=True),
        })
        pairs = [Record({"a": a, "b": b}) for a, b in expected]
        assert results["interpret"].form == ("value", exact(make_collection(kind, pairs), False))
        assert_agree(results)


def test_the_reported_self_join_on_a_shared_nan(served):
    """Ten rows sharing one NaN object and one row with key 1.0: the
    optimized query used to return 101 pairs, the unoptimized one 1."""
    rows = [Record({"k": NAN, "v": i}) for i in range(10)] + [Record({"k": 1.0, "v": 99})]
    text = r"{[a = x.v, b = y.v] | \x <- T, \y <- T, x.k = y.k}"
    results = outcomes(text, {"T": CSet(rows)}, served=served, extra={
        "optimized, interpreted": lambda session: session.query(text, mode="interpret").value,
        "unoptimized, compiled": lambda session: session.query(text, optimize=False).value,
    })
    assert_agree(results)
    assert _pairs(results["interpret"].on.query(text, optimize=False).value) == [(99, 99)]


def test_member_of_a_hoisted_set_is_eq_too(served):
    tables = {"T": CBag([Record({"k": NAN}), Record({"k": 0.0}), Record({"k": 2})]),
              "U": CBag([Record({"k": NAN}), Record({"k": -0.0}), Record({"k": 2.0})])}
    text = r"{| x.k | \x <- T, member(x.k, {y.k | \y <- U}) |}"
    results = outcomes(text, tables, served=served, extra={
        "unoptimized, compiled": lambda session: session.query(text, optimize=False).value})
    assert_agree(results)
    session = results["query"].on
    assert "cached(" in session.query(text).optimized.pretty()
    assert sorted(session.query(text).value) == [0.0, 2]
