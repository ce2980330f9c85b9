"""Generated CPL queries agree on every path of the matrix (hypothesis).

Over two small bound tables, ``T`` and ``U`` — rows ``[k, v, s]`` of small
integers and short strings, each table bound as a set, a bag or a list — a
comprehension of any kind draws its source (a table, a comprehension over
one, or a union: a flattened collection literal, as in the end-to-end
``union_dedup`` text, because CPL has no infix union), up to two filters
(``member`` among them), and a head: a value, a record, a nest (a subquery per
row) or a ``count``/``sum`` of one; the query may be ``count``, ``sum`` or
``member`` of that comprehension.  Every path of ``tests/paths.py`` — the
served ones included — must return the interpreter's value on the
unoptimized text, type-exact and in the same order, or raise its error
class.

No NaN is drawn: a NaN inside a set does not survive the wire (ROADMAP
direction 1, the strict ``xfail`` in ``tests/server/test_wire.py``).

Cost: 150 examples in about 3 s on a 2-core box.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import from_python

from paths import CPL_PATHS, assert_agree, outcomes

BRACES = {"set": ("{", "}"), "bag": ("{|", "|}"), "list": ("[|", "|]")}


def _comprehension(rng, head, qualifiers):
    left, right = BRACES[rng.choice(list(BRACES))]
    return f"{left}{head} | {', '.join(qualifiers)}{right}"


def _row(var):
    return f"[k = {var}.k, v = {var}.v, s = {var}.s]"


def _query(rng):
    """A comprehension over ``T`` or ``U``, maybe inside ``count``, ``sum``
    or ``member``."""
    table = rng.choice(["T", "U"])
    source = rng.choice(["table", "view", "union"])
    if source == "table":
        qualifiers = ["\\x <- " + table]
    elif source == "view":
        view = _comprehension(rng, _row("z"), ["\\z <- " + table, "z.v > 0"])
        qualifiers = ["\\x <- " + view]
    else:
        operands = ", ".join(_comprehension(rng, _row(var), [f"\\{var} <- {name}"])
                             for name, var in (("T", "a"), ("U", "b"), (table, "c")))
        left, right = BRACES[rng.choice(list(BRACES))]
        qualifiers = [f"\\u <- {left}{operands}{right}", "\\x <- u"]
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        qualifiers.append(rng.choice([
            f"x.v > {rng.randrange(-1, 4)}", f"x.k = {rng.randrange(4)}", 'x.s = "a"',
            "member(x.k, {y.k | \\y <- U})", "not(member(x.v, [| y.v | \\y <- U |]))"]))
    # A nest or an aggregate reads the rows of U that match x's key.
    matching = "\\y <- U", "y.k = x.k"
    head = rng.choice([
        "x.v", "x.s", "x.k + 1", "[k = x.k, v = x.v]", _row("x"),
        f"[k = x.k, vs = {_comprehension(rng, 'y.v', matching)}]",
        f"[k = x.k, n = count({_comprehension(rng, 'y.s', matching)})]",
        f"[k = x.k, n = sum({_comprehension(rng, 'y.v', matching)})]"])
    top = rng.choice(["", "", "", "count(", "sum(", f"member({rng.randrange(4)}, "])
    if not top:
        return _comprehension(rng, head, qualifiers)
    return top + _comprehension(rng, head if top == "count(" else "x.v", qualifiers) + ")"


def _table(rng):
    """Up to six rows of small keys, values and strings, repeats likely,
    bound as a set, a bag or a list."""
    rows = [{"k": rng.randrange(4), "v": rng.randrange(-2, 6), "s": rng.choice(["", "a", "b"])}
            for _ in range(rng.randrange(7))]
    return from_python(rows, rng.choice(list(BRACES)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_generated_queries_agree_on_every_path(seed, served):
    # Hypothesis picks the seed and a seeded generator the choices:
    # hypothesis favours the first alternative of a choice.
    rng = random.Random(seed)
    tables = {"T": _table(rng), "U": _table(rng)}
    results = outcomes(_query(rng), tables, served=served)
    assert tuple(results) == CPL_PATHS
    assert_agree(results)
