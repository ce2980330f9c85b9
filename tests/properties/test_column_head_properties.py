"""A record head's arithmetic column is invisible: same values, same error.

The chunk lowering computes a head field ``x.f + c``, ``c - x.f`` or
``x.f * c`` (``c`` an ``int``/``float`` literal) as one pass over the
gathered column, behind a type gate; a chunk the gate refuses goes whole to
the per-item form.  Over rows whose computed fields hold ``int``, ``float``
(ints too big for a float among them), ``bool``, ``str`` or ``None``, heads
that mix gathered fields, column arithmetic and a field computed per item,
in list, bag and set kinds, over chunks that mix record directories (one of
them missing a projected label):

* the chunked stream, the eager lowering and the interpreter return the same
  elements in the same order, with the same field types;
* or they raise the same error class with the same message;
* ``ext_iterations`` is one per row on every path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.values import CBag, CList, CSet, Record
from repro.kleisli.engine import KleisliEngine

KINDS = {"list": CList, "bag": CBag, "set": CSet}

#: One field in ten is not a number, so that most chunks pass the gate and
#: a refused one often has earlier rows that raise in another field.
fields = st.integers(0, 9).flatmap(lambda draw: st.one_of(
    st.booleans(), st.sampled_from(["s", "", None])) if draw == 0
    else st.one_of(st.integers(min_value=-50, max_value=50),
                   st.floats(allow_nan=False, width=32),
                   st.sampled_from([2 ** 1100, -(2 ** 1030)])))
numbers = st.one_of(st.integers(min_value=-5, max_value=5),
                    st.sampled_from([0.5, -2.0, 1e308]))


def tables():
    """Rows on one directory, ``{f, g, k}`` or ``{f, g, h, k}``, or on those
    two and ``{f, g}`` (no ``k``) mixed."""
    full = st.fixed_dictionaries({"f": fields, "k": fields,
                                  "g": st.integers(0, 9)}).map(Record)
    wider = st.fixed_dictionaries({"f": fields, "k": fields, "g": st.text(
        max_size=2), "h": st.none()}).map(Record)
    narrow = st.fixed_dictionaries({"f": fields,
                                    "g": st.integers(0, 9)}).map(Record)
    return st.one_of(st.lists(full, max_size=40), st.lists(wider, max_size=40),
                     st.lists(st.one_of(full, wider, narrow), max_size=40))


def computed_field(var):
    """A head field over ``var``: column arithmetic either side, or a field
    computed per item (two projections, not a column)."""
    x = B.var(var)
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]),
                  st.sampled_from(["f", "k"]), numbers, st.booleans()).map(
            lambda t: B.prim(t[0], B.project(x, t[1]), B.const(t[2])) if t[3]
            else B.prim(t[0], B.const(t[2]), B.project(x, t[1]))),
        st.just(B.prim("sub", B.project(x, "k"), B.project(x, "f"))),
    )


@st.composite
def heads(draw):
    """``[l1 = e1, ...]`` over ``\\x``: one to four fields, gathered or
    computed, under labels drawn so that source order and slot order vary."""
    labels = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4,
                           unique=True))
    head = {}
    for label in labels:
        if draw(st.booleans()):
            head[label] = B.project(B.var("x"), draw(st.sampled_from("gf")))
        else:
            head[label] = draw(computed_field("x"))
    return B.record(**head)


def outcome(run):
    """The elements in order with their field types, or the error."""
    try:
        elements = list(run())
    except Exception as error:  # class and message are the observable
        return ("raised", type(error).__name__, str(error))
    return ("value", [exact(element) for element in elements])


def exact(value):
    if type(value) is Record:
        return (value.directory.labels, tuple(exact(f) for f in value.values))
    if type(value) is float:
        return ("float", repr(value))
    return (type(value).__name__, value)


@given(table=tables(), head=heads(),
       kind=st.sampled_from(sorted(KINDS)),
       max_chunk=st.sampled_from([None, 1, 3]))
@settings(max_examples=400, deadline=None)
def test_column_heads_agree_on_every_path(table, head, kind, max_chunk):
    expr = B.ext("x", B.singleton(head, kind), B.var("T"), kind=kind)
    bindings = {"T": KINDS[kind](table)}
    policy = {} if max_chunk is None else {
        "chunk_policy": ChunkPolicy(max_chunk=max_chunk)}
    runs = {}
    iterations = {}
    for path, run in {
        "interpret": lambda engine: engine.execute(
            expr, bindings, optimize=False, mode="interpret"),
        "eager": lambda engine: engine.execute(
            expr, bindings, optimize=False, mode="compiled"),
        "chunked": lambda engine: engine.stream(
            expr, bindings, optimize=False, **policy),
    }.items():
        engine = KleisliEngine()
        runs[path] = outcome(lambda: run(engine))
        iterations[path] = engine.last_eval_statistics.ext_iterations
    assert runs["chunked"] == runs["interpret"]
    assert runs["eager"] == runs["interpret"]
    if runs["interpret"][0] == "value":
        assert set(iterations.values()) == {len(bindings["T"])}
