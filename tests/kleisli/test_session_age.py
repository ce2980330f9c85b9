"""Session age is not an input to typing.

The type checker keeps an environment of closed schemes between queries and
nothing else: the substitution of one inference is dropped when it returns.
So the type of a query — and what typing it costs and retains — is the same
on a session's first query and on its six-hundredth, and two threads may
infer on one checker at once.
"""

import inspect
import random
import sys
import threading

import pytest

from repro.core import types as T
from repro.core.cpl.parser import parse_expression
from repro.core.cpl.typecheck import TypeChecker, TypeEnvironment, TypeScheme
from repro.core.errors import CPLTypeError
from repro.kleisli.session import Session

_GENE_FIELDS = ("id", "sym", "chrom", "pos", "score", "cls")


def _fields(rng, var):
    chosen = rng.sample(_GENE_FIELDS, rng.randrange(2, 5))
    return "[" + ", ".join(f"{label} = {var}.{label}" for label in chosen) + "]"


#: The shapes of ad-hoc traffic: selections, patterns, joins, aggregates,
#: nested and correlated subqueries, conditionals, the three collection kinds.
TEMPLATES = (
    lambda r: f"{{{_fields(r, 'g')} | \\g <- G, g.pos > {r.randrange(10000)}}}",
    lambda r: (f"{{[s = s, p = p + {r.randrange(1000)}] | [sym = \\s, pos = \\p,"
               f" chrom = \"{r.choice('17X')}\", ...] <- G, p < {r.randrange(10000)}}}"),
    lambda r: (f"{{[g = {_fields(r, 'g')}, kind = h.kind] | \\g <- G, \\h <- H,"
               f" g.id = h.gene, h.len > {r.randrange(5000)}}}"),
    lambda r: (f"count({{g.{r.choice(_GENE_FIELDS)} | \\g <- G,"
               f" g.score < {r.randrange(1000)}, g.pos > {r.randrange(10000)}}})"),
    lambda r: (f"{{[chrom = g.chrom, near = {{x.sym | \\x <- G, x.chrom = g.chrom,"
               f" x.pos > {r.randrange(10000)}}}] | \\g <- G,"
               f" g.cls = {r.randrange(1, 5)}, g.score > {r.randrange(1000)}}}"),
    lambda r: (f"{{| if g.score > {r.randrange(1000)} then g.pos + {r.randrange(1000)}"
               f" else g.pos - {r.randrange(1000)} | \\g <- G |}}"),
    lambda r: f"[| h.org ^ \"-{r.randrange(1000)}\" | \\h <- H, h.len < {r.randrange(5000)} |]",
    lambda r: (f"{{g.sym | \\g <- G, g.score > {r.randrange(1000)},"
               f" member(g.id, {{h.gene | \\h <- H, h.len < {r.randrange(5000)}}})}}"),
    lambda r: (f"sum({{| h.len + {r.randrange(1000)} | \\h <- H,"
               f" h.kind = \"{r.choice(('mRNA', 'EST'))}\", h.len > {r.randrange(5000)} |}})"),
    lambda r: (f"{{<hit = [gene = h.gene, len = h.len * {r.randrange(2, 9)}]>"
               f" | \\h <- H, h.len > {r.randrange(5000)}}}"),
)

#: Typing that has to come out of the environment right: instantiation of a
#: polymorphic definition, open rows against two widths, structural recursion.
PROBES = (
    '[a = wrap(1), b = wrap("s"), c = wrap(wrap(true))]',
    "[narrow = {g | [gene = \\g, ...] <- H}, wide = {g | [gene = \\g, ...] <- W}]",
    "fold(\\acc => \\x => acc + x, 0, {g.pos | \\g <- G})",
    "\\r => r.gene",
    "{x | \\s <- {{1}, {2}}, \\x <- s}",
)


def _tables():
    genes = [{"id": row, "sym": f"G{row}", "chrom": "17X"[row % 3], "pos": row * 156,
              "score": row * 15, "cls": 1 + row % 4} for row in range(64)]
    hits = [{"ref": row * 7, "gene": (row * 5) % 64, "kind": ("mRNA", "EST")[row % 2],
             "len": row * 78, "org": ("human", "mouse", "fly")[row % 3]} for row in range(64)]
    wide = [{"gene": row, "a": 1.5, "b": "x", "c": True, "d": {"e": row},
             "f": row * 2} for row in range(4)]
    return genes, hits, wide


def _session():
    session = Session()
    genes, hits, wide = _tables()
    session.bind("G", genes, list_as="set")
    session.bind("H", hits, list_as="set")
    session.bind("W", wide, list_as="set")
    session.run("define wrap == \\x => {x}")
    # Inference of this one fails (``Undeclared`` is no name the checker
    # knows) and the session swallows it: the next query must still type.
    session.run("define broken == \\x => Undeclared(x)")
    return session


def _age(session, queries, seed=7):
    rng = random.Random(seed)
    for number in range(queries):
        session.query(TEMPLATES[number % len(TEMPLATES)](rng))


def _texts(seed=99):
    rng = random.Random(seed)
    return [template(rng) for template in TEMPLATES] + list(PROBES)


def canonical(ty):
    """``ty`` with its variables numbered in order of appearance, so two
    types are alpha-equivalent exactly when their canonical forms are equal."""
    numbers = {}

    def number(variable):
        return None if variable is None else numbers.setdefault(variable, len(numbers))

    def walk(t):
        if isinstance(t, T.TypeVar):
            return ("var", number(t))
        if isinstance(t, (T.SetType, T.BagType, T.ListType)):
            return (type(t).__name__, walk(t.element))
        if isinstance(t, T.RefType):
            return ("ref", walk(t.target))
        if isinstance(t, T.FunctionType):
            return ("fun", walk(t.argument), walk(t.result))
        if isinstance(t, T.RecordType):
            return ("record", tuple((label, walk(f)) for label, f in sorted(t.fields.items())),
                    number(t.row))
        if isinstance(t, T.VariantType):
            return ("variant", tuple((label, walk(c)) for label, c in sorted(t.cases.items())),
                    number(t.row))
        return ("base", str(t))

    return walk(ty)


def test_canonical_tells_types_apart_and_renamings_together():
    a, b = T.fresh_type_var(), T.fresh_type_var()
    assert canonical(T.FunctionType(a, b)) == canonical(T.FunctionType(b, a))
    assert canonical(T.FunctionType(a, b)) != canonical(T.FunctionType(a, a))
    assert canonical(T.RecordType({"x": a}, T.fresh_row_var())) != canonical(T.RecordType({"x": a}))


def _typed(checker, expression):
    """The canonical type, or that there is none (``sum`` wants a set: the
    bag template is ad-hoc traffic the checker rejects and the session runs)."""
    try:
        return canonical(checker.infer(expression))
    except CPLTypeError:
        return "untypable"


@pytest.fixture(scope="module")
def fresh_types():
    checker = _session().type_checker
    types = [_typed(checker, parse_expression(text)) for text in _texts()]
    assert types.count("untypable") == 1
    return types


@pytest.mark.parametrize("age", [0, 1, 500])
def test_an_aged_session_infers_what_a_fresh_one_does(age, fresh_types):
    session = _session()
    _age(session, age)
    checker = session.type_checker
    for text, expected in zip(_texts(), fresh_types):
        assert _typed(checker, parse_expression(text)) == expected, text
    # ... and the types are the ones the queries have, not merely equal ones.
    assert str(checker.infer(parse_expression(_texts()[3]))) == "int"
    poly = checker.infer(parse_expression(PROBES[0]))
    assert [str(poly.fields[label]) for label in "abc"] == ["{int}", "{string}", "{{bool}}"]
    rows = checker.infer(parse_expression(PROBES[1]))
    assert str(rows.fields["narrow"]) == str(rows.fields["wide"]) == "{int}"
    assert str(checker.infer(parse_expression(PROBES[2]))) == "int"
    # The swallowed definition left nothing behind, and still cannot be typed.
    assert checker.environment.lookup("broken") is None
    assert session.query("count(wrap(1))").value == 1


def _reachable_dict_sizes(root):
    """``len`` of every dict reachable from ``root`` (attributes, items,
    the environment's parent chain), by path."""
    sizes, seen = {}, set()

    def visit(obj, path):
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, bool, type(None))):
            return
        seen.add(id(obj))
        if isinstance(obj, dict):
            sizes[path] = len(obj)
            for key, value in obj.items():
                visit(value, f"{path}[{key!r}]")
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for index, item in enumerate(obj):
                visit(item, f"{path}[{index}]")
        elif hasattr(obj, "__dict__"):
            visit(vars(obj), f"{path}.__dict__")

    visit(root, "checker")
    return sizes


def test_nothing_reachable_from_the_checker_grows_with_queries():
    session = _session()
    _age(session, 100)
    before = _reachable_dict_sizes(session.type_checker)
    assert "checker.__dict__" in before and any("bindings" in path for path in before)
    _age(session, 500, seed=8)
    assert _reachable_dict_sizes(session.type_checker) == before


def test_eight_threads_on_one_checker_infer_the_serial_types(fresh_types):
    checker = _session().type_checker
    expressions = [parse_expression(text) for text in _texts()]
    failures = []
    barrier = threading.Barrier(8)

    def worker(offset):
        try:
            barrier.wait()
            for round_ in range(12):
                for step in range(len(expressions)):
                    index = (step + offset + round_) % len(expressions)
                    if _typed(checker, expressions[index]) != fresh_types[index]:
                        failures.append(index)
        except Exception as error:     # noqa: BLE001 - reported below
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the inferences, not just the threads
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_the_checker_keeps_no_solving_state_and_its_entry_points_their_signatures():
    checker = TypeChecker()
    assert not hasattr(checker, "substitution")
    assert set(vars(checker)) == {"environment"}
    assert str(inspect.signature(TypeChecker.infer)) == (
        "(self, expr: 'S.SExpr', environment: 'Optional[TypeEnvironment]' = None)"
        " -> 'T.Type'")
    assert list(inspect.signature(TypeChecker.define).parameters) == ["self", "name", "expr"]
    assert list(inspect.signature(TypeChecker.bind_value_type).parameters) == [
        "self", "name", "ty"]
    # ``infer`` under an explicit environment neither reads nor writes the
    # checker's own.
    scheme = TypeScheme.monotype(T.INT)
    scope = TypeEnvironment({"n": scheme})
    assert checker.infer(parse_expression("n + 1"), scope) == T.INT
    assert checker.environment.bindings == {} and scope.bindings == {"n": scheme}


def test_a_primitive_lookup_builds_one_signature(monkeypatch):
    made = []
    fresh = T.fresh_type_var
    monkeypatch.setattr(T, "fresh_type_var", lambda *a: made.append(1) or fresh(*a))
    checker = TypeChecker()
    assert checker.infer(parse_expression("string_length")) == T.FunctionType(T.STRING, T.INT)
    assert made == []   # monomorphic: nothing to instantiate
    first = checker.infer(parse_expression("max"))
    second = checker.infer(parse_expression("max"))
    assert len(made) == 2   # one variable per polymorphic lookup (13 x 2 before)
    assert canonical(first) == canonical(second) and first != second
    assert checker.infer(parse_expression('[a = max({1}), b = max({"s"})]')) == T.RecordType(
        {"a": T.INT, "b": T.STRING})


def test_a_session_that_does_not_typecheck_never_infers(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("typecheck=False must not reach the checker")

    monkeypatch.setattr(TypeChecker, "infer", boom)
    monkeypatch.setattr(TypeChecker, "define", boom)
    session = Session(typecheck=False)
    session.bind("G", _tables()[0], list_as="set")
    session.run("define wrap == \\x => {x}")
    assert session.query("count({g.id | \\g <- G, g.pos > 156})").value == 62
