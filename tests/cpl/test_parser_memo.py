"""The parser's speculation memo: same trees, same positions, same errors —
and nesting that used to double the work per level now parses at once."""

import ast
import gc
import pathlib
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpl import ast as S
from repro.core.cpl.lexer import tokenize
from repro.core.cpl.parser import Parser, parse_expression
from repro.core.errors import CPLSyntaxError


class _Unmemoised(Parser):
    """The grammar as written: every speculation is parsed again."""

    def parse_pattern(self):
        return self._parse_pattern()


def _dump(node):
    """The tree with every node's position and every literal's class."""
    if isinstance(node, S._Node):
        return (type(node).__name__, node.line, node.column,
                tuple(_dump(getattr(node, name)) for name in node._fields))
    if isinstance(node, dict):
        return tuple((label, _dump(value)) for label, value in node.items())
    if isinstance(node, (list, tuple)):
        return tuple(_dump(item) for item in node)
    return (type(node).__name__, node)


def _outcome(parser_class, text, program=False):
    try:
        parser = parser_class(tokenize(text))
        if program:
            return "ok", _dump(parser.parse_program())
        tree = parser.parse_expr(allow_bar=True)
        parser.expect_eof()
        return "ok", _dump(tree)
    except CPLSyntaxError as error:
        return "error", str(error), error.line, error.column


def _nested(wrapper, depth):
    text = "1"
    for _ in range(depth):
        text = wrapper.format(text)
    return text


NESTINGS = {"record": "[a = f({})]", "variant": "<t = f({})>", "set of records": "{{[a = f({})]}}"}


class TestNestedSpeculation:
    @pytest.mark.parametrize("wrapper", NESTINGS.values(), ids=NESTINGS.keys())
    def test_thirty_levels_parse_at_once(self, wrapper):
        text = _nested(wrapper, 30)
        started = time.perf_counter()
        tree = parse_expression(text)
        assert time.perf_counter() - started < 0.5
        # The same shape all the way down: peel it and count.
        depth = 0
        while not isinstance(tree, S.SLit):
            if isinstance(tree, S.SCollection):
                (tree,) = tree.elements
            tree = tree.fields["a"] if isinstance(tree, S.SRecord) else tree.value
            assert tree.func == S.SVar("f")
            (tree,) = tree.args
            depth += 1
        assert depth == 30 and tree == S.SLit(1)

    @pytest.mark.parametrize("wrapper", NESTINGS.values(), ids=NESTINGS.keys())
    def test_six_levels_parse_to_the_unmemoised_tree(self, wrapper):
        text = _nested(wrapper, 6)
        assert _outcome(Parser, text) == _outcome(_Unmemoised, text)
        assert _outcome(Parser, text)[0] == "ok"

    def test_nested_patterns_parse_at_once(self):
        # The same doubling from the pattern side: a generator pattern whose
        # fields are equality expressions over further record literals.
        pattern = _nested("[a = g({})]", 30)
        text = "{x | " + pattern + " <- S, " + _nested("<t = h({})>", 30) + " <- T}"
        started = time.perf_counter()
        tree = parse_expression(text)
        assert time.perf_counter() - started < 0.5
        assert [type(q.pattern) for q in tree.qualifiers] == [S.PRecord, S.PVariant]

    def test_a_memoised_error_is_raised_again_with_its_position(self):
        parser = Parser(tokenize("[a = (1 +)]"))
        seen = []
        for _ in range(2):
            parser.position = 0
            with pytest.raises(CPLSyntaxError) as info:
                parser.parse_pattern()
            seen.append((str(info.value), info.value.line, info.value.column))
        assert seen[0] == seen[1] == _outcome(_Unmemoised, "[a = (1 +)]")[1:]
        assert len(parser._patterns) >= 1

    def test_a_memoised_error_pins_no_caller(self):
        # A filter qualifier is a failed pattern speculation.  Kept as an
        # exception, its traceback held the parser that held it, and through
        # the frames every caller's locals — a server's whole session —
        # until the cyclic collector ran: memory by accident of GC timing.
        class Held:
            pass

        def caller():
            held = Held()
            parse_expression("{x | \\x <- S, x.n > 1}")
            return weakref.ref(held)

        gc.collect()
        gc.disable()
        try:
            assert caller()() is None
        finally:
            gc.enable()

    def test_the_key_tells_a_variant_payload_from_the_open(self):
        # ``[a = x > 1]`` read as a pattern at one position: a comparison in
        # the open, and a record closed by the variant's ``>`` in a payload.
        for text in ("<t = [a = x] > 1>", "{y | <t = [a = x > 1]> <- S}",
                     "<t = ([a = x] > 1)>", "[a = x] > 1 => 2", "<t = 1 > => 2",
                     "<t = [a = x > 1] => 2>"):
            assert _outcome(Parser, text) == _outcome(_Unmemoised, text), text
        # The last one: the variant *pattern* reads ``[a = x > 1]`` in the open
        # (a pattern), the variant *literal* reads it in the payload (an
        # error); an outcome keyed on the position alone would make it a lambda.
        assert _outcome(Parser, "<t = [a = x > 1] => 2>")[:2] == (
            "error", "expected ']' but found '>' (line 1, column 13)")

    def test_an_error_inside_parentheses_leaves_the_payload_state_alone(self):
        parser = Parser(tokenize("<t = (1 +) > 2>"))
        with pytest.raises(CPLSyntaxError):
            parser.parse_expr(allow_bar=True)
        assert parser._angle_depth == 0
        parser.position, parser._angle_depth = 3, 1     # at ``(``, in the payload
        with pytest.raises(CPLSyntaxError):
            parser.parse_expr(allow_bar=True)
        assert parser._angle_depth == 1


def _texts_of_the_parser_suite():
    """Every literal text ``tests/cpl/test_parser.py`` hands the parser."""
    source = pathlib.Path(__file__).with_name("test_parser.py").read_text()
    texts = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("parse", "parse_expression") and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            texts.append((node.args[0].value, node.func.id == "parse"))
    return texts


def test_the_parser_suite_inputs_parse_alike():
    texts = _texts_of_the_parser_suite()
    assert len(texts) >= 30
    for text, program in texts:
        assert _outcome(Parser, text, program) == _outcome(_Unmemoised, text, program), text


class _Backtracking(Parser):
    """Lambda detection without the first-token check: every expression
    is tried as a pattern first."""

    def _is_lambda_start(self):
        saved = self.position
        try:
            self.parse_pattern()
            return self._check_symbol("=>")
        except CPLSyntaxError:
            return False
        finally:
            self.position = saved


def test_an_expression_no_pattern_can_start_makes_no_syntax_error(monkeypatch):
    made = []
    init = CPLSyntaxError.__init__

    def counted(error, *args):
        made.append(args)
        init(error, *args)

    monkeypatch.setattr(CPLSyntaxError, "__init__", counted)
    assert parse_expression("x.a + 1") == S.SBinOp(
        "+", S.SProject(S.SVar("x"), "a"), S.SLit(1))
    assert made == []


def test_the_first_token_check_changes_no_tree():
    texts = _texts_of_the_parser_suite() + [(_text(seed), False) for seed in range(400)]
    for text, program in texts:
        assert _outcome(Parser, text, program) == _outcome(_Backtracking, text, program), text


# -- the property ---------------------------------------------------------------
#
# Hypothesis picks seeds; a seeded ``random.Random`` makes the structural
# choices (as in the decorrelation properties: cheap draws, even coverage).

_LEAVES = ("1", "x", '"s"', "true", "y . a", "2.5", "( )")
_BINDERS = ("\\ x", "\\ y", "_", "1", '"s"', "false", "< t >")
_OPERATORS = (">", "<", ">=", "<=", "=", "+", "and")
_STRAYS = (">", "]", "=>", "|", "<-", ",", "[", "<")


def _pattern(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(_BINDERS)

    def field():    # a sub-pattern or an equality expression
        return _pattern(rng, depth - 1) if rng.random() < 0.5 else _expression(rng, depth - 1)

    shape = rng.randrange(5)
    if shape == 0:
        return f"[ a = {field()} ]"
    if shape == 1:
        return f"[ a = {field()} , b = {field()} ]"
    if shape == 2:
        return f"[ a = {field()} , ... ]"
    if shape == 3:
        return f"< t = {field()} >"
    return f"( {_pattern(rng, depth - 1)} )"


def _expression(rng, depth):
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(_LEAVES)

    def e():
        return _expression(rng, depth - 1)

    def p():
        return _pattern(rng, depth - 1)

    shape = rng.randrange(14)
    if shape == 0:
        return f"[ a = {e()} ]"
    if shape == 1:
        return f"[ a = {e()} , b = {e()} ]"
    if shape == 2:
        return f"< t = {e()} >"
    if shape == 3:
        return f"f ( {e()} )"
    if shape == 4:
        return f"f ( {e()} , {e()} )"
    if shape == 5:
        return f"( {e()} )"
    if shape == 6:
        return f"{e()} {rng.choice(_OPERATORS)} {e()}"
    if shape == 7:
        return f"{p()} => {e()}"
    if shape == 8:
        return f"{p()} => {e()} | {p()} => {e()}"
    if shape == 9:
        return f"{{ {e()} | {p()} <- {e()} , {e()} }}"
    if shape == 10:
        return f"{{| {e()} | {p()} <- {e()} |}}"
    if shape == 11:
        return f"[| {e()} , {e()} |]"
    if shape == 12:
        return f"{{ {e()} | {e()} }}"
    return f"if {e()} then {e()} else {e()}"


def _text(seed):
    """A well-formed nesting, or one with a token dropped, doubled or replaced."""
    rng = random.Random(seed)
    tokens = _expression(rng, rng.randrange(2, 6)).split(" ")
    damage = rng.choice(("none", "none", "drop", "double", "stray"))
    index = rng.randrange(len(tokens))
    if damage == "drop":
        del tokens[index]
    elif damage == "double":
        tokens.insert(index, tokens[index])
    elif damage == "stray":
        tokens[index] = rng.choice(_STRAYS)
    return " ".join(tokens)


@settings(max_examples=1500, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_memoised_and_unmemoised_parsers_agree(seed):
    text = _text(seed)
    assert _outcome(Parser, text) == _outcome(_Unmemoised, text), text


def test_the_property_reaches_both_outcomes_and_every_construct():
    outcomes = [_outcome(Parser, _text(seed)) for seed in range(400)]
    kinds = {outcome[0] for outcome in outcomes}
    assert kinds == {"ok", "error"}
    names = set()

    def collect(dumped):
        if isinstance(dumped, tuple):
            if len(dumped) == 4 and isinstance(dumped[0], str) and isinstance(dumped[3], tuple):
                names.add(dumped[0])
            for part in dumped:
                collect(part)

    for outcome in outcomes:
        if outcome[0] == "ok":
            collect(outcome[1])
    assert {"SLambda", "SVariant", "SRecord", "SComprehension", "PRecord", "PVariant",
            "PExpr", "PVar", "SBinOp", "SIf", "Generator", "Filter"} <= names
