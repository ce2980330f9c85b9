"""CPL text can only nest as deep as the walks after the parser can go.

Type checking, desugaring and expansion each recurse once per level of the
tree.  The parser bounds the tree's height where it first enters: a
left-associative chain counts as deep as it is long, and so do nested
parentheses, ``not not ...``, postfix chains, qualifiers and clauses.  Past
:data:`MAX_DEPTH` the answer is a :class:`CPLSyntaxError` with a position —
locally and over the wire — and it comes as soon as the parser reaches the
bound, not after the whole text.
"""

import time

import pytest

from repro.core.cpl.parser import MAX_DEPTH, parse_expression
from repro.core.cpl.typecheck import TypeChecker
from repro.core.errors import CPLSyntaxError, ReproError
from repro.kleisli.session import Session
from repro.server import KleisliClient, KleisliServer
from repro.server.client import RemoteQueryError

from test_parser_memo import _texts_of_the_parser_suite


def _chain(terms):
    return "1" + "+1" * terms


TOO_DEEP = {
    "600 terms": _chain(600),
    "1 000 terms": _chain(1000),
    "10 000 terms": _chain(10 ** 4),
    "100 000 terms": _chain(10 ** 5),
    "1 000 parentheses": "(" * 1000 + "1" + ")" * 1000,
}

#: Every way a tree gets taller, ``n`` levels of it.
SHAPES = {
    "sum": lambda n: "1" + " + 1" * n,
    "or": lambda n: "true" + " or true" * n,
    "not": lambda n: "not " * n + "true",
    "minus": lambda n: "- " * n + "1",
    "minus under a sum": lambda n: "- " * (n // 2) + "1" + " + 1" * (n // 2),
    "projection": lambda n: "[a = 1]" + ".a" * n,
    "if": lambda n: "if true then 1 else " * n + "1",
    "qualifiers": lambda n: "{1 | " + ", ".join(["\\x <- {1}"] * n) + "}",
    "clauses": lambda n: " | ".join(f"{i} => {i}" for i in range(n)),
}


@pytest.mark.parametrize("text", TOO_DEEP.values(), ids=TOO_DEEP.keys())
def test_a_text_too_deep_is_a_syntax_error_with_a_position(text):
    started = time.perf_counter()
    with pytest.raises(CPLSyntaxError) as info:
        Session().query(text)
    # Parsing 100 000 terms took about 2 s before the bound existed.
    assert time.perf_counter() - started < 2.0
    assert info.value.line == 1 and info.value.column > 0


def test_over_the_wire_the_error_is_typed_too():
    with KleisliServer() as server, KleisliClient(server.address) as client:
        for text in TOO_DEEP.values():
            with pytest.raises(RemoteQueryError) as info:
                client.query(text)
            assert info.value.error_type == "CPLSyntaxError"
        assert client.query("1 + 1") is not None


def test_the_bound_is_the_height_of_the_tree():
    parse_expression(_chain(MAX_DEPTH - 1))          # MAX_DEPTH levels
    with pytest.raises(CPLSyntaxError, match=f"more than {MAX_DEPTH} levels"):
        parse_expression(_chain(MAX_DEPTH))
    # A tall operand under a long chain: the chain sits on top of it.
    with pytest.raises(CPLSyntaxError):
        parse_expression("- " * 300 + "1" + " + 1" * 300)
    # Siblings do not add up: a tall field beside a long chain is fine.
    parse_expression(f"[a = {_chain(300)}, b = {_chain(300)}]")
    parse_expression(f"{_chain(300)} = {_chain(300)}")


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_every_shape_is_bounded_and_type_checks_below_the_bound(shape):
    with pytest.raises(CPLSyntaxError):
        parse_expression(shape(MAX_DEPTH + 50))
    # The tallest tree the parser lets through type-checks without running
    # out of stack (a type error is an answer too).
    levels = MAX_DEPTH
    while True:
        try:
            tree = parse_expression(shape(levels))
            break
        except CPLSyntaxError:
            levels -= 10
    assert levels >= MAX_DEPTH // 2 - 10
    try:
        TypeChecker().infer(tree)
    except ReproError:
        pass


def test_every_parser_suite_text_is_within_the_bound():
    for text, _program in _texts_of_the_parser_suite():
        try:
            parse_expression(text)
        except CPLSyntaxError as error:
            assert "levels deep" not in str(error), text
