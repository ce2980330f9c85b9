"""The CPL lexer.

Token classes:

* ``IDENT`` — identifiers and field labels.  Following the paper's examples
  (``locus-symbol``, ``medline-jta``, ``GDB-Tab``) hyphens are allowed *inside*
  identifiers: a ``-`` directly between two identifier characters is part of
  the name.  Subtraction therefore must be written with spaces (``a - b``),
  which matches how the paper writes arithmetic.
* ``INT``, ``FLOAT``, ``STRING`` — literals.  Strings are double-quoted with
  ``\\"``, ``\\\\``, ``\\n`` and ``\\t`` escapes.
* ``KEYWORD`` — ``define``, ``if``, ``then``, ``else``, ``true``, ``false``,
  ``and``, ``or``, ``not``, ``in``, ``let``.
* punctuation and operators, longest-match first: ``{|  |}  [|  |]  <-  <=  >=
  <>  ==  =>  ...  ^  !`` and the single-character symbols.

Comments run from ``--`` to the end of the line.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

from ..errors import CPLSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


KEYWORDS = {
    "define", "if", "then", "else", "true", "false", "and", "or", "not",
    "let", "in",
}

# Multi-character symbols, longest first so greedy matching is correct.
_SYMBOLS = [
    "{|", "|}", "[|", "|]", "...", "<-", "<=", ">=", "<>", "==", "=>",
    "{", "}", "[", "]", "<", ">", "(", ")", ",", ".", ";", "|", "\\",
    "=", "+", "-", "*", "/", "^", "!", "_",
]

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def tokenize(text: str) -> List[Token]:
    """Tokenise CPL source text, raising :class:`CPLSyntaxError` on bad input."""
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[Token]:
    pos = 0
    line = 1
    line_start = 0
    length = len(text)

    def column() -> int:
        return pos - line_start + 1

    while pos < length:
        char = text[pos]

        if char == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if char in " \t\r":
            pos += 1
            continue
        if text.startswith("--", pos):
            end = text.find("\n", pos)
            pos = length if end == -1 else end
            continue

        if char == '"':
            token, pos = _lex_string(text, pos, line, column())
            yield token
            continue

        if char.isdigit():
            token, pos = _lex_number(text, pos, line, column())
            yield token
            continue

        if char in _IDENT_START:
            token, pos = _lex_identifier(text, pos, line, column())
            yield token
            continue

        matched = False
        for symbol in _SYMBOLS:
            if text.startswith(symbol, pos):
                # '_' alone is the wildcard; '_' followed by identifier chars is
                # an identifier and was handled above.
                yield Token("SYMBOL", symbol, line, column())
                pos += len(symbol)
                matched = True
                break
        if matched:
            continue

        raise CPLSyntaxError(f"unexpected character {char!r}", line, column())

    yield Token("EOF", "", line, column())


def _lex_string(text: str, pos: int, line: int, column: int):
    start = pos
    pos += 1
    parts: List[str] = []
    while pos < len(text):
        char = text[pos]
        if char == '"':
            return Token("STRING", "".join(parts), line, column), pos + 1
        if char == "\n":
            raise CPLSyntaxError("unterminated string literal", line, column)
        if char == "\\":
            if pos + 1 >= len(text):
                raise CPLSyntaxError("unterminated escape sequence", line, column)
            escape = text[pos + 1]
            if escape not in _ESCAPES:
                raise CPLSyntaxError(f"unknown escape sequence \\{escape}", line, column)
            parts.append(_ESCAPES[escape])
            pos += 2
            continue
        parts.append(char)
        pos += 1
    raise CPLSyntaxError("unterminated string literal", line, column)


def _lex_number(text: str, pos: int, line: int, column: int):
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    is_float = False
    if pos < len(text) and text[pos] == "." and pos + 1 < len(text) and text[pos + 1].isdigit():
        is_float = True
        pos += 1
        while pos < len(text) and text[pos].isdigit():
            pos += 1
    if pos < len(text) and text[pos] in "eE":
        lookahead = pos + 1
        if lookahead < len(text) and text[lookahead] in "+-":
            lookahead += 1
        if lookahead < len(text) and text[lookahead].isdigit():
            is_float = True
            pos = lookahead
            while pos < len(text) and text[pos].isdigit():
                pos += 1
    value = text[start:pos]
    kind = "FLOAT" if is_float else "INT"
    return Token(kind, value, line, column), pos


def _lex_identifier(text: str, pos: int, line: int, column: int):
    start = pos
    pos += 1
    while pos < len(text):
        char = text[pos]
        if char in _IDENT_CONT:
            pos += 1
            continue
        # A hyphen joins two identifier characters into one hyphenated name
        # (e.g. locus-symbol); otherwise it is the minus operator.
        if char == "-" and pos + 1 < len(text) and text[pos + 1] in _IDENT_CONT:
            pos += 2
            continue
        break
    name = text[start:pos]
    if name == "_":
        return Token("SYMBOL", "_", line, column), pos
    if name in KEYWORDS:
        return Token("KEYWORD", name, line, column), pos
    return Token("IDENT", name, line, column), pos
