"""Lexer for the SQL subset."""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ...core.errors import SQLSyntaxError

__all__ = ["SQLToken", "tokenize_sql", "SQL_KEYWORDS"]


class SQLToken(NamedTuple):
    kind: str       # KEYWORD | IDENT | STRING | NUMBER | SYMBOL | EOF
    value: str
    position: int


SQL_KEYWORDS = {
    "select", "distinct", "from", "where", "and", "or", "order", "by",
    "asc", "desc", "limit", "in", "like", "as", "not", "null", "is",
}

_SYMBOLS = ["<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", ".", "*"]

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")

_DIGITS = frozenset("0123456789")

#: The one numeral grammar: digits, at most one ``.``, an optional exponent.
_NUMERAL = re.compile(r"-?[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
#: What a numeral runs into when it is malformed (``7...``, ``1.2.3``, ``1e``).
_NUMERAL_TAIL = re.compile(r"[0-9A-Za-z_.]+")


def tokenize_sql(text: str) -> List[SQLToken]:
    """Tokenise SQL text; identifiers keep their case, keywords are lowercased."""
    tokens: List[SQLToken] = []
    pos = 0
    length = len(text)
    while pos < length:
        char = text[pos]
        if char.isspace():
            pos += 1
            continue
        if char == "'":
            end = pos + 1
            parts: List[str] = []
            while end < length:
                if text[end] == "'" and end + 1 < length and text[end + 1] == "'":
                    parts.append("'")
                    end += 2
                    continue
                if text[end] == "'":
                    break
                parts.append(text[end])
                end += 1
            if end >= length:
                raise SQLSyntaxError(f"unterminated string literal at position {pos}")
            tokens.append(SQLToken("STRING", "".join(parts), pos))
            pos = end + 1
            continue
        if char in _DIGITS or (char == "-" and pos + 1 < length and text[pos + 1] in _DIGITS
                               and _previous_is_operator(tokens)):
            end = _NUMERAL.match(text, pos).end()
            tail = _NUMERAL_TAIL.match(text, end)
            if tail is not None:
                raise SQLSyntaxError(
                    f"malformed number {text[pos:tail.end()]!r} at position {pos}")
            tokens.append(SQLToken("NUMBER", text[pos:end], pos))
            pos = end
            continue
        if char.isalpha() or char == "_":
            end = pos
            while end < length and text[end] in _IDENT_CHARS:
                end += 1
            word = text[pos:end]
            if word.lower() in SQL_KEYWORDS:
                tokens.append(SQLToken("KEYWORD", word.lower(), pos))
            else:
                tokens.append(SQLToken("IDENT", word, pos))
            pos = end
            continue
        matched = False
        for symbol in _SYMBOLS:
            if text.startswith(symbol, pos):
                tokens.append(SQLToken("SYMBOL", symbol, pos))
                pos += len(symbol)
                matched = True
                break
        if not matched:
            raise SQLSyntaxError(f"unexpected character {char!r} at position {pos}")
    tokens.append(SQLToken("EOF", "", pos))
    return tokens


def _previous_is_operator(tokens: List[SQLToken]) -> bool:
    """A leading '-' is a negative-number sign only after an operator, '(',
    or the ``from`` of ``is [not] distinct from``."""
    if not tokens:
        return True
    last = tokens[-1]
    if last.kind == "KEYWORD":
        return last.value == "from"
    return last.kind == "SYMBOL" and last.value in ("=", "<>", "!=", "<", "<=", ">", ">=", "(", ",")
