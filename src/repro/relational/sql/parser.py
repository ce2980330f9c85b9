"""Parser for the SQL subset."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

from ...core.errors import SQLSyntaxError
from .ast import (
    ColumnRef,
    Comparison,
    InList,
    Like,
    OrderItem,
    SelectItem,
    SelectStatement,
    TableRef,
)
from .lexer import SQLToken, tokenize_sql

__all__ = ["parse_sql"]

_COMPARISON_SYMBOLS = {"=", "<>", "!=", "<", "<=", ">", ">="}


@lru_cache(maxsize=256)
def parse_sql(text: str) -> SelectStatement:
    """Parse a SELECT statement of the supported subset.

    Memoised: a driver sends the same few texts with every request, and no
    caller mutates a parsed statement.  A bad text raises on every call.
    """
    return _SQLParser(tokenize_sql(text)).parse_select()


def _number(token: SQLToken):
    """A NUMBER token's value: an ``int`` unless it has a ``.`` or an exponent."""
    try:
        if token.value.lstrip("-").isdigit():
            return int(token.value)
        return float(token.value)
    except ValueError:      # more digits than ``int`` converts
        raise SQLSyntaxError(f"number too long at position {token.position}") from None


class _SQLParser:

    def __init__(self, tokens: List[SQLToken]):
        self.tokens = tokens
        self.position = 0

    def _peek(self, offset: int = 0) -> SQLToken:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> SQLToken:
        token = self._peek()
        if token.kind != "EOF":
            self.position += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token.kind == "KEYWORD" and token.value == word:
            self._advance()
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        token = self._peek()
        if token.kind == "SYMBOL" and token.value == symbol:
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            token = self._peek()
            raise SQLSyntaxError(
                f"expected keyword {word!r} at position {token.position}, found {token.value!r}"
            )

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            token = self._peek()
            raise SQLSyntaxError(
                f"expected {symbol!r} at position {token.position}, found {token.value!r}"
            )

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "IDENT":
            raise SQLSyntaxError(
                f"expected an identifier at position {token.position}, found {token.value!r}"
            )
        self._advance()
        return token.value

    # -- grammar ---------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        select_items = self._parse_select_list()
        self._expect_keyword("from")
        tables = self._parse_table_list()
        predicates: List[object] = []
        if self._accept_keyword("where"):
            predicates = self._parse_predicates()
        order_by: List[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = self._parse_order_by()
        limit: Optional[int] = None
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.kind != "NUMBER":
                raise SQLSyntaxError(f"expected a number after LIMIT, found {token.value!r}")
            self._advance()
            try:
                limit = int(_number(token))
            except OverflowError:
                raise SQLSyntaxError(
                    f"LIMIT out of range at position {token.position}") from None
        token = self._peek()
        if token.kind != "EOF":
            raise SQLSyntaxError(
                f"unexpected trailing SQL starting with {token.value!r} at position {token.position}"
            )
        return SelectStatement(select_items, tables, predicates, order_by, limit, distinct)

    def _parse_order_by(self) -> List[OrderItem]:
        items = [self._parse_order_item()]
        while self._accept_symbol(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        column = self._parse_column_ref()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(column, descending)

    def _parse_select_list(self) -> List[SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_symbol(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self._accept_symbol("*"):
            return SelectItem(star=True)
        column = self._parse_column_ref()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "IDENT":
            alias = self._advance().value
        return SelectItem(column=column, alias=alias)

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect_ident()
        if self._accept_symbol("."):
            if self._accept_symbol("*"):
                # ``table.*`` — represent as a star item scoped by table.
                return ColumnRef("*", table=first)
            second = self._expect_ident()
            return ColumnRef(second, table=first)
        return ColumnRef(first)

    def _parse_table_list(self) -> List[TableRef]:
        tables = [self._parse_table_ref()]
        while self._accept_symbol(","):
            tables.append(self._parse_table_ref())
        return tables

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "IDENT":
            alias = self._advance().value
        return TableRef(name, alias)

    def _parse_predicates(self) -> List[object]:
        predicates = [self._parse_predicate()]
        while self._accept_keyword("and"):
            predicates.append(self._parse_predicate())
        if self._peek().kind == "KEYWORD" and self._peek().value == "or":
            raise SQLSyntaxError("OR is not supported in the WHERE clause of this SQL subset")
        return predicates

    def _parse_predicate(self) -> object:
        left = self._parse_operand()
        token = self._peek()
        if token.kind == "KEYWORD" and token.value == "in":
            if not isinstance(left, ColumnRef):
                raise SQLSyntaxError("IN requires a column on its left-hand side")
            self._advance()
            self._expect_symbol("(")
            values = [self._parse_constant()]
            while self._accept_symbol(","):
                values.append(self._parse_constant())
            self._expect_symbol(")")
            return InList(left, values)
        if token.kind == "KEYWORD" and token.value == "like":
            if not isinstance(left, ColumnRef):
                raise SQLSyntaxError("LIKE requires a column on its left-hand side")
            self._advance()
            pattern_token = self._peek()
            if pattern_token.kind != "STRING":
                raise SQLSyntaxError("LIKE requires a string pattern")
            self._advance()
            return Like(left, pattern_token.value)
        if token.kind == "KEYWORD" and token.value == "is":
            self._advance()
            negated = self._accept_keyword("not")
            if self._accept_keyword("distinct"):
                self._expect_keyword("from")
                op = "is not distinct from" if negated else "is distinct from"
                return Comparison(op, left, self._parse_operand())
            self._expect_keyword("null")
            return Comparison("is not null" if negated else "is null", left, None)
        if token.kind == "SYMBOL" and token.value in _COMPARISON_SYMBOLS:
            self._advance()
            right = self._parse_operand()
            op = "<>" if token.value == "!=" else token.value
            return Comparison(op, left, right)
        raise SQLSyntaxError(f"expected a comparison operator at position {token.position}")

    def _parse_operand(self) -> object:
        token = self._peek()
        if token.kind == "IDENT":
            return self._parse_column_ref()
        return self._parse_constant()

    def _parse_constant(self) -> object:
        token = self._peek()
        if token.kind == "STRING":
            self._advance()
            return token.value
        if token.kind == "NUMBER":
            self._advance()
            return _number(token)
        if token.kind == "KEYWORD" and token.value == "null":
            self._advance()
            return None
        raise SQLSyntaxError(f"expected a constant at position {token.position}, found {token.value!r}")
