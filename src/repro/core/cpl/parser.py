"""Recursive-descent parser for CPL.

The grammar follows the paper's examples::

    program      := statement (";" statement)* [";"]
    statement    := "define" IDENT "==" expr  |  expr
    expr         := lambda | "if" expr "then" expr "else" expr | orexpr
    lambda       := "\\" pattern "=>" expr ("|" pattern "=>" expr)*
    orexpr       := andexpr ("or" andexpr)*
    andexpr      := notexpr ("and" notexpr)*
    notexpr      := "not" notexpr | comparison
    comparison   := additive (("=" | "<>" | "<" | "<=" | ">" | ">=") additive)?
    additive     := multiplicative (("+" | "-" | "^") multiplicative)*
    multiplicative := unary (("*" | "/") unary)*
    unary        := "-" unary | "!" unary | postfix
    postfix      := primary ("." IDENT | "(" args ")")*
    primary      := literal | IDENT | "(" expr ")" | record | variant
                  | set/bag/list literal or comprehension
    record       := "[" [IDENT "=" expr ("," IDENT "=" expr)*] "]"
    variant      := "<" IDENT ["=" expr] ">"
    collection   := "{" [expr ("|" qualifiers | ("," expr)*)] "}"   (and {| |}, [| |])
    qualifier    := pattern "<-" expr  |  expr
    pattern      := "\\" IDENT | "_" | literal | record-pattern | variant-pattern | expr
    args         := expr ("," expr)*

Notes on the two ambiguities the grammar has, and how they are resolved:

* ``|`` separates lambda clauses *and* the head of a comprehension from its
  qualifiers.  The parser passes an ``allow_bar`` flag down; inside a
  comprehension head (and inside a lambda clause body that itself sits inside
  a comprehension) the flag is off, so the ``|`` belongs to the enclosing
  construct.  Multi-clause functions therefore need parentheses when written
  inside a comprehension head, which matches the paper's usage (multi-clause
  functions appear only in ``define``).
* In qualifier position the parser first tries ``pattern <- expr`` and
  backtracks to a boolean filter when no ``<-`` follows.

Both are decided by *speculation*: run :meth:`Parser.parse_pattern`, look at
the next token, rewind.  A pattern reads a field it cannot take as a
sub-pattern with ``parse_expr``, so a speculation may contain a whole real
parse — thrown away and repeated at every level of nesting, doubling per
level.  ``parse_pattern`` therefore remembers, for the life of one
:class:`Parser`, what it found at each token position (the pattern and its
end, or what the :class:`CPLSyntaxError` said); every later attempt there,
speculative or real, is a lookup.  The key includes whether ``_angle_depth``
is non-zero: in a variant payload ``>`` closes the variant instead of
comparing, and every change of the depth is undone on the way out, error or
not, so it depends on where the parser is and never on what it tried before.

Every later walk over the tree — type checking, desugaring, expansion —
recurses once per level, so the parser bounds the height of the tree it
builds, where the tree first enters: past :data:`MAX_DEPTH` it raises
:class:`CPLSyntaxError` at the token that went too deep.  ``_depth`` counts
the levels open on the parser's own stack (an expression, a ``not`` or a
unary minus); ``_high`` is the tallest level the tree reaches.  A loop that
stacks nodes without recursing — a left-associative operator chain, a
postfix chain, the qualifiers of a comprehension, the clauses of a
function — measures its own operands (it starts ``_high`` at ``_depth``)
and adds one level per step, so ``1 + 1 + ... + 1`` is as deep as it is
long.  A failed speculation restores both counters with the position.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import CPLSyntaxError
from . import ast as S
from .lexer import Token, tokenize

__all__ = ["MAX_DEPTH", "parse", "parse_expression", "Parser"]

#: The tallest tree the parser builds: the type checker spends two frames
#: of the interpreter's recursion limit (1000) per level, and the caller's
#: stack needs the rest.
MAX_DEPTH = 400

_COMPARISON_OPS = {"=": "=", "<>": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ADDITIVE_OPS = {"+": "+", "-": "-", "^": "^"}
_MULTIPLICATIVE_OPS = {"*": "*", "/": "/"}

#: What :meth:`Parser._parse_pattern` can begin with: a literal, or one of these.
_LITERAL_TOKENS = frozenset({"INT", "FLOAT", "STRING"})
_PATTERN_OPENERS = frozenset([("SYMBOL", symbol) for symbol in "\\_[<("]
                             + [("KEYWORD", "true"), ("KEYWORD", "false")])

_COLLECTION_BRACKETS = {
    "{": ("}", "set"),
    "{|": ("|}", "bag"),
    "[|": ("|]", "list"),
}


def parse(text: str) -> S.Program:
    """Parse a CPL program (a sequence of statements)."""
    parser = Parser(tokenize(text))
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser._error("expression nests too deeply to parse") from None


def parse_expression(text: str) -> S.SExpr:
    """Parse a single CPL expression."""
    parser = Parser(tokenize(text))
    try:
        expr = parser.parse_expr(allow_bar=True)
    except RecursionError:
        raise parser._error("expression nests too deeply to parse") from None
    parser.expect_eof()
    return expr


class Parser:
    """A backtracking recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0
        # While parsing the payload of a variant literal/pattern, '>' closes
        # the variant rather than acting as the greater-than operator.  A
        # parenthesised payload restores normal operator parsing.
        self._angle_depth = 0
        #: (position, in a variant payload?) -> (pattern, end)
        #: | ((message, line, column), None)
        #: | ((message, line, column), None), plus the pattern's height.
        self._patterns: Dict[Tuple[int, bool],
                             Tuple[object, Optional[int], int]] = {}
        #: Levels open on the parser's stack, and the tallest level reached.
        self._depth = 0
        self._high = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.kind != "EOF":
            self.position += 1
        return token

    def _check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def _check_symbol(self, value: str) -> bool:
        return self._check("SYMBOL", value)

    def _check_keyword(self, value: str) -> bool:
        return self._check("KEYWORD", value)

    def _accept_symbol(self, value: str) -> bool:
        if self._check_symbol(value):
            self._advance()
            return True
        return False

    def _accept_keyword(self, value: str) -> bool:
        if self._check_keyword(value):
            self._advance()
            return True
        return False

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            expected = value if value is not None else kind
            raise CPLSyntaxError(
                f"expected {expected!r} but found {token.value or token.kind!r}",
                token.line, token.column,
            )
        return self._advance()

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind != "EOF":
            raise CPLSyntaxError(
                f"unexpected trailing input starting at {token.value!r}",
                token.line, token.column,
            )

    def _error(self, message: str) -> CPLSyntaxError:
        token = self._peek()
        return CPLSyntaxError(message, token.line, token.column)

    def _rise(self, level: int) -> None:
        """The tree reaches ``level`` here."""
        if level > self._high:
            if level > MAX_DEPTH:
                raise self._error(
                    f"expression nests more than {MAX_DEPTH} levels deep")
            self._high = level

    def _open(self) -> None:
        """One more level of the tree is open on the parser's stack."""
        self._depth += 1
        if self._depth > self._high:
            self._rise(self._depth)

    # -- program / statements --------------------------------------------------

    def parse_program(self) -> S.Program:
        statements: List[S.Statement] = []
        while not self._check("EOF"):
            statements.append(self.parse_statement())
            while self._accept_symbol(";"):
                pass
        return S.Program(statements)

    def parse_statement(self) -> S.Statement:
        token = self._peek()
        if self._accept_keyword("define"):
            name_token = self._expect("IDENT")
            self._expect("SYMBOL", "==")
            expr = self.parse_expr(allow_bar=True)
            statement = S.Define(name_token.value, expr)
        else:
            statement = S.ExprStatement(self.parse_expr(allow_bar=True))
        statement.at(token.line, token.column)
        return statement

    # -- expressions ------------------------------------------------------------

    def parse_expr(self, allow_bar: bool) -> S.SExpr:
        token = self._peek()
        self._open()
        if self._is_lambda_start():
            expr = self._parse_lambda(allow_bar)
        elif self._accept_keyword("if"):
            cond = self.parse_expr(allow_bar)
            self._expect("KEYWORD", "then")
            then_branch = self.parse_expr(allow_bar)
            self._expect("KEYWORD", "else")
            else_branch = self.parse_expr(allow_bar)
            expr = S.SIf(cond, then_branch, else_branch).at(token.line, token.column)
        else:
            expr = self._parse_or(allow_bar)
        self._depth -= 1
        return expr

    def _is_lambda_start(self) -> bool:
        """Does a ``pattern => ...`` clause begin here?

        A function is written ``pattern => body | pattern => body | ...`` —
        the paper's ``\\x => e`` form is simply the case where the pattern is a
        binding pattern.  Detection backtracks: try a pattern and look for the
        ``=>`` arrow — unless the first token cannot begin a pattern.
        """
        token = self._peek()
        if token.kind not in _LITERAL_TOKENS \
                and (token.kind, token.value) not in _PATTERN_OPENERS:
            return False
        saved = self.position, self._depth, self._high
        try:
            self.parse_pattern()
            return self._check_symbol("=>")
        except CPLSyntaxError:
            return False
        finally:
            self.position, self._depth, self._high = saved

    def _parse_lambda(self, allow_bar: bool) -> S.SExpr:
        token = self._peek()
        clauses: List[S.LambdaClause] = []
        high, self._high = self._high, self._depth
        while True:
            pattern = self.parse_pattern()
            self._expect("SYMBOL", "=>")
            body = self.parse_expr(allow_bar=False)
            clauses.append(S.LambdaClause(pattern, body))
            # After '|', another ``pattern => ...`` clause (multi-clause define)?
            if allow_bar and self._accept_symbol("|"):
                if self._is_lambda_start():
                    self._rise(self._high + 1)     # a clause falls through
                    continue
                self.position -= 1
            break
        self._high = max(high, self._high)
        return S.SLambda(clauses).at(token.line, token.column)

    def _parse_or(self, allow_bar: bool) -> S.SExpr:
        high, self._high = self._high, self._depth
        left = self._parse_and(allow_bar)
        while self._accept_keyword("or"):
            left = S.SBinOp("or", left, self._parse_and(allow_bar))
            self._rise(self._high + 1)
        self._high = max(high, self._high)
        return left

    def _parse_and(self, allow_bar: bool) -> S.SExpr:
        high, self._high = self._high, self._depth
        left = self._parse_not(allow_bar)
        while self._accept_keyword("and"):
            left = S.SBinOp("and", left, self._parse_not(allow_bar))
            self._rise(self._high + 1)
        self._high = max(high, self._high)
        return left

    def _parse_not(self, allow_bar: bool) -> S.SExpr:
        if self._accept_keyword("not"):
            self._open()
            operand = self._parse_not(allow_bar)
            self._depth -= 1
            return S.SUnaryOp("not", operand)
        return self._parse_comparison(allow_bar)

    def _parse_comparison(self, allow_bar: bool) -> S.SExpr:
        left = self._parse_additive(allow_bar)
        token = self._peek()
        if token.kind == "SYMBOL" and token.value in _COMPARISON_OPS:
            if self._angle_depth > 0 and token.value in (">", ">="):
                return left
            self._advance()
            right = self._parse_additive(allow_bar)
            return S.SBinOp(_COMPARISON_OPS[token.value], left, right)
        return left

    def _parse_additive(self, allow_bar: bool) -> S.SExpr:
        high, self._high = self._high, self._depth
        left = self._parse_multiplicative(allow_bar)
        token = self._peek()
        while token.kind == "SYMBOL" and token.value in _ADDITIVE_OPS:
            self._advance()
            left = S.SBinOp(token.value, left, self._parse_multiplicative(allow_bar))
            self._rise(self._high + 1)
            token = self._peek()
        self._high = max(high, self._high)
        return left

    def _parse_multiplicative(self, allow_bar: bool) -> S.SExpr:
        high, self._high = self._high, self._depth
        left = self._parse_unary(allow_bar)
        token = self._peek()
        while token.kind == "SYMBOL" and token.value in _MULTIPLICATIVE_OPS:
            self._advance()
            left = S.SBinOp(token.value, left, self._parse_unary(allow_bar))
            self._rise(self._high + 1)
            token = self._peek()
        self._high = max(high, self._high)
        return left

    def _parse_unary(self, allow_bar: bool) -> S.SExpr:
        token = self._peek()
        if token.kind == "SYMBOL" and token.value in ("-", "!"):
            self._advance()
            self._open()
            operand = self._parse_unary(allow_bar)
            self._depth -= 1
            return S.SUnaryOp(token.value, operand)
        return self._parse_postfix(allow_bar)

    def _parse_postfix(self, allow_bar: bool) -> S.SExpr:
        high, self._high = self._high, self._depth
        expr = self._parse_primary(allow_bar)
        while True:
            if self._check_symbol(".") and self._peek(1).kind == "IDENT":
                self._advance()
                label = self._advance().value
                expr = S.SProject(expr, label)
            elif self._check_symbol("("):
                self._advance()
                args: List[S.SExpr] = []
                if not self._check_symbol(")"):
                    args.append(self.parse_expr(allow_bar=True))
                    while self._accept_symbol(","):
                        args.append(self.parse_expr(allow_bar=True))
                self._expect("SYMBOL", ")")
                expr = S.SApp(expr, args)
            else:
                break
            self._rise(self._high + 1)
        self._high = max(high, self._high)
        return expr

    def _parse_primary(self, allow_bar: bool) -> S.SExpr:
        token = self._peek()

        if token.kind == "INT":
            self._advance()
            return S.SLit(int(token.value)).at(token.line, token.column)
        if token.kind == "FLOAT":
            self._advance()
            return S.SLit(float(token.value)).at(token.line, token.column)
        if token.kind == "STRING":
            self._advance()
            return S.SLit(token.value).at(token.line, token.column)
        if token.kind == "KEYWORD" and token.value in ("true", "false"):
            self._advance()
            return S.SLit(token.value == "true").at(token.line, token.column)
        if token.kind == "IDENT":
            self._advance()
            return S.SVar(token.value).at(token.line, token.column)

        if self._accept_symbol("("):
            if self._accept_symbol(")"):
                return S.SLit(None).at(token.line, token.column)
            saved_depth = self._angle_depth
            self._angle_depth = 0
            try:
                expr = self.parse_expr(allow_bar=True)
            finally:
                self._angle_depth = saved_depth
            self._expect("SYMBOL", ")")
            return expr

        if self._check_symbol("["):
            return self._parse_record_literal()
        if self._check_symbol("<"):
            return self._parse_variant_literal()
        for opener in _COLLECTION_BRACKETS:
            if self._check_symbol(opener):
                return self._parse_collection(opener)

        raise self._error(f"unexpected token {token.value or token.kind!r} in expression")

    def _parse_record_literal(self) -> S.SExpr:
        token = self._expect("SYMBOL", "[")
        fields = {}
        if not self._check_symbol("]"):
            while True:
                label = self._expect("IDENT").value
                self._expect("SYMBOL", "=")
                fields[label] = self.parse_expr(allow_bar=True)
                if not self._accept_symbol(","):
                    break
        self._expect("SYMBOL", "]")
        return S.SRecord(fields).at(token.line, token.column)

    def _parse_variant_literal(self) -> S.SExpr:
        token = self._expect("SYMBOL", "<")
        tag = self._expect("IDENT").value
        value: Optional[S.SExpr] = None
        if self._accept_symbol("="):
            self._angle_depth += 1
            try:
                value = self.parse_expr(allow_bar=True)
            finally:
                self._angle_depth -= 1
        self._expect("SYMBOL", ">")
        return S.SVariant(tag, value).at(token.line, token.column)

    def _parse_collection(self, opener: str) -> S.SExpr:
        closer, kind = _COLLECTION_BRACKETS[opener]
        token = self._expect("SYMBOL", opener)
        if self._accept_symbol(closer):
            return S.SCollection(kind, []).at(token.line, token.column)

        high, self._high = self._high, self._depth
        head = self.parse_expr(allow_bar=False)

        if self._accept_symbol("|"):
            # ``{e |}`` (no qualifiers) is allowed and means the singleton {e}.
            qualifiers = [] if self._check_symbol(closer) else self._parse_qualifiers(closer)
            self._expect("SYMBOL", closer)
            self._high = max(high, self._high)
            return S.SComprehension(kind, head, qualifiers).at(token.line, token.column)

        elements = [head]
        while self._accept_symbol(","):
            elements.append(self.parse_expr(allow_bar=False))
        self._expect("SYMBOL", closer)
        self._high = max(high, self._high)
        return S.SCollection(kind, elements).at(token.line, token.column)

    def _parse_qualifiers(self, closer: str) -> List[S.Qualifier]:
        # Each qualifier nests the rest of the comprehension inside it.
        qualifiers: List[S.Qualifier] = [self._parse_qualifier()]
        while self._accept_symbol(","):
            qualifiers.append(self._parse_qualifier())
            self._rise(self._high + 1)
        return qualifiers

    def _parse_qualifier(self) -> S.Qualifier:
        token = self._peek()
        saved = self.position, self._depth, self._high
        try:
            pattern = self.parse_pattern()
            if self._accept_symbol("<-"):
                source = self.parse_expr(allow_bar=False)
                return S.Generator(pattern, source).at(token.line, token.column)
        except CPLSyntaxError:
            pass
        self.position, self._depth, self._high = saved
        condition = self.parse_expr(allow_bar=False)
        if self._accept_symbol("<-"):
            # e.g. ``x <- p.authors`` with a bound variable, or a projection on
            # the left: an equality pattern generator.
            source = self.parse_expr(allow_bar=False)
            return S.Generator(S.PExpr(condition), source).at(token.line, token.column)
        return S.Filter(condition).at(token.line, token.column)

    # -- patterns -----------------------------------------------------------------

    def parse_pattern(self) -> S.Pattern:
        """Parse a pattern here — once; see the module docstring."""
        key = (self.position, self._angle_depth > 0)
        outcome = self._patterns.get(key)
        if outcome is None:
            depth, high = self._depth, self._high
            self._high = depth
            try:
                outcome = (self._parse_pattern(), self.position, self._high - depth)
            except CPLSyntaxError as error:
                # What the error says, not the error: a kept exception keeps
                # its traceback, whose frames hold this parser — a cycle
                # that pins the locals of every caller up the stack (a
                # session's bound tables, a finished pipeline) until the
                # cyclic collector happens to run.
                outcome = ((error.message, error.line, error.column), None, 0)
            self._depth, self._high = depth, high
            self._patterns[key] = outcome
        result, end, height = outcome
        if end is None:
            raise CPLSyntaxError(*result)
        self.position = end
        self._rise(self._depth + height)
        return result

    def _parse_pattern(self) -> S.Pattern:
        token = self._peek()

        if self._accept_symbol("\\"):
            name = self._expect("IDENT").value
            return S.PVar(name).at(token.line, token.column)
        if self._accept_symbol("_"):
            return S.PWildcard().at(token.line, token.column)
        if token.kind == "INT":
            self._advance()
            return S.PLit(int(token.value)).at(token.line, token.column)
        if token.kind == "FLOAT":
            self._advance()
            return S.PLit(float(token.value)).at(token.line, token.column)
        if token.kind == "STRING":
            self._advance()
            return S.PLit(token.value).at(token.line, token.column)
        if token.kind == "KEYWORD" and token.value in ("true", "false"):
            self._advance()
            return S.PLit(token.value == "true").at(token.line, token.column)
        if self._check_symbol("["):
            return self._parse_record_pattern()
        if self._check_symbol("<"):
            return self._parse_variant_pattern()
        if self._check_symbol("("):
            self._advance()
            pattern = self.parse_pattern()
            self._expect("SYMBOL", ")")
            return pattern
        raise self._error(f"expected a pattern, found {token.value or token.kind!r}")

    def _parse_record_pattern(self) -> S.Pattern:
        token = self._expect("SYMBOL", "[")
        fields = {}
        open_record = False
        if not self._check_symbol("]"):
            while True:
                if self._accept_symbol("..."):
                    open_record = True
                    break
                label = self._expect("IDENT").value
                self._expect("SYMBOL", "=")
                fields[label] = self._parse_sub_pattern((",", "]"), in_variant=False)
                if not self._accept_symbol(","):
                    break
        self._expect("SYMBOL", "]")
        return S.PRecord(fields, open=open_record).at(token.line, token.column)

    def _parse_variant_pattern(self) -> S.Pattern:
        token = self._expect("SYMBOL", "<")
        tag = self._expect("IDENT").value
        pattern: Optional[S.Pattern] = None
        if self._accept_symbol("="):
            pattern = self._parse_sub_pattern((">",), in_variant=True)
        self._expect("SYMBOL", ">")
        return S.PVariant(tag, pattern).at(token.line, token.column)

    def _parse_sub_pattern(self, closers: Tuple[str, ...], in_variant: bool) -> S.Pattern:
        """A record field or variant payload inside a pattern: a sub-pattern
        when one of ``closers`` follows it, else an equality expression."""
        saved = self.position, self._high
        try:
            pattern = self.parse_pattern()
            if any(map(self._check_symbol, closers)):
                return pattern
        except CPLSyntaxError:
            pass
        self.position, self._high = saved
        self._angle_depth += in_variant
        try:
            return S.PExpr(self.parse_expr(allow_bar=False))
        finally:
            self._angle_depth -= in_variant
