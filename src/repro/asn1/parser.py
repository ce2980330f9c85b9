"""Type-directed parser for the ASN.1 text form of values.

Because ``{ ... }`` is used both for constructed types (SEQUENCE) and for
collections (SET OF / SEQUENCE OF), parsing is driven by the expected type,
as in ASN.1 value notation.  :func:`parse_value` parses the whole value;
:func:`parse_value_with_path` parses only what a path needs: the paper's
"pruning at the level of the ASN.1 driver ... to minimize the cost of
parsing and copying ASN.1 values", which benchmark E5 measures against
retrieve-then-prune.

A ``.label`` step at a SEQUENCE and a ``..tag`` step at a SET OF CHOICE are
one scan (:func:`_scan`).  It stops only at braces and where an item at the
top level of the braced value starts with the wanted name, and skips the
rest with one ``re`` match per run.  A ``..tag`` step at a collection of
non-CHOICE values parses it whole and reads it as empty.  The contract:

* skipped text is checked only for balanced braces and closed strings.  Its
  labels, tags and scalars are neither read nor type-checked (a widening:
  the field-by-field skip this replaced read every label);
* a wanted item is read by the full parse's descent and must be followed
  by ``,`` or ``}``;
* a repeated label keeps its last value, as the full parse does; every item
  with the wanted tag is kept, in order.

So wherever :func:`parse_value` reads a value, :func:`parse_value_with_path`
reads ``path.apply`` of it, or raises ``PathApplicationError`` where it does.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from ..core import types as T
from ..core.errors import ASN1ParseError, PathApplicationError
from ..core.values import Record, UNIT_VALUE, Variant, make_collection
from .path import PathExpression, PathStep, ProjectStep, VariantStep

__all__ = ["parse_value", "parse_value_with_path"]


def parse_value(text: str, ty: T.Type) -> object:
    """Parse ASN.1 text of type ``ty`` into a CPL value."""
    return _parse_text(text, ty, None)


def parse_value_with_path(text: str, ty: T.Type, path: PathExpression) -> object:
    """``path.apply(parse_value(text, ty))``, skipping the text off the path."""
    return _parse_text(text, ty, tuple(path.steps))


def _parse_text(text: str, ty: T.Type, steps: Optional[Tuple[PathStep, ...]]) -> object:
    cursor = _Cursor(text)
    value = _parse(cursor, ty, steps)
    cursor.skip_whitespace()
    if cursor.pos < len(cursor.text):
        rest = cursor.text[cursor.pos:cursor.pos + 30]
        raise ASN1ParseError(f"trailing text after ASN.1 value: {rest!r}")
    return value


#: ASN.1's names for the REALs no numeral writes (the printer writes them).
_SPECIAL_REALS = {"PLUS-INFINITY": "inf", "MINUS-INFINITY": "-inf", "NOT-A-NUMBER": "nan"}


#: One ``match`` each, at the cursor: whitespace (``str.isspace``), then a
#: name (``str.isalnum`` characters, ``_`` and ``-``), a numeral's text or
#: one of the four characters the grammar accepts.
_SPACE = re.compile(r"\s*").match
_NAME = re.compile(r"\s*([\w-]+)").match
_NUMERAL = re.compile(r"[\d.eE+-]*").match
_TOKEN = {char: re.compile(r"\s*" + re.escape(char)).match for char in ',{}"'}


class _Cursor:
    """A position in the input text with primitive scanning operations,
    each a precompiled ``re`` match or a ``str.find`` (never a walk one
    character at a time)."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_whitespace(self) -> None:
        self.pos = _SPACE(self.text, self.pos).end()

    def peek(self) -> str:
        self.pos = pos = _SPACE(self.text, self.pos).end()
        return self.text[pos:pos + 1]

    def expect(self, char: str) -> None:
        if not self.accept(char):
            found = self.text[self.pos:self.pos + 10] or "<end>"
            raise ASN1ParseError(f"expected {char!r} at position {self.pos}, found {found!r}")

    def accept(self, char: str) -> bool:
        match = _TOKEN[char](self.text, self.pos)
        if match is None:
            self.skip_whitespace()
            return False
        self.pos = match.end()
        return True

    def read_name(self) -> str:
        match = _NAME(self.text, self.pos)
        if match is None:
            self.skip_whitespace()
            raise ASN1ParseError(f"expected a name at position {self.pos}")
        self.pos = match.end()
        return match.group(1)

    def read_string(self) -> str:
        """A quoted string; ``""`` inside it is one ``"``."""
        self.expect('"')
        text, start = self.text, self.pos
        end = text.find('"', start)
        while end >= 0 and text.startswith('"', end + 1):
            end = text.find('"', end + 2)
        if end < 0:
            raise ASN1ParseError("unterminated string in ASN.1 value")
        self.pos = end + 1
        return text[start:end].replace('""', '"')

    def read_number(self, real: Optional[bool]) -> object:
        """An INTEGER (``real`` false: an integer literal, as an ``int``) or a
        REAL (``real`` true: a float or integer literal or one of the three
        special values, as a ``float``); ``None`` reads either, by its form."""
        self.pos = start = _SPACE(self.text, self.pos).end()
        if self.text[start:start + 1].isalpha():
            name = self.read_name()
            if real is not False and name in _SPECIAL_REALS:
                return float(_SPECIAL_REALS[name])
            raise ASN1ParseError(f"expected a number at position {start}, found {name!r}")
        self.pos = _NUMERAL(self.text, start).end()
        literal = self.text[start:self.pos]
        if real is None:
            real = any(ch in literal for ch in ".eE")
        try:
            return float(literal) if real else int(literal)
        except ValueError:
            raise ASN1ParseError(
                f"malformed {'REAL' if real else 'INTEGER'} {literal!r} "
                f"at position {start}") from None


# ---------------------------------------------------------------------------
# Pruning: one scan per path step
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _scanner(name: str):
    """``at_name`` matches ``name`` as a whole name; ``skip``, the longest run
    with no brace, no unclosed string and no ``,`` before ``name``.  Each of
    its repetitions starts with a ``"`` or ``,`` the run before cannot take,
    so a match backtracks at most one string's length."""
    at_name = r"\s*" + re.escape(name) + r"(?![\w-])"
    skip = r'[^{}",]*(?:(?:"[^"]*"|,(?!' + at_name + r'))[^{}",]*)*'
    return re.compile(skip).match, re.compile(at_name).match


def _scan(cursor: _Cursor, name: str, parse_item: Callable[[], object]) -> List[object]:
    """Read the braced value at the cursor to its closing brace.  At each
    item at its top level that starts with ``name``, step past the name and
    call ``parse_item``; return what those calls read, in order."""
    skip, at_name = _scanner(name)
    cursor.expect("{")
    text, pos, depth, items = cursor.text, cursor.pos, 1, []
    match = at_name(text, pos)
    while True:
        if match:
            cursor.pos = match.end()
            items.append(parse_item())
            if cursor.peek() not in (",", "}"):
                raise ASN1ParseError(
                    f"expected ',' or '}}' after {name!r} at position {cursor.pos}")
            pos = cursor.pos
        pos = skip(text, pos).end()
        char = text[pos:pos + 1]
        pos += 1
        match = at_name(text, pos) if char == "," and depth == 1 else None
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if not depth:
                cursor.pos = pos
                return items
        elif char == '"':
            raise ASN1ParseError("unterminated string in ASN.1 value")
        elif not char:
            raise ASN1ParseError("unbalanced braces in ASN.1 value")


# ---------------------------------------------------------------------------
# Type-directed parsing
# ---------------------------------------------------------------------------

def _parse(cursor: _Cursor, ty: T.Type, steps: Optional[Tuple[PathStep, ...]]) -> object:
    if isinstance(ty, T.RecordType):
        return _parse_record(cursor, ty, steps)
    if isinstance(ty, (T.SetType, T.BagType, T.ListType)):
        return _parse_collection(cursor, ty, steps)
    if isinstance(ty, T.VariantType):
        return _parse_variant(cursor, ty, steps)
    value = _parse_scalar(cursor, ty)
    return PathExpression("", steps).apply(value) if steps else value


def _parse_scalar(cursor: _Cursor, ty: T.Type) -> object:
    char = cursor.peek()
    if isinstance(ty, T.StringType):
        return cursor.read_string()
    if isinstance(ty, (T.IntType, T.FloatType)):
        return cursor.read_number(isinstance(ty, T.FloatType))
    if isinstance(ty, T.BoolType):
        name = cursor.read_name()
        if name not in ("TRUE", "FALSE"):
            raise ASN1ParseError(f"expected TRUE or FALSE, found {name!r}")
        return name == "TRUE"
    if isinstance(ty, T.UnitType):
        name = cursor.read_name()
        if name != "NULL":
            raise ASN1ParseError(f"expected NULL, found {name!r}")
        return UNIT_VALUE
    if isinstance(ty, T.TypeVar):
        # Untyped hole: best-effort scalar parse.
        if char == '"':
            return cursor.read_string()
        return cursor.read_number(None)
    raise ASN1ParseError(f"cannot parse a value of type {ty}")


def _parse_record(cursor: _Cursor, ty: T.RecordType,
                  steps: Optional[Tuple[PathStep, ...]]) -> object:
    if steps:
        step, rest = steps[0], steps[1:]
        if not isinstance(step, ProjectStep):
            raise PathApplicationError(f"path step {step!r} cannot apply to a SEQUENCE value")
        field_type = ty.fields.get(step.label) or T.fresh_type_var()
        found = _scan(cursor, step.label, lambda: _parse(cursor, field_type, rest))
        if not found:
            raise PathApplicationError(f"value has no field {step.label!r} on the path")
        return found[-1]
    cursor.expect("{")
    fields = {}
    if not cursor.accept("}"):
        while True:
            label = cursor.read_name()
            fields[label] = _parse(cursor, ty.fields.get(label) or T.fresh_type_var(), None)
            if cursor.accept(","):
                continue
            cursor.expect("}")
            break
    return Record(fields)


def _parse_collection(cursor: _Cursor, ty: T.Type,
                      steps: Optional[Tuple[PathStep, ...]]) -> object:
    kind = {T.SetType: "set", T.BagType: "bag", T.ListType: "list"}[type(ty)]
    if steps and isinstance(steps[0], VariantStep):
        if not isinstance(ty.element, T.VariantType):  # no element carries a tag
            return PathExpression("", steps).apply(_parse_collection(cursor, ty, None))
        tag, rest = steps[0].tag, steps[1:]
        case_type = ty.element.cases.get(tag) or T.fresh_type_var()
        return make_collection(kind, _scan(cursor, tag, lambda: _payload(cursor, case_type, rest)))
    elements = []
    cursor.expect("{")
    if not cursor.accept("}"):
        while True:
            elements.append(_parse(cursor, ty.element, steps))
            if cursor.accept(","):
                continue
            cursor.expect("}")
            break
    return make_collection(kind, elements)


def _parse_variant(cursor: _Cursor, ty: T.VariantType,
                   steps: Optional[Tuple[PathStep, ...]]) -> object:
    tag = cursor.read_name()
    case_type = ty.cases.get(tag) or T.fresh_type_var()
    if not steps:
        return Variant(tag, _payload(cursor, case_type, None))
    if not isinstance(steps[0], VariantStep):
        raise PathApplicationError(f"path step {steps[0]!r} cannot apply to a CHOICE value")
    if steps[0].tag != tag:
        raise PathApplicationError(f"variant carries tag {tag!r}, not {steps[0].tag!r}")
    return _payload(cursor, case_type, steps[1:])


def _payload(cursor: _Cursor, case_type: T.Type,
             steps: Optional[Tuple[PathStep, ...]]) -> object:
    """What follows a CHOICE's tag: NULL for a NULL case and before ``,``, ``}`` or the end."""
    if not isinstance(case_type, T.UnitType) and cursor.peek() not in ",}":
        return _parse(cursor, case_type, steps)
    return PathExpression("", steps).apply(UNIT_VALUE) if steps else UNIT_VALUE
