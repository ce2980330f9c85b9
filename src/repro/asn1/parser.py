"""Type-directed parser for the ASN.1 text form of values.

Because ``{ ... }`` is used both for constructed types (SEQUENCE) and for
collections (SET OF / SEQUENCE OF), parsing is driven by the expected type,
exactly as in real ASN.1 value notation.

Two entry points:

* :func:`parse_value` — parse the whole value.
* :func:`parse_value_with_path` — parse only what a
  :class:`~repro.asn1.path.PathExpression` needs, *skipping* the text of every
  field that is not on the path.  This is the paper's "pruning at the level of
  the ASN.1 driver ... to minimize the cost of parsing and copying ASN.1
  values", and it is what benchmark E5 measures against retrieve-then-prune.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence, Tuple

from ..core import types as T
from ..core.errors import ASN1ParseError, PathApplicationError
from ..core.values import CBag, CList, CSet, Record, UNIT_VALUE, Variant, make_collection
from .path import PathExpression, PathStep, ProjectStep, VariantStep

__all__ = ["parse_value", "parse_value_with_path"]


def parse_value(text: str, ty: T.Type) -> object:
    """Parse ASN.1 text of type ``ty`` into a CPL value."""
    return _parse_text(text, ty, None)


def parse_value_with_path(text: str, ty: T.Type, path: PathExpression) -> object:
    """Parse only the parts of the value that ``path`` selects.

    The result equals ``path.apply(parse_value(text, ty))`` but fields off the
    path are skipped textually instead of being parsed into values.
    """
    return _parse_text(text, ty, tuple(path.steps))


def _parse_text(text: str, ty: T.Type, steps: Optional[Tuple[PathStep, ...]]) -> object:
    cursor = _Cursor(text)
    value = _parse(cursor, ty, steps)
    cursor.skip_whitespace()
    if not cursor.at_end():
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
#: What ends or nests a skipped value: the first of them from the cursor.
_BRACE_OR_QUOTE = re.compile(r'[{}"]').search
_SCALAR_END = re.compile(r'[,}"{]').search


class _Cursor:
    """A position in the input text with primitive scanning operations,
    each a precompiled ``re`` match or a ``str.find`` (never a walk one
    character at a time): the pruning parse skips text at string speed."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

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

    def skip_value(self) -> None:
        """Skip a complete value without building it (the pruning fast path):
        a string, a braced value (counting braces outside strings), or a
        scalar or variant up to the next ``,`` or ``}`` at this level."""
        char = self.peek()
        if not char:
            raise ASN1ParseError("unexpected end of input while skipping a value")
        if char == '"':
            self.read_string()
            return
        text = self.text
        if char == "{":
            depth = 0
            while True:
                match = _BRACE_OR_QUOTE(text, self.pos)
                if match is None:
                    raise ASN1ParseError("unbalanced braces while skipping a value")
                found = match.group()
                self.pos = match.start()
                if found == '"':
                    self.read_string()
                    continue
                self.pos += 1
                depth += 1 if found == "{" else -1
                if depth == 0:
                    return
        while True:
            match = _SCALAR_END(text, self.pos)
            if match is None:
                self.pos = len(text)
                return
            self.pos = match.start()
            found = match.group()
            if found == '"':
                self.read_string()
            elif found == "{":
                self.skip_value()
            else:
                return


# ---------------------------------------------------------------------------
# Type-directed parsing with optional path pruning
# ---------------------------------------------------------------------------

def _parse(cursor: _Cursor, ty: T.Type, steps: Optional[Tuple[PathStep, ...]]) -> object:
    if isinstance(ty, T.RecordType):
        return _parse_record(cursor, ty, steps)
    if isinstance(ty, (T.SetType, T.BagType, T.ListType)):
        return _parse_collection(cursor, ty, steps)
    if isinstance(ty, T.VariantType):
        return _parse_variant(cursor, ty, steps)
    return _parse_scalar(cursor, ty)


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
    wanted_field = None
    rest_steps: Optional[Tuple[PathStep, ...]] = None
    if steps:
        first = steps[0]
        if isinstance(first, ProjectStep):
            wanted_field = first.label
            rest_steps = steps[1:]
        else:
            raise PathApplicationError(
                f"path step {first!r} cannot apply to a SEQUENCE value"
            )

    cursor.expect("{")
    fields = {}
    selected = None
    if not cursor.accept("}"):
        while True:
            label = cursor.read_name()
            field_type = ty.fields.get(label) or T.fresh_type_var()
            if wanted_field is None:
                fields[label] = _parse(cursor, field_type, None)
            elif label == wanted_field:
                selected = _parse(cursor, field_type, rest_steps)
            else:
                cursor.skip_value()
            if cursor.accept(","):
                continue
            cursor.expect("}")
            break
    if wanted_field is not None:
        if selected is None:
            raise PathApplicationError(f"value has no field {wanted_field!r} on the path")
        return selected
    return Record(fields)


def _parse_collection(cursor: _Cursor, ty: T.Type,
                      steps: Optional[Tuple[PathStep, ...]]) -> object:
    kind = {T.SetType: "set", T.BagType: "bag", T.ListType: "list"}[type(ty)]
    element_type = ty.element
    elements = []
    cursor.expect("{")
    if not cursor.accept("}"):
        while True:
            if steps and isinstance(steps[0], VariantStep) and isinstance(element_type, T.VariantType):
                element = _parse_variant_filtered(cursor, element_type, steps[0], steps[1:])
                if element is not _SKIPPED:
                    elements.append(element)
            else:
                elements.append(_parse(cursor, element_type, steps))
            if cursor.accept(","):
                continue
            cursor.expect("}")
            break
    return make_collection(kind, elements)


_SKIPPED = object()


def _parse_variant_filtered(cursor: _Cursor, ty: T.VariantType, step: VariantStep,
                            rest: Tuple[PathStep, ...]):
    """Parse a CHOICE element under a ``..tag`` step: keep matching tags, skip others."""
    tag = cursor.read_name()
    case_type = ty.cases.get(tag) or T.fresh_type_var()
    if isinstance(case_type, T.UnitType):
        payload_needed = False
    else:
        payload_needed = cursor.peek() not in ",}"
    if tag != step.tag:
        if payload_needed:
            cursor.skip_value()
        return _SKIPPED
    if not payload_needed:
        return UNIT_VALUE if not rest else _SKIPPED
    return _parse(cursor, case_type, rest or None)


def _parse_variant(cursor: _Cursor, ty: T.VariantType,
                   steps: Optional[Tuple[PathStep, ...]]) -> object:
    tag = cursor.read_name()
    case_type = ty.cases.get(tag) or T.fresh_type_var()
    if isinstance(case_type, T.UnitType):
        payload: object = UNIT_VALUE
    elif cursor.peek() in ",}" or cursor.at_end():
        payload = UNIT_VALUE
    else:
        if steps and isinstance(steps[0], VariantStep):
            if steps[0].tag != tag:
                raise PathApplicationError(
                    f"variant carries tag {tag!r}, not {steps[0].tag!r}"
                )
            return _parse(cursor, case_type, steps[1:] or None)
        payload = _parse(cursor, case_type, None)
    if steps:
        first = steps[0]
        if isinstance(first, VariantStep):
            if first.tag != tag:
                raise PathApplicationError(f"variant carries tag {tag!r}, not {first.tag!r}")
            value = payload
            for remaining in steps[1:]:
                value = remaining.apply(value)
            return value
        raise PathApplicationError(f"path step {first!r} cannot apply to a CHOICE value")
    return Variant(tag, payload)
