"""ASN.1 type specifications.

The NCBI ASN.1 specification "consists of a syntax for types and a
prescription of how data conforming to an ASN.1 type is to be physically
represented".  We implement the type half with the constructors the paper
lists (its table maps them onto CPL):

=============  =====================  ==================
CPL             notation               ASN.1 terminology
=============  =====================  ==================
list            ``[| t |]``            SEQUENCE OF
set             ``{ t }``              SET OF
record          ``[l: t, ...]``        SEQUENCE (labelled fields)
variant         ``<l: t, ...>``        CHOICE (tagged union)
=============  =====================  ==================

A schema is a set of *named* type definitions (``Seq-entry ::= SEQUENCE {...}``)
with references between them; :meth:`Asn1Schema.cpl_type` resolves a name to
the corresponding :mod:`repro.core.types` type, which is what the Kleisli
driver reports to the CPL type checker.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..core import types as T
from ..core.errors import ASN1ParseError

__all__ = ["Asn1Schema", "parse_asn1_schema"]

_PRIMITIVES = {
    "VisibleString": T.STRING,
    "UTF8String": T.STRING,
    "INTEGER": T.INT,
    "REAL": T.FLOAT,
    "BOOLEAN": T.BOOL,
    "NULL": T.UNIT,
}


class Asn1Schema:
    """A collection of named ASN.1 type definitions."""

    def __init__(self, name: str = "schema"):
        self.name = name
        self.definitions: Dict[str, T.Type] = {}

    def define(self, type_name: str, ty: T.Type) -> None:
        self.definitions[type_name] = ty

    def cpl_type(self, type_name: str) -> T.Type:
        """Resolve a named type (following references) into a CPL type."""
        try:
            ty = self.definitions[type_name]
        except KeyError:
            raise ASN1ParseError(f"schema {self.name!r} does not define type {type_name!r}")
        return self._resolve(ty, seen=(type_name,))

    def _resolve(self, ty: T.Type, seen: Tuple[str, ...]) -> T.Type:
        if isinstance(ty, _TypeReference):
            if ty.name in seen:
                raise ASN1ParseError(
                    f"recursive ASN.1 type {ty.name!r} cannot be mapped to a finite CPL type"
                )
            if ty.name not in self.definitions:
                raise ASN1ParseError(f"reference to undefined ASN.1 type {ty.name!r}")
            return self._resolve(self.definitions[ty.name], seen + (ty.name,))
        if isinstance(ty, T.SetType):
            return T.SetType(self._resolve(ty.element, seen))
        if isinstance(ty, T.BagType):
            return T.BagType(self._resolve(ty.element, seen))
        if isinstance(ty, T.ListType):
            return T.ListType(self._resolve(ty.element, seen))
        if isinstance(ty, T.RecordType):
            return T.RecordType({label: self._resolve(field, seen)
                                 for label, field in ty.fields.items()}, ty.row)
        if isinstance(ty, T.VariantType):
            return T.VariantType({label: self._resolve(case, seen)
                                  for label, case in ty.cases.items()}, ty.row)
        return ty


class _TypeReference(T.Type):
    """A reference to another named type inside a schema."""

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name

    def _key(self):
        return (self.name,)


# ---------------------------------------------------------------------------
# Parsing the ASN.1-flavoured type syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(::=|\{|\}|,|SEQUENCE OF|SET OF|SEQUENCE|SET|CHOICE|OPTIONAL|"
    r"[A-Za-z][A-Za-z0-9_-]*|--[^\n]*)"
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remaining = text[position:].strip()
            if not remaining:
                break
            raise ASN1ParseError(f"cannot tokenise ASN.1 near {remaining[:30]!r}")
        token = match.group(1)
        position = match.end()
        if token.startswith("--"):
            continue
        tokens.append(token)
    return tokens


def parse_asn1_schema(text: str, name: str = "schema") -> Asn1Schema:
    """Parse a module of ``Name ::= TYPE`` definitions into a schema.

    Example::

        Publication ::= SEQUENCE {
            title VisibleString,
            authors SEQUENCE OF SEQUENCE { name VisibleString, initial VisibleString },
            journal CHOICE { uncontrolled VisibleString,
                             controlled CHOICE { medline-jta VisibleString } },
            year INTEGER,
            keywd SET OF VisibleString
        }
    """
    parser = _SchemaParser(_tokenize(text))
    schema = Asn1Schema(name)
    while not parser.at_end():
        type_name = parser.expect_name()
        parser.expect("::=")
        schema.define(type_name, parser.parse_type())
    return schema


class _SchemaParser:

    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.position = 0

    def at_end(self) -> bool:
        return self.position >= len(self.tokens)

    def peek(self) -> Optional[str]:
        if self.at_end():
            return None
        return self.tokens[self.position]

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise ASN1ParseError("unexpected end of ASN.1 specification")
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        found = self.advance()
        if found != token:
            raise ASN1ParseError(f"expected {token!r} in ASN.1 specification, found {found!r}")

    def expect_name(self) -> str:
        token = self.advance()
        if not re.match(r"[A-Za-z]", token):
            raise ASN1ParseError(f"expected a type name, found {token!r}")
        return token

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.position += 1
            return True
        return False

    def parse_type(self) -> T.Type:
        token = self.advance()
        if token == "SEQUENCE OF":
            return T.ListType(self.parse_type())
        if token == "SET OF":
            return T.SetType(self.parse_type())
        if token in ("SEQUENCE", "SET"):
            fields = self._parse_fields()
            return T.RecordType(fields)
        if token == "CHOICE":
            cases = self._parse_fields()
            return T.VariantType(cases)
        if token in _PRIMITIVES:
            return _PRIMITIVES[token]
        # Anything else is a reference to another named type.
        return _TypeReference(token)

    def _parse_fields(self) -> Dict[str, T.Type]:
        self.expect("{")
        fields: Dict[str, T.Type] = {}
        while True:
            label = self.expect_name()
            fields[label] = self.parse_type()
            self.accept("OPTIONAL")
            if self.accept(","):
                continue
            self.expect("}")
            return fields
