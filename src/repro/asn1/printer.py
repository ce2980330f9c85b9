"""Printer for the ASN.1 text form of values.

The concrete syntax mirrors ASN.1 value notation as NCBI prints it:

* SEQUENCE (record): ``{ field value, field value }``
* SET OF / SEQUENCE OF: ``{ value, value }``
* CHOICE (variant): ``tag value`` (or just ``tag`` for a NULL payload)
* strings in double quotes, INTEGER / REAL literals, TRUE / FALSE, NULL;
  a non-finite REAL as ``PLUS-INFINITY``, ``MINUS-INFINITY`` or
  ``NOT-A-NUMBER``.

The grammar is type-directed on the way back in (see
:mod:`repro.asn1.parser`), exactly because ``{ ... }`` is used both for
constructed types and collections — as in real ASN.1 print form.
"""

from __future__ import annotations

import math
from typing import List

from ..core.values import CBag, CList, CSet, Record, Unit, Variant

__all__ = ["print_value"]


def print_value(value: object, indent: int = 0, width: int = 100) -> str:
    """Render ``value`` in ASN.1 text form."""
    flat = _print_flat(value)
    if len(flat) + indent <= width:
        return flat
    return _print_indented(value, indent, width)


def _print_flat(value: object) -> str:
    if isinstance(value, str):
        return '"%s"' % value.replace('"', '""')
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, Unit):
        return "NULL"
    if isinstance(value, float) and not math.isfinite(value):
        return ("NOT-A-NUMBER" if math.isnan(value)
                else "PLUS-INFINITY" if value > 0 else "MINUS-INFINITY")
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, Record):
        inner = ", ".join(f"{label} {_print_flat(field)}" for label, field in value.items())
        return "{ %s }" % inner if inner else "{ }"
    if isinstance(value, Variant):
        if isinstance(value.value, Unit):
            return value.tag
        return f"{value.tag} {_print_flat(value.value)}"
    if isinstance(value, (CSet, CBag, CList)):
        inner = ", ".join(_print_flat(element) for element in value)
        return "{ %s }" % inner if inner else "{ }"
    raise TypeError(f"cannot print {type(value).__name__} as ASN.1 text")


def _print_indented(value: object, indent: int, width: int) -> str:
    pad = " " * indent
    child_pad = " " * (indent + 2)
    if isinstance(value, Record):
        lines: List[str] = []
        for label, field in value.items():
            rendered = print_value(field, indent + 2, width)
            lines.append(f"{child_pad}{label} {rendered.lstrip()}")
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(value, (CSet, CBag, CList)):
        lines = []
        for element in value:
            rendered = print_value(element, indent + 2, width)
            lines.append(f"{child_pad}{rendered.lstrip()}")
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(value, Variant):
        rendered = print_value(value.value, indent, width)
        if isinstance(value.value, Unit):
            return value.tag
        return f"{value.tag} {rendered.lstrip()}"
    return _print_flat(value)
