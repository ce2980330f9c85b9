"""ASN.1 values.

ASN.1 values are simply CPL values (records, variants, sets, lists, scalars);
this module provides the helpers the parser, printer and Entrez service share:
type-directed validation and a few construction conveniences.
"""

from __future__ import annotations

from ..core import types as T
from ..core.errors import ASN1Error
from ..core.values import CBag, CList, CSet, Record, Unit, Variant

__all__ = ["validate_value", "conforms"]


def validate_value(value: object, ty: T.Type) -> None:
    """Raise :class:`ASN1Error` unless ``value`` conforms to ``ty``."""
    if isinstance(ty, T.TypeVar):
        return
    if isinstance(ty, T.StringType):
        if not isinstance(value, str):
            raise ASN1Error(f"expected a string, got {type(value).__name__}")
        return
    if isinstance(ty, T.IntType):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ASN1Error(f"expected an integer, got {value!r}")
        return
    if isinstance(ty, T.FloatType):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ASN1Error(f"expected a real, got {value!r}")
        return
    if isinstance(ty, T.BoolType):
        if not isinstance(value, bool):
            raise ASN1Error(f"expected a boolean, got {value!r}")
        return
    if isinstance(ty, T.UnitType):
        if not isinstance(value, Unit):
            raise ASN1Error(f"expected NULL, got {value!r}")
        return
    if isinstance(ty, T.SetType):
        if not isinstance(value, CSet):
            raise ASN1Error(f"expected a SET OF value, got {type(value).__name__}")
        for element in value:
            validate_value(element, ty.element)
        return
    if isinstance(ty, T.ListType):
        if not isinstance(value, CList):
            raise ASN1Error(f"expected a SEQUENCE OF value, got {type(value).__name__}")
        for element in value:
            validate_value(element, ty.element)
        return
    if isinstance(ty, T.BagType):
        if not isinstance(value, CBag):
            raise ASN1Error(f"expected a bag value, got {type(value).__name__}")
        for element in value:
            validate_value(element, ty.element)
        return
    if isinstance(ty, T.RecordType):
        if not isinstance(value, Record):
            raise ASN1Error(f"expected a SEQUENCE value, got {type(value).__name__}")
        for label, field_type in ty.fields.items():
            if not value.has_field(label):
                # OPTIONAL fields may be absent.
                continue
            validate_value(value.project(label), field_type)
        if not ty.is_open:
            extra = set(value.labels) - set(ty.fields)
            if extra:
                raise ASN1Error(f"unexpected fields {sorted(extra)} in SEQUENCE value")
        return
    if isinstance(ty, T.VariantType):
        if not isinstance(value, Variant):
            raise ASN1Error(f"expected a CHOICE value, got {type(value).__name__}")
        if value.tag not in ty.cases:
            if ty.is_open:
                return
            raise ASN1Error(f"unknown CHOICE alternative {value.tag!r}")
        validate_value(value.value, ty.cases[value.tag])
        return
    raise ASN1Error(f"cannot validate against type {ty}")


def conforms(value: object, ty: T.Type) -> bool:
    """True when ``value`` conforms to ``ty``."""
    try:
        validate_value(value, ty)
        return True
    except ASN1Error:
        return False
