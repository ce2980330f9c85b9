"""The ACE object model.

An ACE database is a set of *classes*; each class holds *objects* identified
by a name (the object identity); each object is a tree of tag → values edges
where a value is a scalar or a reference to another object.  This is a
faithful, if small, rendering of how ACEDB models data and is what gives CPL's
reference type something real to point at.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from ..core.errors import ACEError
from ..core.values import CList, Record, Ref

__all__ = ["AceClass", "AceObject", "AceValue"]

AceValue = Union[str, int, float, "AceObjectRef"]


class AceObjectRef:
    """A reference to an object of some class by name (the ACE notion of identity)."""

    __slots__ = ("class_name", "object_name")

    def __init__(self, class_name: str, object_name: str):
        self.class_name = class_name
        self.object_name = object_name

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AceObjectRef)
                and (self.class_name, self.object_name) == (other.class_name, other.object_name))

    def __hash__(self) -> int:
        return hash((self.class_name, self.object_name))

    def __repr__(self) -> str:
        return f"{self.class_name}:{self.object_name}"


class AceObject:
    """An ACE object: an identity plus tag → list-of-values edges."""

    def __init__(self, class_name: str, name: str):
        self.class_name = class_name
        self.name = name
        self.tags: Dict[str, List[AceValue]] = {}

    def add(self, tag: str, value: AceValue) -> "AceObject":
        self.tags.setdefault(tag, []).append(value)
        return self

    def values(self, tag: str) -> List[AceValue]:
        return list(self.tags.get(tag, ()))

    def first(self, tag: str, default: Optional[AceValue] = None) -> Optional[AceValue]:
        values = self.tags.get(tag)
        return values[0] if values else default

    def tag_names(self) -> List[str]:
        return sorted(self.tags)

    def to_record(self, store: Optional[object] = None) -> Record:
        """Convert to a CPL record; object references become :class:`Ref` values."""
        fields: Dict[str, object] = {"class": self.class_name, "name": self.name}
        for tag, values in self.tags.items():
            converted = [self._convert(value, store) for value in values]
            fields[tag] = converted[0] if len(converted) == 1 else CList(converted)
        return Record(fields)

    @staticmethod
    def _convert(value: AceValue, store: Optional[object]) -> object:
        if isinstance(value, AceObjectRef):
            return Ref(value.class_name, value.object_name, store)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AceObject({self.class_name}:{self.name}, tags={self.tag_names()})"


class AceClass:
    """A class: a named collection of objects."""

    def __init__(self, name: str):
        self.name = name
        self.objects: Dict[str, AceObject] = {}

    def add_object(self, obj: AceObject) -> None:
        if obj.class_name != self.name:
            raise ACEError(
                f"object of class {obj.class_name!r} cannot be stored in class {self.name!r}"
            )
        self.objects[obj.name] = obj

    def get(self, name: str) -> AceObject:
        try:
            return self.objects[name]
        except KeyError:
            raise ACEError(f"class {self.name!r} has no object named {name!r}")

    def __iter__(self) -> Iterator[AceObject]:
        for name in sorted(self.objects):
            yield self.objects[name]

    def __len__(self) -> int:
        return len(self.objects)
