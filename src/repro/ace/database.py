"""The ACE object store."""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..core.errors import ACEError
from ..core.values import CSet, Record, Ref
from .model import AceClass, AceObject

__all__ = ["AceDatabase"]


class AceDatabase:
    """A set of ACE classes with reference resolution.

    CPL's dereferencing (`!ref` / reference patterns) resolves through
    :meth:`resolve`, which is why :meth:`AceObject.to_record` mints
    :class:`~repro.core.values.Ref` values bound to this store.
    """

    def __init__(self, name: str = "acedb"):
        self.name = name
        self.classes: Dict[str, AceClass] = {}

    # -- loading --------------------------------------------------------------

    def ensure_class(self, class_name: str) -> AceClass:
        if class_name not in self.classes:
            self.classes[class_name] = AceClass(class_name)
        return self.classes[class_name]

    def add_object(self, obj: AceObject) -> None:
        self.ensure_class(obj.class_name).add_object(obj)

    def new_object(self, class_name: str, name: str) -> AceObject:
        obj = AceObject(class_name, name)
        self.add_object(obj)
        return obj

    def load(self, objects: Iterable[AceObject]) -> int:
        count = 0
        for obj in objects:
            self.add_object(obj)
            count += 1
        return count

    # -- access ----------------------------------------------------------------

    def ace_class(self, class_name: str) -> AceClass:
        try:
            return self.classes[class_name]
        except KeyError:
            raise ACEError(f"database {self.name!r} has no class {class_name!r}")

    def class_names(self) -> List[str]:
        return sorted(self.classes)

    def get(self, class_name: str, object_name: str) -> AceObject:
        return self.ace_class(class_name).get(object_name)

    def scan(self, class_name: str) -> CSet:
        """Return every object of a class as a set of CPL records (the driver's table scan)."""
        return CSet(obj.to_record(self) for obj in self.ace_class(class_name))

    def resolve(self, ref: Ref) -> Record:
        """Resolve a CPL reference minted by this store into its record."""
        obj = self.get(ref.class_name, str(ref.identifier))
        return obj.to_record(self)

    def __len__(self) -> int:
        return sum(len(ace_class) for ace_class in self.classes.values())
