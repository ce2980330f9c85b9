"""The path-extraction language of the ASN.1 driver.

From the paper: *"we have developed a path extraction syntax that allows for a
terse description of successive record projections, variant selections, and
extractions of elements from collections"*, with the example
``Seq-entry.seq.id..giim`` — two projections followed by a variant extraction
applied to each element of the resulting set.

Syntax::

    path  := root step*
    step  := "." label        -- record projection (mapped over collections)
           | ".." label       -- variant extraction, mapped + filtered over collections

Applying a projection step to a collection maps it over the elements; applying
a variant step to a collection keeps only the elements carrying that tag and
extracts their payloads.  Applied to a single variant, a variant step either
extracts the payload or raises :class:`PathApplicationError`.

Paths and their steps are immutable, so :func:`parse_path` parses each text
once and hands every caller the same :class:`PathExpression`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

from ..core._fields import refuse_assignment
from ..core.errors import PathApplicationError, PathSyntaxError
from ..core.values import CBag, CList, CSet, Record, Variant, make_collection

__all__ = ["PathStep", "ProjectStep", "VariantStep", "PathExpression", "parse_path"]


class PathStep:
    """Base class for path steps."""

    __slots__ = ()
    __setattr__ = __delattr__ = refuse_assignment

    def apply(self, value: object) -> object:
        raise NotImplementedError


class ProjectStep(PathStep):
    """``.label`` — project a record field (mapping over collections)."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        object.__setattr__(self, "label", label)

    def apply(self, value: object) -> object:
        if isinstance(value, (CSet, CBag, CList)):
            return make_collection(value.kind, (self.apply(element) for element in value))
        if isinstance(value, Record):
            if not value.has_field(self.label):
                raise PathApplicationError(f"record has no field {self.label!r}")
            return value.project(self.label)
        raise PathApplicationError(
            f"cannot project {self.label!r} from {type(value).__name__}"
        )

    def __repr__(self) -> str:
        return f".{self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjectStep) and other.label == self.label

    def __hash__(self) -> int:
        return hash((".", self.label))


class VariantStep(PathStep):
    """``..tag`` — extract a variant payload, filtering collections by tag."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        object.__setattr__(self, "tag", tag)

    def apply(self, value: object) -> object:
        if isinstance(value, (CSet, CBag, CList)):
            extracted = [element.value for element in value
                         if isinstance(element, Variant) and element.tag == self.tag]
            return make_collection(value.kind, extracted)
        if isinstance(value, Variant):
            if value.tag != self.tag:
                raise PathApplicationError(
                    f"variant carries tag {value.tag!r}, not {self.tag!r}"
                )
            return value.value
        raise PathApplicationError(
            f"cannot extract variant case {self.tag!r} from {type(value).__name__}"
        )

    def __repr__(self) -> str:
        return f"..{self.tag}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariantStep) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(("..", self.tag))


class PathExpression:
    """A parsed path: a root type name plus a sequence of steps."""

    __slots__ = ("root", "steps")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, root: str, steps: Sequence[PathStep]):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "steps", tuple(steps))

    def apply(self, value: object) -> object:
        """Apply every step in order to ``value``."""
        current = value
        for step in self.steps:
            current = step.apply(current)
        return current

    def __repr__(self) -> str:
        return self.root + "".join(repr(step) for step in self.steps)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PathExpression)
                and (self.root, self.steps) == (other.root, other.steps))

    def __hash__(self) -> int:
        return hash((self.root, self.steps))

    def extended(self, step: PathStep) -> "PathExpression":
        """Return a new path with ``step`` appended (used by pushdown rewriting)."""
        return PathExpression(self.root, self.steps + (step,))


@lru_cache(maxsize=256)
def parse_path(text: str) -> PathExpression:
    """Parse ``Root.step1.step2..tag`` into a :class:`PathExpression`.

    Memoised: the result is immutable, and a driver sends the same few path
    texts with every request.
    """
    text = text.strip()
    if not text:
        raise PathSyntaxError("empty path expression")
    parts: List[str] = []
    index = 0
    # Split on '.' while remembering doubled dots (variant steps).
    current = []
    dots = 0
    for char in text:
        if char == ".":
            if current:
                parts.append(("label", "".join(current)))
                current = []
            dots += 1
            continue
        if dots == 1:
            parts.append(("project", ""))
            dots = 0
        elif dots == 2:
            parts.append(("variant", ""))
            dots = 0
        elif dots > 2:
            raise PathSyntaxError(f"too many consecutive dots in path {text!r}")
        current.append(char)
    if dots:
        raise PathSyntaxError(f"path {text!r} ends with a dot")
    if current:
        parts.append(("label", "".join(current)))

    # parts is an alternating sequence: label, (project|variant), label, ...
    if not parts or parts[0][0] != "label":
        raise PathSyntaxError(f"path {text!r} must start with a root type name")
    root = parts[0][1]
    steps: List[PathStep] = []
    index = 1
    while index < len(parts):
        kind, _ = parts[index]
        if kind == "label":
            raise PathSyntaxError(f"malformed path {text!r}")
        if index + 1 >= len(parts) or parts[index + 1][0] != "label":
            raise PathSyntaxError(f"path {text!r} has a dangling {kind} step")
        label = parts[index + 1][1]
        if not label:
            raise PathSyntaxError(f"empty step label in path {text!r}")
        steps.append(ProjectStep(label) if kind == "project" else VariantStep(label))
        index += 2
    return PathExpression(root, steps)
