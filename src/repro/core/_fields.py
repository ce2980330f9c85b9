"""A base for the plain value classes: fields, defaults, ``==``, ``repr``, frozen.

The configuration, plan, policy and dataset classes on the serving path are
not dataclasses because importing ``dataclasses`` imports ``inspect`` (and
with it ``ast``, ``dis`` and ``tokenize``), and it ``exec``s generated code
for every class it decorates: together the largest cost of importing the
program.  :class:`Fields` does what those classes need, and nothing else.
"""

from __future__ import annotations

__all__ = ["Fields", "refuse_assignment"]


def refuse_assignment(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of an immutable class."""
    raise AttributeError(
        f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


class Fields:
    """A class whose annotated class attributes are its fields.

    A field's class-level value is its default (a ``list`` or ``dict`` default
    is copied for each instance).  The constructor takes the fields by
    keyword, or positionally in declaration order, then calls
    ``__post_init__`` if the class defines one.  Instances are equal when
    their class and field values are, and print as ``Name(field=value,
    ...)``.  A class declared with ``frozen=True`` refuses assignment with
    ``AttributeError`` and hashes by value; any other is mutable and
    unhashable.
    """

    #: The field names, in declaration order, and the defaults among them.
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = refuse_assignment
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        name = type(self).__name__
        if (len(args) > len(self._fields)
                or not kwargs.keys() <= set(self._fields[len(args):])):
            raise TypeError(f"{name}() got too many, unknown or repeated arguments")
        given = dict(zip(self._fields, args), **kwargs)
        for field in self._fields:
            if field in given:
                value = given[field]
            elif field in self._defaults:
                value = self._defaults[field]
                if type(value) in (list, dict):
                    value = value.copy()
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
            object.__setattr__(self, field, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{field}={getattr(self, field)!r}"
                          for field in self._fields)
        return f"{type(self).__qualname__}({shown})"
