"""One base for fmtk's immutable values: formula nodes, vocabularies, marked
structures, rank types and expression nodes.

A subclass lists its fields in ``__slots__`` (or in ``_fields``, when it
keeps more slots than fields) and sets them in its own ``__init__`` through
``object.__setattr__``. The base gives it value semantics over the field
tuple: equality with instances of the same class only, ``hash`` of the field
tuple, a ``Name(field=value, ...)`` repr, and no assignment or deletion
after construction.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        if not cls._fields:
            return  # a shared ``__init__`` for subclasses that name the fields
        get = attrgetter(*cls._fields)
        # ``attrgetter`` of one name returns the value itself, not a 1-tuple
        if len(cls._fields) == 1:
            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return (get(self),) == (get(other),)
                return NotImplemented

            def __hash__(self):
                return hash((get(self),))
        else:
            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return get(self) == get(other)
                return NotImplemented

            def __hash__(self):
                return hash(get(self))
        cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
