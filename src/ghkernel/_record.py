"""The package's one value-record idiom: immutable ``__slots__`` classes.

A record class lists its fields, two or more, in order, in ``__slots__``,
and the base class compiles its constructor, one positional-or-keyword
parameter per field.  A record that checks or defaults a field writes its
own ``__init__``, storing fields with ``_set`` (``object.__setattr__``):
assignment on an instance raises :class:`AttributeError`.  The base gives
value equality within a class, the hash of the tuple of fields, a
``Name(field=value, ...)`` repr, and pickling and copying through the
constructor: what a frozen dataclass gave, without importing
``dataclasses`` and ``inspect`` at start-up.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _constructor(cls: type) -> object:
    """``__init__(self, <fields>)``, compiled: as fast as a hand-written one."""
    fields = cls.__slots__
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": _set, "__name__": cls.__module__}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return namespace["__init__"]


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = property(attrgetter(*cls.__slots__))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values)
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values
