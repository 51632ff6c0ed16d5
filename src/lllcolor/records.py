"""Plain slotted record classes.

A record class lists its fields once, as ``__slots__ = _fields = (...)``,
and writes only its ``__init__``.  :class:`Record` gives it ``==`` and a
``Name(field=value, ...)`` repr over ``_fields``; :class:`FrozenRecord`
adds a hash and refuses to rebind or delete a field, so a frozen record's
``__init__`` sets each field with ``object.__setattr__``.  Nothing here
generates source: ``dataclasses`` compiled each class's methods through
``exec`` at every start-up.
"""


class Record:
    """A mutable record: ``==`` and repr over ``_fields``, unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable record."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the record through its checked __init__
        return type(self), self._values()
