"""Immutable records: the frozen dataclass behaviour this package uses.

``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and ``exec``s generated source for every decorated class.
Those are most of the time a fresh process spends importing this package
besides compiling its own code, and every command pays it.  One base class
gives the same behaviour.
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its class's annotated names.

    A subclass lists its fields as annotations, in order, after those of the
    record it derives from.  An instance takes
    them positionally or by keyword, runs ``__post_init__`` (which may set a
    field with ``object.__setattr__``), refuses assignment and deletion with
    ``AttributeError``, and compares, hashes and prints by its fields, as a
    frozen dataclass does.

    >>> class Point(Record):
    ...     x: int
    ...     y: int
    >>> Point(1, y=2)
    Point(x=1, y=2)
    >>> Point(1, 2) == Point(x=1, y=2), hash(Point(1, 2)) == hash(Point(1, 2))
    (True, True)
    >>> class Point3(Point):
    ...     z: int
    >>> Point3(1, 2, z=3)
    Point3(x=1, y=2, z=3)
    >>> Point3(1, 2, 3) == Point3(x=1, y=2, z=3), Point3(1, 2, 3) == Point3(1, 2, 4)
    (True, False)
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # a count that matches and a key set that matches leave no field
        # missing, unknown or given twice
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        vars(self).update(values)
        self.__post_init__()

    def __post_init__(self):
        """Validate or normalize the fields; nothing by default."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"
