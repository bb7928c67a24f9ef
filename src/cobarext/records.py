"""Frozen value records without the dataclasses module.

dataclasses compiles several methods for every class as it is defined, and
imports inspect; that was most of the package's own share of a command's
start-up.  Here equality, hashing, repr and pickling are written once, on
the base, and a class compiles only its __init__, when its first record is
built.
"""

from __future__ import annotations

from operator import attrgetter

# How a record's own __init__ sets a field, past the frozen __setattr__.
set_field = object.__setattr__


class Record:
    """Base of the value records.  A subclass annotates its fields, in order,
    and then lists them as slots: `__slots__ = tuple(__annotations__)`.

    Records are frozen.  A record equals only a record of the same class
    with equal fields, and hashes as the tuple of its fields, as a frozen
    dataclass does.  A subclass that validates its fields writes its own
    __init__ and sets each field with set_field; the others get one that
    takes the fields in order.
    """

    __slots__ = ("__weakref__",)  # weakly referenceable, like an object without slots

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__["__slots__"]
        get = attrgetter(*cls._fields)
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        # The first record of a class compiles the class's own __init__, which
        # sets each field by name as fast as one written out; later records
        # call that directly.  Compiling on first use keeps it out of import.
        cls = type(self)
        namespace = {"set_field": set_field}
        exec(f"def __init__(self, {', '.join(cls._fields)}):\n"
             + "".join(f"    set_field(self, {f!r}, {f})\n" for f in cls._fields), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__(self, *args, **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, so unpickling validates too
        return type(self), self._astuple(self)

    def as_dict(self) -> dict:
        """Field name -> value, in field order (what dataclasses.asdict gives
        for fields that hold no record)."""
        return dict(zip(self._fields, self._astuple(self)))
