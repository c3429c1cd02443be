"""Immutable records, the base of every value type of the package.

A record's fields are the annotations of its own class body, in order.
Each record class gets an ``__init__`` compiled from its field names,
so fields pass by position or keyword and a wrong or missing one is
Python's own ``TypeError``.  It stores the fields and their tuple in the
instance ``__dict__`` (where ``cached_property`` keeps its values too),
one store each, then calls ``self.__post_init__()``, looked up at each
construction.  Records compare and hash by that tuple, only against
records of the same class, refuse assignment and deletion, and print
as ``Name(field=value, ...)``, an int field in full however many digits
it has (:func:`_decimal`).  :func:`_built` stores fields the same
way but skips ``__post_init__``, for values the package has already
checked or built correct by construction.  Every record the package
derives from checked records is built through it: the group
constructors (:func:`~seifert.groups.cyclic_group` and
:func:`~seifert.groups.direct_product`) and the presentations read off
a symbol (:func:`~seifert.presentations.pi1` and
:func:`~seifert.presentations.orbifold_pi1`).  The document reader,
projection and lift of actions build theirs through
``seifert.actions._from_view``, which stores an action record's integer
view, its tables in field order with the rotations as integers, and
every field but the rotations; those and the tuple of fields are made
from the view at their first read.  A checked action record holds the
integer view too, stored by ``__post_init__`` once every check has
passed.

>>> class Point(Record):
...     x: int
...     y: int
>>> Point(1, y=2)
Point(x=1, y=2)
>>> Point(1, 2) == Point(x=1, y=2) and Point(1, 2) != (1, 2)
True
"""

import sys


class Record:
    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        args = "".join(f"{name}, " for name in fields)
        # one store per entry into the instance __dict__: __setattr__ refuses
        source = (f"def __init__(self, {args}):\n"
                  + "    _stored = self.__dict__\n"
                  + "".join(f"    _stored[{name!r}] = {name}\n" for name in fields)
                  + f"    _stored['_values'] = ({args})\n"
                  + "    self.__post_init__()\n")
        namespace = {}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._fields = fields

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return _decimal(self, _text)


def _text(record) -> str:
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record._values))
    return f"{type(record).__qualname__}({fields})"


def _decimal(value, text=str) -> str:
    """``text(value)``, ``str`` by default, past CPython's limit on the
    digits of an int.

    From Python 3.11 (and 3.10.7) ``str`` and ``repr`` refuse an int of
    more than 4300 digits by default, a guard for ``int()`` on long input.
    A result can be that long though its input is not, so output and a
    record's repr lift the limit for the one call; every reader keeps it.
    """
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is None:   # an older interpreter has no limit
        return text(value)
    limit = sys.get_int_max_str_digits()
    lift(0)
    try:
        return text(value)
    finally:
        lift(limit)


def _built(cls, *values):
    """A record of cls from field values its caller has established.

    Stored as ``__init__`` stores them, without ``__post_init__``.
    """
    record = object.__new__(cls)
    record.__dict__.update(zip(cls._fields, values), _values=values)
    return record
