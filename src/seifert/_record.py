"""Immutable records, the base of every value type of the package.

A record's fields are the annotations of its own class body, in order.
Each record class gets an ``__init__`` compiled from its field names,
so fields pass by position or keyword and a wrong or missing one is
Python's own ``TypeError``.  It stores the fields in the instance
``__dict__`` (where ``cached_property`` keeps its values too), keeps
their tuple, then calls ``self.__post_init__()``, looked up at each
construction.  Records compare and hash by that tuple, only against
records of the same class, refuse assignment and deletion, and print
as ``Name(field=value, ...)``.  :func:`_built` stores fields the same
way but skips ``__post_init__``, for values the package has already
checked or built correct by construction.  Every record the package
derives from checked records is built through it: the group
constructors (:func:`~seifert.groups.cyclic_group` and
:func:`~seifert.groups.direct_product`), the document reader,
projection and lift of actions (all three through
``seifert.actions._from_view``), and the presentations read off a symbol
(:func:`~seifert.presentations.pi1` and
:func:`~seifert.presentations.orbifold_pi1`).  An action record holds its
integer view from birth whichever way it is built: ``_from_view`` stores
it with the fields, and the checked constructor's ``__post_init__`` once
every check has passed.

>>> class Point(Record):
...     x: int
...     y: int
>>> Point(1, y=2)
Point(x=1, y=2)
>>> Point(1, 2) == Point(x=1, y=2) and Point(1, 2) != (1, 2)
True
"""

_setattr = object.__setattr__


class Record:
    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        args = "".join(f"{name}, " for name in fields)
        source = (f"def __init__(self, {args}):\n"
                  + "".join(f"    _setattr(self, {name!r}, {name})\n" for name in fields)
                  + f"    _setattr(self, '_values', ({args}))\n"
                  + "    self.__post_init__()\n")
        namespace = {"_setattr": _setattr}
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
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


def _built(cls, *values):
    """A record of cls from field values its caller has established.

    Stored as ``__init__`` stores them, without ``__post_init__``.
    """
    record = object.__new__(cls)
    record.__dict__.update(zip(cls._fields, values), _values=values)
    return record
