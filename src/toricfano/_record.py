"""Immutable value records, the package's replacement for frozen dataclasses.

``record`` reads a class's annotated names as its fields, in order; a
field with a class-level value takes it as its default.  It adds what the
package relies on and nothing more:

* ``__init__`` taking fields by position or keyword, then calling
  ``__post_init__`` when the class has one; a missing, repeated or unknown
  field raises ``TypeError``.  A class that writes its own ``__init__``
  (the records built in hot loops) keeps it, and that ``__init__`` assigns
  each field with ``object.__setattr__``, as this one does: filling
  ``__dict__`` wholesale would slow every later attribute read;
* equality only between instances of the exact same class with equal
  fields, so a record never equals the tuple of its values;
* ``hash`` of the tuple of field values.  A class that writes its own
  ``__hash__`` keeps it, and it must return that same value: ``Fan``
  computes it once, at construction, since its nested tuples are hashed
  on every cache lookup keyed by a fan;
* the ``Name(f=v, ...)`` repr;
* ``AttributeError`` on assigning or deleting any attribute.

Importing ``dataclasses``, which loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, takes longer than importing the whole CLI without it, and a
dataclass ``exec``s each generated method; this module uses neither
``exec`` nor ``eval``.
"""

from operator import attrgetter


def _read_only(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make ``cls`` an immutable value record over its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")
    setattr_ = object.__setattr__

    def bind(args, kwargs):
        given = dict(zip(names, args), **kwargs)
        unknown = sorted(given.keys() - names)
        missing = [name for name in names if name not in given and name not in defaults]
        if unknown or missing or len(given) != len(args) + len(kwargs):
            message = f"takes each of {names} once; unknown {unknown}, missing {missing}"
            raise TypeError(f"{cls.__name__}() {message}")
        return [given[name] if name in given else defaults[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    if "__hash__" not in cls.__dict__:
        cls.__hash__ = __hash__
    cls.__eq__, cls.__repr__ = __eq__, __repr__
    cls.__setattr__ = cls.__delattr__ = _read_only
    return cls
