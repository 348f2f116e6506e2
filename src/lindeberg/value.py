"""Immutable value classes over declared fields, written out once.

A subclass lists its fields in ``_fields`` (and in its ``__slots__``), and any
defaults in ``_defaults``.  It is built positionally or by keyword, checks
itself in ``_validate`` (which may replace a field by its normalized form with
``object.__setattr__``), and compares, hashes and prints by its fields.  Copies
and pickles are rebuilt through the constructor from the fields, so ``_validate``
must accept the fields it has normalized.
"""


class Value:
    """The base of the validated value types; see the module docstring."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments; got {len(args)}")
        given = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in given:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            given[key] = value
        for key in self._fields:
            if key not in given and key not in self._defaults:
                raise TypeError(f"{name}() missing argument {key!r}")
            object.__setattr__(self, key, given[key] if key in given else self._defaults[key])
        self._validate()

    def _validate(self):
        pass

    def _astuple(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        args = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({args})"
