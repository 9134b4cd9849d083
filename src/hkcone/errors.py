"""hkcone's exceptions, and `Record`, the base of its frozen value types.

`Record` does for these types what ``@dataclass(frozen=True)`` did, at a
fraction of the start-up cost: importing the standard dataclass module
(mostly the `inspect` it loads) and the methods it generates per class
cost a CLI call more time than a small command's work.  Every subcommand
loads this module, and none loads that one or `inspect`.

A record's fields are its annotated names, in order; a class attribute
of the same name is a default.  Each class gets one generated,
straight-line `__init__`: it stores the fields and calls
`__post_init__`, where a record checks or normalises them (with
`object.__setattr__`).  `==`, the hash (that of the tuple of fields, as
a frozen dataclass gives, so set and dict orders are the same) and the
repr read the fields; assigning or deleting an attribute raises
AttributeError.  Instances keep a `__dict__`, so a
`functools.cached_property` works on a record, and what it caches is
neither compared nor shown.
"""


class PreconditionError(ValueError):
    """An operation was called on input that violates its contract."""


class DocumentError(ValueError):
    """An input file is not a UTF-8 JSON document that json can read (too
    deep a nesting or too long an integer are not); the message names the file."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, never a fault in the input."""


class Record:
    """A frozen record; the fields a class names in ``_derived`` are
    compared and shown, but set by `__post_init__`, not passed to `__init__`."""

    _derived = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = [f for f in fields if f not in cls._derived]
        args = ", ".join(f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in params)
        # object.__setattr__, not self.__dict__: touching __dict__ makes CPython
        # build a real dict for the instance, and every field read gets slower
        stores = "".join(f" _set(self, {f!r}, {f})\n" for f in params)
        code = (f"def __init__(self, {args}):\n{stores} self.__post_init__()\n"
                f"def _key(self):\n return ({''.join(f'self.{f}, ' for f in fields)})\n")
        methods = {}
        exec(code, {"_cls": cls, "_set": object.__setattr__}, methods)
        methods["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._key = methods["__init__"], methods["_key"]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
