"""Frozen value records without `dataclasses`.

`record` gives a class with annotated fields the part of
`@dataclass(frozen=True)` that the package's records use: an `__init__`
taking the fields by position or name, with class-level defaults, that then
calls `__post_init__`; `__eq__` and `__hash__` over the fields, equal only
to a record of the same class; `Name(field=value, ...)` as `repr`;
`__match_args__`; and `__setattr__`/`__delattr__` that refuse. Fields named
in `hidden` take no part in `==`, `hash` or `repr`. `__post_init__` may set
a field through `object.__setattr__`, and `functools.cached_property`
stores into the instance `__dict__`, both as with a frozen dataclass.

The methods are closures over the field names, not generated source, so
defining a record compiles nothing, and importing this module imports
neither `dataclasses` nor the `inspect`, `ast`, `dis` and `tokenize` it
pulls in, a cost every exact command would pay at start-up.
"""


def record(cls=None, /, *, hidden=()):
    """Make cls a frozen record over its annotated fields, in order."""
    if cls is None:
        return lambda cls: record(cls, hidden=hidden)
    name = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    compared = tuple(n for n in names if n not in hidden)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} fields, got {len(args)}")
        values = {**defaults, **dict(zip(names, args))}
        for key, value in kwargs.items():
            if key not in names or key in names[: len(args)]:
                raise TypeError(f"{name}() got an unexpected or repeated field {key!r}")
            values[key] = value
        try:
            vars(self).update([(n, values[n]) for n in names])
        except KeyError as missing:
            raise TypeError(f"{name}() missing field {missing.args[0]!r}") from None
        if post_init is not None:
            post_init(self)

    def key(self):
        return tuple([getattr(self, n) for n in compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join([f"{n}={getattr(self, n)!r}" for n in compared])
        return f"{name}({shown})"

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of frozen {name}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of frozen {name}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
