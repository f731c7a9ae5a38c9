"""Exception types shared across the toolkit, and the base of its value records."""

from enum import Enum
from operator import attrgetter


class ReesKitError(Exception):
    """Base class for every error raised by this package."""


class InvalidInstance(ReesKitError, ValueError):
    """Input data violates a structural precondition."""


class ZeroVector(InvalidInstance):
    pass


class EmptyFamily(InvalidInstance):
    pass


class UnequalCardinalities(InvalidInstance):
    """Two members of a basis family have different sizes."""

    def __init__(self, first, second):
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(f"members {self.first} and {self.second} have different sizes")


class BadRank(InvalidInstance):
    pass


class EmptyInput(InvalidInstance):
    pass


class UnequalModuli(InvalidInstance):
    """Two vectors of a polymatroid base family have different moduli."""

    def __init__(self, first, second):
        self.first = tuple(first)
        self.second = tuple(second)
        super().__init__(f"vectors {self.first} and {self.second} have different moduli")


class VariableAbsent(InvalidInstance):
    pass


class ParseError(ReesKitError):
    """Instance file cannot be parsed into the wire format."""


class DegenerateCone(ReesKitError):
    """Generators fail to span the full ambient dimension."""


class PreconditionFailed(ReesKitError):
    pass


class CapExceeded(ReesKitError):
    """A configured resource budget was exceeded before completion."""


class IntegrityError(ReesKitError):
    """An internal invariant that should be unbreakable was broken."""


class MethodDisagreement(IntegrityError):
    """Two independent certification routes returned different verdicts."""


class Record:
    """Base of the package's frozen value records, in place of dataclasses,
    whose import and generated code cost more start-up than most commands'
    work. The fields are the names annotated in the class body, in order,
    given by position only; a class attribute of the same name is the default
    of a trailing field left out. __post_init__, if the class has one, runs
    last and may normalise through object.__setattr__. ==, hash and repr go
    by class and fields, less those named in _uncompared. Attributes cannot
    be assigned or deleted.

    to_json writes the names in _json, in order, or every field when _json
    is None; _json may also name a property or a class constant. A record
    becomes its own to_json, an Enum its value, a tuple a list (of lists for
    a tuple of tuples, of their to_json for a tuple of records). A name whose
    value is None is left out; 0, False and () are kept. jsonio.dumps writes
    a record as its to_json. Class constants such as _json must be
    unannotated, or they would become fields."""

    _uncompared = ()
    _json = None
    __post_init__ = None

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter(*(f for f in cls._fields if f not in cls._uncompared))

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):  # defaults fill the trailing fields
            if len(args) > len(fields):
                raise TypeError(f"{type(self).__name__} has the fields {fields}")
            args += tuple(getattr(type(self), f) for f in fields[len(args):])
        for name, value in zip(fields, args):  # self.__dict__ would slow every read
            object.__setattr__(self, name, value)
        if self.__post_init__:
            self.__post_init__()

    @classmethod
    def unchecked(cls, *args):
        """An instance from values already valid: __post_init__ does not run."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._uncompared)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def to_json(self) -> dict:
        out = {}
        for name in self._fields if self._json is None else self._json:
            v = getattr(self, name)
            if v is None:
                continue
            if type(v) is tuple:  # one call per row, not one call per entry
                row = v[0] if v else None
                v = ([list(e) for e in v] if type(row) is tuple else
                     [e.to_json() for e in v] if isinstance(row, Record) else list(v))
            elif isinstance(v, Record):
                v = v.to_json()
            elif isinstance(v, Enum):
                v = v.value
            out[name] = v
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
