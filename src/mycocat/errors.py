"""Exception hierarchy for mycocat, and the base of its value records.

Every error raised by the library derives from :class:`MycocatError`, so
callers can catch the whole family with one clause. The subclasses mirror
the failure modes of the public operations: structural mismatches, violated
admissibility constraints, numeric trouble, and bad configuration.

:class:`Record` lives here because every module that declares a record
already imports this one, so the base adds no import to any path.
"""

from operator import attrgetter


class MycocatError(Exception):
    """Base class for all mycocat errors."""


class CompositionError(MycocatError):
    """Morphisms or field rules that do not line up for composition."""


class PreconditionError(MycocatError):
    """A documented operation precondition does not hold (e.g. non-mono leg)."""


class ConstraintError(MycocatError):
    """An admissibility constraint is violated; the message names the bound."""


class ShapeError(MycocatError):
    """Dimension or layout mismatch between numeric objects."""


class NumericError(MycocatError):
    """Non-finite values or a numerically meaningless result."""


class DomainError(MycocatError):
    """Input outside the mathematical domain of the operation (e.g. matrix
    logarithm of a matrix with a nonpositive real eigenvalue)."""


class ParameterError(MycocatError):
    """Invalid parameter value (negative weight, unsupported order, ...)."""


class ResourceError(MycocatError):
    """Request would exceed the enumeration budget of an exhaustive check."""


class InsufficientDataError(MycocatError):
    """Not enough usable data points for a fit."""


class InputError(MycocatError):
    """Required checker input is missing or malformed."""


class ConfigError(MycocatError):
    """Malformed experiment or CLI configuration; message carries the field path."""


class FrozenRecordError(MycocatError, AttributeError):
    """Assignment to, or deletion of, an attribute of an immutable record."""


class Record:
    """Base of the immutable value records (graphs, states, programs, reports).

    Each subclass writes its own ``__init__``, which checks its arguments and
    stores every field once into ``vars(self)``. The field names are that
    ``__init__``'s parameters, in order; a subclass without its own
    ``__init__`` keeps its parent's fields. Equality and hashing are those of
    the tuple of fields, between instances of one class only; ``repr`` is
    ``Name(field=value, ...)``. Plain attributes a record derives from its
    fields are stored the same way and take part in none of these.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]
            get = attrgetter(*cls._fields)
            # attrgetter of one name returns the bare value, not a 1-tuple
            cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))
