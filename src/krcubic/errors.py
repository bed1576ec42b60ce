"""Exception types shared across the package, error_at, which positions a
ParseError, and Record, the base of its read-only value records.

This is the leaf module every other module imports, so the base lives here.
"""


class Record:
    """A read-only record over the subclass's __slots__.

    Record(*values) fills the slots in order; assignment afterwards raises.
    A subclass that validates its input keeps its own __init__ and passes
    the slot values on to Record.__init__; a private constructor that skips
    __init__ fills the slots through _setters.  Equality, hashing and repr
    stay those of object, records comparing and hashing by identity, unless
    the subclass defines its own.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # each slot's own setter, in slot order: calling it directly skips
        # the name lookup that object.__setattr__ makes for every value
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} values, "
                            f"got {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class KrError(Exception):
    """Base class for all library errors."""


class TableMismatchError(KrError):
    """Operands belong to different variable tables."""


class NegativeExponentError(KrError):
    """Negative exponent on a variable that was not declared Laurent."""


class ExponentOverflowError(KrError):
    """An exponent would leave the range that a packed monomial key holds."""


class NonUnitError(KrError):
    """Inversion requested for something that is not a unit monomial."""


class EmptyConeError(KrError):
    """Polynomial vanishes identically after translation to the center."""


class LaurentInputError(KrError):
    """Division/Groebner input still carries negative exponents."""


class GroebnerBudgetError(KrError):
    """Buchberger pair budget exhausted before completion."""


class ExtensionError(KrError):
    """Automorphism extension failed: the map does not preserve the ideal."""


class DerivationError(KrError):
    """Invalid derivation construction or use."""


class UnverifiedPairError(KrError):
    """An operation required a verified inverse pair and the check failed."""


class PostconditionError(KrError):
    """A computed result failed its own exact check: a defect in the kernel."""


class ParseError(KrError):
    """Positioned syntax or binding error in a source unit; error_at builds one."""

    def __init__(self, message, line, col, offset, expected=()):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.offset = offset
        self.expected = tuple(sorted(expected))

    def __str__(self):
        loc = f"{self.line}:{self.col}"
        if self.expected:
            return f"{loc}: {self.message} (expected {', '.join(self.expected)})"
        return f"{loc}: {self.message}"


def error_at(text: str, offset: int, message: str, expected=()) -> ParseError:
    """A ParseError at offset of text, its line and column counted from 1."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset), offset, expected)
