"""Exception types shared across the package."""


class KrError(Exception):
    """Base class for all library errors."""


class TableMismatchError(KrError):
    """Operands belong to different variable tables."""


class NegativeExponentError(KrError):
    """Negative exponent on a variable that was not declared Laurent."""


class NonUnitError(KrError):
    """Inversion requested for something that is not a unit monomial."""


class UnsupportedOrderError(KrError):
    """Root of unity of an order not dividing 6."""


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
    """Positioned syntax or binding error in a source unit."""

    def __init__(self, message, line, col, offset=None, expected=()):
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
