"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter is outside the valid domain of an operation or family."""


class SingularFamilyError(DomainError):
    """Family parameters would put a zero denominator in a matrix entry."""


class SizeLimitError(DomainError):
    """Input exceeds a hard size guard (the factorial-time oracle, or the
    2^(n-1) sign vectors of Glynn's formula)."""


class UnsupportedRingError(TypeError):
    """The requested algorithm needs ring features this ring lacks."""


class NonInvertibleError(ZeroDivisionError):
    """Inversion of a non-unit (zero, or residue sharing a factor with the modulus)."""


class NonRationalResultError(ArithmeticError):
    """A value that must be rational came out irrational: an arithmetic bug."""


class SearchExhaustedError(RuntimeError):
    """A bounded search (e.g. for a prime) ran out of candidates."""


class UnknownCheckError(KeyError):
    """Verification check id is not registered."""
