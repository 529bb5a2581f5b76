"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class FermatError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveOrderError(FermatError):
    """An infinitesimal generator was requested with order <= 0."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class NotInvertibleError(FermatError):
    """Inverse of a value whose standard part is zero."""


class LengthMismatchError(FermatError):
    """Parallel order/exponent lists of different (or zero) length."""


class ProductIsZeroError(FermatError):
    """Order requested for a product of powers that is identically zero."""


class NoFiniteOrderError(FermatError):
    """The cancellation-law balance admits no finite truncation order."""


class DomainError(FermatError):
    """Standard part of an argument lies outside a function's domain."""


class NotSmoothAtPointError(FermatError):
    """Differentiation failed: no clean first-order increment at the point."""


class NotInIdealError(FermatError, ValueError):
    """A displacement or parameter is not nilpotent at its level; a ValueError too."""


class NonFiniteError(FermatError):
    """A coefficient sum whose exact value has no finite binary64 value."""


class UnboundVariableError(FermatError):
    """Expression evaluation hit a variable with no binding."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class ParseError(FermatError):
    """Malformed expression text, with the first offending byte offset."""

    def __init__(self, position: int, expected: str, found: str):
        super().__init__(
            f"parse error at offset {position}: expected {expected}, found {found}"
        )
        self.position = position
        self.expected = expected
        self.found = found
