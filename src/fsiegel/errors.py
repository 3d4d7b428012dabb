"""Exception types shared across the package."""

import math


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class ShapeError(ValueError):
    """Matrix or vector dimensions do not conform."""


class RankDeficientError(ValueError):
    """A proposed basis does not span a subspace of the required dimension."""


class NotIsotropicError(ValueError):
    """A proposed subspace is not isotropic for the symplectic form."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured size cap."""


def count_text(count: int) -> str:
    """A count for a refusal message: its digits, or ~10^e past the interpreter's digit limit."""
    try:
        return str(count)
    except ValueError:
        return f"~10^{int(math.log10(count))}"


class ConsistencyError(RuntimeError):
    """Two independent computations of the same fact disagree.

    This always indicates an internal arithmetic bug and is never caught
    as part of normal control flow.
    """


class VerificationFailure(RuntimeError):
    """A structural cross-check (divisibility, label constancy) failed."""
