"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: invalid input and usage problems exit 2,
numeric failures exit 3, verification gates that do not pass exit 4.
"""


class MvsdeError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(MvsdeError, ValueError):
    """Malformed or out-of-range input (bad grid, bad eps, bad shapes)."""


class GridMismatchError(InvalidArgumentError):
    """Two objects that must share a time grid do not."""


class InvalidControlError(InvalidArgumentError):
    """Control violates positivity, bounds, or finiteness requirements."""


class UnsupportedError(MvsdeError):
    """Requested operation is outside the supported regime."""


class NumericError(MvsdeError):
    """Non-finite values encountered during a computation."""


class DivergenceError(NumericError):
    """State left the admissible growth envelope during time stepping."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NoConvergenceError(NumericError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual

