"""Exception taxonomy shared by every module in the package."""

__all__ = [
    "EosError",
    "InvalidInputError",
    "InvalidConfigError",
    "ModelError",
    "NumericalError",
    "ContractViolationError",
    "NonConvergenceError",
    "CalibrationError",
    "ParseError",
]


class EosError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(EosError, ValueError):
    """Data handed to an operation violates its preconditions."""


class InvalidConfigError(EosError, ValueError):
    """A configuration value is out of range, malformed, or unknown."""


class ModelError(EosError, RuntimeError):
    """An error model could not complete a parameter update or evaluation."""


class NumericalError(EosError, RuntimeError):
    """An objective or intermediate quantity became non-finite."""


class ContractViolationError(EosError, RuntimeError):
    """A parameter update increased the objective beyond the allowed slack."""


class NonConvergenceError(EosError, RuntimeError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class CalibrationError(EosError, RuntimeError):
    """A bandwidth or regularization-strength search cannot reach its target."""


class ParseError(EosError, ValueError):
    """A CSV file or configuration document could not be parsed."""
