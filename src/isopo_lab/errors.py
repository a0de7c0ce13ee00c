"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument violates a documented precondition (shape, range, ...)."""


class SingularMatrixError(ArithmeticError):
    """A linear solve was requested on an (effectively) singular system."""


class EnumerationBudgetError(ValueError):
    """Exact enumeration was requested beyond the configured budget."""


class NonFiniteGradientError(ArithmeticError):
    """A gradient passed to the optimizer contains NaN or infinite entries."""


class NonFiniteWeightError(ArithmeticError):
    """An optimizer step would write NaN or infinite weights."""


class NonFiniteMetricError(ArithmeticError):
    """A metrics row holds a NaN or infinite value."""


class ConfigError(ValueError):
    """A run configuration file or value is invalid."""


class CsvFormatError(ValueError):
    """A metrics CSV does not conform to the expected schema."""
