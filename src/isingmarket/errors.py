"""Exception types shared across the toolkit.

Every domain failure raised by library code derives from ToolkitError so the
CLI can map it to exit code 1; UsageError is reserved for bad command-line
input (exit code 2).
"""


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""


class FormatError(ToolkitError):
    """Malformed input file: missing column, bad header, non ±1 spin cell."""


class EmptyInputError(ToolkitError):
    """An input yielded zero usable rows."""


class AlignmentError(ToolkitError):
    """Date intersection across tickers is empty."""


class InsufficientSampleError(ToolkitError):
    """Too few rows / values for the requested computation."""


class DegenerateDataError(ToolkitError):
    """Zero-variance input (constant column or constant sample)."""


class DegenerateRatioError(ToolkitError):
    """A ratio whose denominator is (near) zero: I_N below tolerance, sigma_J = 0."""


class SizeLimitError(ToolkitError):
    """System size exceeds the exact-enumeration guard."""


class DomainError(ToolkitError):
    """Argument outside an operation's mathematical domain."""


class BoundaryError(ToolkitError):
    """Target moments on the boundary of the model family (|q_i| = 1)."""


class SingularMatrixError(ToolkitError):
    """Connected-correlation matrix not invertible at the requested conditioning."""


class ConvergenceError(ToolkitError):
    """Iterative fit did not reach tolerance; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DivergenceError(ToolkitError):
    """Iteration produced NaN/overflow, or an unregularized fit is unbounded."""


class ReliabilityError(ToolkitError):
    """Too many clamped discriminants under strict mode."""


class DimensionMismatchError(ToolkitError):
    """Model size and data size disagree."""


class ConfigError(ToolkitError):
    """Invalid method tag or run configuration."""


class KernelBuildError(ToolkitError):
    """A C source (the sampler's kernel or the text scans) could not be compiled or loaded;
    carries the compiler's stderr."""

    def __init__(self, message, stderr=""):
        super().__init__(f"{message}\n{stderr}".rstrip())
        self.stderr = stderr


class UsageError(Exception):
    """Invalid command-line flag value; maps to exit code 2."""
