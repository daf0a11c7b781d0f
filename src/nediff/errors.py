"""Exception taxonomy shared across the package.

Each class carries the command line exit code it maps to: 1 for a bad
request (domain, configuration), 2 for a computation that failed.
"""


class NediffError(Exception):
    """Base of every error nediff raises on purpose (not a programming error)."""

    exit_code = 1


class DomainError(NediffError, ValueError):
    """A physical or mathematical argument is outside its valid domain."""


class ConfigurationError(NediffError, ValueError):
    """A grid, scenario or run description is inconsistent or insufficient."""


class AnalysisError(NediffError, RuntimeError):
    """An observable could not be extracted from the data (e.g. too few peaks)."""

    exit_code = 2


class NumericalError(NediffError, RuntimeError):
    """A numerical routine failed to reach the requested accuracy.

    Carries the achieved error estimate so callers can decide whether the
    partial result is still usable.
    """

    exit_code = 2

    def __init__(self, message, achieved=None, partial=None):
        super().__init__(message)
        self.achieved = achieved
        self.partial = partial
