"""Exception types shared across the package.

Most precondition violations raise plain ValueError with a descriptive
message; the classes below exist where callers (notably the CLI) need to
tell error families apart.
"""


class ParseError(ValueError):
    """A file could not be parsed. Carries the 1-based line and column."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")

    def __reduce__(self):
        # BaseException pickles its message alone, which __init__ cannot take;
        # an error raised in a worker process crosses back by pickle.
        return type(self), (self.line, self.column, self.reason)


class ValidationError(ValueError):
    """Parsed input violates a dataset invariant or a size limit."""


class DegenerateDataError(ValueError):
    """Data admits no screening (a zero-variance response component, or an
    HSIC utility that overflows double precision)."""


class DegenerateStatusError(DegenerateDataError):
    """All subjects censored or all subjects events."""


class DegenerateTimesError(DegenerateDataError):
    """Observed times have zero variance."""


class CalibrationError(RuntimeError):
    """Censoring-scale calibration failed."""


class InfeasibleTargetError(CalibrationError):
    """The target censoring rate is not bracketed by any admissible scale."""


class NoConvergenceError(CalibrationError):
    """Bisection did not reach the tolerance within the step budget."""
