"""Exception types shared across the package, one per exit code of `ost`."""


class OstError(Exception):
    """Base class for all package-specific errors."""


class DataError(OstError):
    """Malformed or unreadable input: audio (a bad file or an unsupported
    encoding), ground truth, activation tables, templates. Exit code 2."""


class NumericError(OstError):
    """Numerical failure: solver blow-up, non-finite output, or an LP that
    is infeasible, unbounded, over its size guard or off its constraints.
    Exit code 3."""
