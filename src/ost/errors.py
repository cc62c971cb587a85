"""Exception types shared across the package."""


class OstError(Exception):
    """Base class for all package-specific errors."""


class DecodeError(OstError):
    """Audio file could not be read or parsed."""


class UnsupportedEncodingError(OstError):
    """Audio file uses an encoding outside 16-bit PCM / 32-bit float."""


class DataError(OstError):
    """Malformed input data (ground truth, activations, dictionaries)."""


class NumericError(OstError):
    """Numerical failure: solver blow-up, NaN, or an LP failure (below)."""


class LpInfeasibleError(NumericError):
    """Linear program has no feasible point."""


class LpUnboundedError(NumericError):
    """Linear program objective is unbounded below."""


class LpGuardError(NumericError):
    """Problem size exceeds the desk-scale guard."""
