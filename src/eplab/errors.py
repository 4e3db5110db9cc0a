"""Exception types shared across the package.

Every error raised on a documented failure path derives from EplabError.
The CLI maps one class to each exit code: InvalidArgumentError (1, a bad
command line or argument value), DataError (2, a file that is missing,
unreadable or malformed) and any other EplabError (3, numerical failure).
"""

__all__ = ["EplabError", "InvalidArgumentError", "DegenerateGaugeError",
           "NotGaugeFixedError", "SingularRatioError", "NotOnPTCurveError",
           "OutOfBoundsError", "PoleOnGridError", "UnresolvableDoubletError",
           "InsufficientSpanError", "NonConvergenceError", "ScanQualityError",
           "EPOutsideWindowError", "NoEPFoundError", "RefineLoopError",
           "DataError"]

# reading a malformed field: no such key or index, or a wrong type or value
_MALFORMED = (LookupError, TypeError, ValueError)


class EplabError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(EplabError, ValueError):
    """Non-finite or otherwise malformed input value."""


class DegenerateGaugeError(EplabError):
    """Gauge angle undefined: h is a complex multiple of a real vector."""


class NotGaugeFixedError(EplabError):
    """Off-diagonal ratio modulus deviates from 1 beyond tolerance."""


class SingularRatioError(EplabError):
    """Off-diagonal ratio is singular or sits on the excluded branch cut."""


class NotOnPTCurveError(EplabError):
    """Re h . Im h exceeds tolerance; no symmetrizing rotation exists."""


class PoleOnGridError(EplabError):
    """Resolvent singular at a sampled real frequency."""


class OutOfBoundsError(InvalidArgumentError):
    """Parameter point outside the declared family bounds."""


class UnresolvableDoubletError(EplabError):
    """Spectrum too flat or featureless to seed a two-level fit."""


class InsufficientSpanError(EplabError):
    """Frequency window too narrow to constrain both resonances."""


class NonConvergenceError(EplabError):
    """No start converged; its message names the best rms and the starts."""


class ScanQualityError(EplabError):
    """Too many per-point failures for the scan to be usable."""


class EPOutsideWindowError(EplabError):
    """|D| minimum on the scan boundary; the EP is not inside the window."""


class NoEPFoundError(EplabError):
    """|D| landscape has no pronounced minimum."""


class RefineLoopError(EplabError):
    """Eigenvalue continuation ambiguous; the loop needs smaller steps."""


class DataError(EplabError):
    """Missing, unreadable, or inconsistent input/output files (exit 2)."""
