"""Exception types shared across the package.

Input-validation failures derive from ValueError; internal-consistency
failures (conditions that indicate a bug rather than bad input) derive
from RuntimeError.
"""


class TrisectrixError(Exception):
    """Base class for all package-specific errors."""


class OriginHasNoAngle(TrisectrixError, ValueError):
    """Polar angle requested for the origin."""


class AllCoefficientsZero(TrisectrixError, ValueError):
    """Root solve requested for the identically-zero polynomial."""


class OutOfDomain(TrisectrixError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class OutOfRange(TrisectrixError, ValueError):
    """Angle or parameter outside the range the device supports."""


class BadRange(TrisectrixError, ValueError):
    """Degenerate or reversed sampling range."""


class NoTraceRoot(TrisectrixError, RuntimeError):
    """A ray-curve solve produced a root off the traced branch.

    Must not occur for valid query angles; signals an internal defect.
    """

