"""Exception types shared across the package.

Input-validation failures derive from ValueError; internal-consistency
failures (conditions that indicate a bug rather than bad input) derive
from RuntimeError.
"""


class TrisectrixError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomain(TrisectrixError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class OutOfRange(TrisectrixError, ValueError):
    """Angle or parameter outside the range the device supports."""


class BadRange(TrisectrixError, ValueError):
    """Degenerate or reversed sampling range."""


class NoTraceRoot(TrisectrixError, RuntimeError):
    """A solve produced a point off the target ray.

    Either the ray-curve solve's root lies off the traced branch, or the
    square's placement misses the ray by more than its tolerance.  Must
    not occur for valid query angles; signals an internal defect.
    """

