"""Verification certificates: named numeric residuals plus a pass flag."""

from __future__ import annotations

from .geom import _Record


class Certificate(_Record):
    """Record of residuals from checking a construction against its defining conditions.

    ``passed`` is true iff every residual is at most ``tolerance``; a NaN
    residual always fails.
    """

    __slots__ = ("residuals", "tolerance", "passed")

    def __init__(self, residuals: dict[str, float], tolerance: float, passed: bool) -> None:
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "passed", passed)

    @classmethod
    def from_residuals(cls, residuals: dict[str, float], tolerance: float) -> "Certificate":
        ok = all(v <= tolerance for v in residuals.values())
        return cls(dict(residuals), tolerance, ok)

    def worst(self) -> tuple[str, float]:
        """Name and value of the largest residual."""
        name = max(self.residuals, key=lambda k: self.residuals[k])
        return name, self.residuals[name]

    def failing(self) -> dict[str, float]:
        """Residuals exceeding the tolerance (NaN counts as failing)."""
        return {k: v for k, v in self.residuals.items() if not v <= self.tolerance}
