"""Verification certificates: named numeric residuals and the verdict they give."""

from __future__ import annotations

import math

from .errors import BadRange
from .geom import _Record, _slot_setters


class Certificate(_Record):
    """Record of residuals from checking a construction against its defining conditions.

    The residuals are stored as ``(name, value)`` pairs, so the record is
    immutable in fact and hashable.  ``passed`` is true iff every residual
    is at most ``tolerance``; a NaN residual always fails.  It is computed
    from the pairs, so it cannot disagree with them.  The tolerance must
    be finite and positive (at NaN every certificate would fail, at
    infinity any would pass), and there must be at least one residual;
    either lack raises BadRange.
    """

    __slots__ = ("pairs", "tolerance")

    def __init__(self, pairs: tuple[tuple[str, float], ...], tolerance: float) -> None:
        if not 0.0 < tolerance < math.inf:
            raise BadRange(f"tolerance must be finite and positive, got {tolerance}")
        pairs = tuple(pairs)
        if not pairs:
            raise BadRange("a certificate needs at least one residual")
        _cert_pairs(self, pairs)
        _cert_tolerance(self, tolerance)

    @classmethod
    def from_residuals(cls, residuals: dict[str, float], tolerance: float) -> "Certificate":
        return cls(tuple(residuals.items()), tolerance)

    @property
    def residuals(self) -> dict[str, float]:
        """The residuals by name, as a new dict."""
        return dict(self.pairs)

    @property
    def passed(self) -> bool:
        tol = self.tolerance
        for _, v in self.pairs:
            if not v <= tol:  # also true for NaN
                return False
        return True

    def worst(self) -> tuple[str, float]:
        """Name and value of the largest residual, or of the first NaN one, which fails ``passed``."""
        for pair in self.pairs:
            if math.isnan(pair[1]):
                return pair
        return max(self.pairs, key=lambda pair: pair[1])


_cert_pairs, _cert_tolerance = _slot_setters(Certificate)
