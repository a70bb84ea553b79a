"""Carpenter's-square trisectrix: curve, compass kinematics, and verified trisection."""

from .certificate import Certificate
from .construct import (
    METHOD_CURVE,
    METHOD_SCUDDER,
    TrisectionResult,
    sweep_verify,
    trisect_via_curve,
    trisect_via_scudder,
    verify_trisection,
)
from .curve import implicit_value, intersect_ray, sample_trace, trace_point
from .geom import Point, Ray
from .linkage import (
    LinkageState,
    PlacementSolution,
    scudder_place,
    state_from_leg_angle,
)

__all__ = [
    "Certificate",
    "LinkageState",
    "METHOD_CURVE",
    "METHOD_SCUDDER",
    "PlacementSolution",
    "Point",
    "Ray",
    "TrisectionResult",
    "implicit_value",
    "intersect_ray",
    "sample_trace",
    "scudder_place",
    "state_from_leg_angle",
    "sweep_verify",
    "trace_point",
    "trisect_via_curve",
    "trisect_via_scudder",
    "verify_trisection",
]

__version__ = "0.1.0"
