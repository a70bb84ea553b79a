"""Kinematics of the T-square drawing compass and the placement solve.

The compass is a unit-width straightedge laid along the x-axis with a
rotating ring at the origin, plus a T whose long leg slides through the
ring.  The T's top is 2 units long, perpendicular to the leg, with a
pencil at each end: C rides the guide line y = 1 (drawing it), D traces
the curve.  One scalar fixes the whole configuration: the leg angle u.
With the ring-to-top distance s (the slide), the top's midpoint is
E = s * (cos u, sin u) and the pencils sit one unit either side of E
along the perpendicular (sin u, -cos u).  Requiring C to stay on y = 1
gives

    s * sin(u) - cos(u) = 1   =>   s = (1 + cos u) / sin u = cot(u / 2),

computed here in the half-angle form, which stays exact as u -> pi where
the naive quotient cancels to 0/0.

Placing the square to trisect an angle phi means turning the leg until
the tracing pencil D lies on the ray at angle phi.  The map from u to
the polar angle of D is continuous and strictly increasing (it equals
3u/2; asserted on a grid by the test suite), so the placement is the
one root of tip angle - phi over the whole leg range.  It is found
without using any closed form: one secant step between the tip angles
measured at the two ends of the leg range, then a check of its residual.
"""

from __future__ import annotations

import math

from .curve import PHI_MAX, PHI_MIN
from .errors import NoTraceRoot, OutOfDomain, OutOfRange
from .geom import Point, _Record, _slot_setters

# The placement's leg range is the whole of (0, pi) that doubles reach:
# at 1e-300 the slide cot(u/2) = 2e300 is still finite, and the top end
# is the last double below pi.  The tip angle 3u/2 at _LEG_MIN is the
# shared lower angle limit curve.PHI_MIN.
_LEG_MIN = 1e-300
_LEG_MAX = math.nextafter(math.pi, 0.0)

# The range checks' lower bound: the smallest double, the one positive
# leg angle whose half rounds to 0.0, so that cot(u/2) would divide by
# zero.  Each larger angle has a slide, an infinite one below about 1e-308.
_U_FLOOR = math.ulp(0.0)

# A placement is accepted once its tip-angle residual is at most this
# fraction of phi: a few roundings of the tip-angle evaluation.
_RESIDUAL_RTOL = 4.0 * math.ulp(1.0)


class LinkageState(_Record):
    """One configuration of the compass.

    u: leg angle from the origin ring, in (0, pi).
    s: slide distance |OE| of the top's midpoint along the leg, > 0.
    C: guide pencil, on y = 1.   D: tracing pencil.   E: midpoint of CD.
    """

    __slots__ = ("u", "s", "C", "D", "E")

    def __init__(self, u: float, s: float, C: Point, D: Point, E: Point) -> None:
        _state_u(self, u)
        _state_s(self, s)
        _state_C(self, C)
        _state_D(self, D)
        _state_E(self, E)


_state_u, _state_s, _state_C, _state_D, _state_E = _slot_setters(LinkageState)


class PlacementSolution(_Record):
    """A solved placement: the state whose tracing pencil lies on the target ray.

    iterations is 0 when an end of the leg range is the placement, else 1.
    """

    __slots__ = ("state", "iterations")

    def __init__(self, state: LinkageState, iterations: int) -> None:
        _placement_state(self, state)
        _placement_iterations(self, iterations)


_placement_state, _placement_iterations = _slot_setters(PlacementSolution)


def _pencils(u: float) -> tuple[float, float, float, float, float, float, float]:
    """(s, Cx, Cy, Dx, Dy, Ex, Ey) at leg angle u in (0, pi): the compass's one float kernel.

    state_from_leg_angle wraps it in records.  The CLI's simulate CSV
    computes the same expressions in one loop per block, and calls this
    only for its checks, on the grid's first row.  Only E is checked
    for finiteness: C and D lie a unit from it.
    """
    if not _U_FLOOR < u < math.pi:
        raise OutOfRange(f"leg angle must lie in (0, pi), got {u}")
    half = 0.5 * u
    s = math.cos(half) / math.sin(half)
    cu = math.cos(u)
    su = math.sin(u)
    ex = s * cu
    ey = s * su
    if not (math.isfinite(ex) and math.isfinite(ey)):
        raise OutOfDomain(f"non-finite point ({ex}, {ey})")
    return s, ex + su, ey - cu, ex - su, ey + cu, ex, ey


def state_from_leg_angle(u: float) -> LinkageState:
    """Compass configuration at leg angle u in (0, pi)."""
    s, cx, cy, dx, dy, ex, ey = _pencils(u)
    return LinkageState(u, s, Point(cx, cy), Point(dx, dy), Point(ex, ey))


def _tip_angle(st: LinkageState) -> float:
    """Polar angle of the state's tracing pencil D, unwrapped to (0, 2*pi).

    The tip sweeps from 0+ up through 3*pi/2 as u runs over (0, pi), so
    lifting negative atan2 results by 2*pi makes the map continuous and
    strictly increasing over the whole leg range.
    """
    a = math.atan2(st.D.y, st.D.x)
    return a + math.tau if a < 0.0 else a


# Tip angles at the ends of the leg range, the same for every placement.
_TIP_MIN = _tip_angle(state_from_leg_angle(_LEG_MIN))
_TIP_MAX = _tip_angle(state_from_leg_angle(_LEG_MAX))


def scudder_place(phi: float) -> PlacementSolution:
    """Place the square so the tracing pencil lies on the ray at angle phi.

    The placement is the leg angle where g(u) = tip angle - phi is within
    _RESIDUAL_RTOL * phi of 0.  The g at the two ends of the leg range
    comes from the constant end tip angles, and an end within tolerance is
    the placement (0 iterations): _TIP_MIN is PHI_MIN, and _TIP_MAX lies
    within tolerance of every phi above it.  Otherwise the placement is the
    secant point of the two ends, taken from the end with the smaller |g|
    (1 iteration): the tip angle is 3u/2, linear in u, so that one point
    lands on the root.  Its state is built once, and its tip angle is read
    and checked; a point that misses raises NoTraceRoot, an internal
    defect, not a placement.
    """
    if not PHI_MIN <= phi <= PHI_MAX:
        raise OutOfRange(f"query angle must lie in [{PHI_MIN}, 3*pi/2] radians, got {phi}")

    tol = _RESIDUAL_RTOL * phi
    g_lo = _TIP_MIN - phi
    g_hi = _TIP_MAX - phi
    if abs(g_lo) <= tol:
        return PlacementSolution(state_from_leg_angle(_LEG_MIN), 0)
    if abs(g_hi) <= tol:
        return PlacementSolution(state_from_leg_angle(_LEG_MAX), 0)
    # the secant point from the end with the smaller |g|
    if abs(g_lo) <= abs(g_hi):
        u = _LEG_MIN - (g_lo / (g_hi - g_lo)) * (_LEG_MAX - _LEG_MIN)
    else:
        u = _LEG_MAX - (g_hi / (g_hi - g_lo)) * (_LEG_MAX - _LEG_MIN)
    st = state_from_leg_angle(u)
    if abs(_tip_angle(st) - phi) > tol:
        raise NoTraceRoot(f"the placement at phi={phi} misses the ray by more than {tol}")
    return PlacementSolution(st, 1)
