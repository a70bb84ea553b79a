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
one root of tip angle - phi over the whole leg range, found by search
without using any closed form.
"""

from __future__ import annotations

import math

from .curve import PHI_MAX, PHI_MIN
from .errors import OutOfDomain, OutOfRange
from .geom import Point, _Record, _slot_setters

# The placement searches the whole leg range (0, pi) that doubles reach:
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
    """A solved placement: the state whose tracing pencil lies on the target ray."""

    __slots__ = ("state", "iterations")

    def __init__(self, state: LinkageState, iterations: int) -> None:
        _placement_state(self, state)
        _placement_iterations(self, iterations)


_placement_state, _placement_iterations = _slot_setters(PlacementSolution)


def _pencils(u: float) -> tuple[float, float, float, float, float, float, float]:
    """(s, Cx, Cy, Dx, Dy, Ex, Ey) at leg angle u in (0, pi): the compass's one float kernel.

    state_from_leg_angle wraps it in records, and the CSV rows use it as
    it is.  Only E is checked for finiteness: C and D lie a unit from it.
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

    A search over the whole leg range for a root of g(u) = tip angle - phi
    that stops at the first point with |g| <= _RESIDUAL_RTOL * phi.  The
    g at the two ends comes from the constant end tip angles, and an end
    within tolerance is the placement (0 iterations).  No other phi can
    leave the ends unbracketed: _TIP_MIN is PHI_MIN, and _TIP_MAX lies
    within tolerance of every phi above it.  The first point is the secant
    point from the end with the smaller |g|; the tip angle is linear in u,
    so it lands on the placement.  Each point that misses replaces the
    bracket end of its sign, and the next point splits the bracket: at
    its midpoint when the ends lie within a factor 2 of each other, else
    at their geometric mean (both ends lie in [_LEG_MIN, _LEG_MAX], so
    both are positive), so a root far below the bracket's scale takes a
    few splits to reach, not ~1,000 halvings.  The splits close the
    bracket within 66 points; at two adjacent floats the end with the
    smaller |g| comes back.  Each point's g is read from the state built
    there, and the accepted point's state is the one returned.  An
    accepted end builds its state then, and so does the end picked at
    two adjacent floats.
    """
    if not PHI_MIN <= phi <= PHI_MAX:
        raise OutOfRange(f"query angle must lie in [{PHI_MIN}, 3*pi/2] radians, got {phi}")

    tol = _RESIDUAL_RTOL * phi
    lo, g_lo = _LEG_MIN, _TIP_MIN - phi
    hi, g_hi = _LEG_MAX, _TIP_MAX - phi
    iterations = 0
    if abs(g_lo) <= tol:
        st = state_from_leg_angle(lo)
    elif abs(g_hi) <= tol:
        st = state_from_leg_angle(hi)
    else:
        # the secant point from the end with the smaller |g|
        if abs(g_lo) <= abs(g_hi):
            u = lo - (g_lo / (g_hi - g_lo)) * (hi - lo)
        else:
            u = hi - (g_hi / (g_hi - g_lo)) * (hi - lo)
        while True:  # at most 67 points
            iterations += 1
            st = state_from_leg_angle(u)
            g = _tip_angle(st) - phi
            if abs(g) <= tol:
                break
            if g < 0.0:
                lo, g_lo = u, g
            else:
                hi, g_hi = u, g
            u = lo + 0.5 * (hi - lo) if hi <= 2.0 * lo else math.sqrt(lo) * math.sqrt(hi)
            if not lo < u < hi:  # lo and hi are adjacent floats
                st = state_from_leg_angle(lo if abs(g_lo) <= abs(g_hi) else hi)
                break
    return PlacementSolution(st, iterations)
