"""The carpenter's square curve.

The curve is the locus traced by the marking pencil of the T-square
compass: with the base edge along the x-axis and the guide line at
y = 1, the tracing point D = (x, y) satisfies

    x^2 * (3 - y) = (y - 2)^2 * (y + 1),

i.e. the denominator-cleared form of x^2 = (y-2)^2 (y+1) / (3-y).  The
full algebraic curve has a node (self-intersection) at (0, 2), the
horizontal asymptote y = 3, and is mirror-symmetric in x.  The compass
only draws the right-hand branch; we parametrize that traced branch by
t in (0, pi/2]:

    D(t) = (cos(3t) / sin(t), sin(3t) / sin(t)),

so the traced point sits at polar angle 3t and distance csc(t) from the
origin -- which is exactly why the curve trisects: the ray at angle phi
meets the trace at the point whose construction angle is phi / 3.
The parametric form is validated against the implicit equation by the
test suite (dense-grid oracle) before anything else relies on it.

The ray is met by solving the triple-angle identity 4x^3 - 3x = -sin(phi)
(x = sin t = 1/r) or = cos(phi) (x = cos t) for x with one bracketed
root solve, then reading t off x; membership is the polar test 3t = phi.
Nothing here divides an angle by three.
"""

from __future__ import annotations

import math

from .errors import BadRange, NoTraceRoot, OutOfDomain, OutOfRange
from .geom import Point, solve_cubic, uniform_grid

# Upper end of the trace parameter; the curve closes at (0, -1).
T_MAX = math.pi / 2

# Query angles the trace covers (in radians): [PHI_MIN, 3*pi/2].  Both
# trisection methods check this one range.  PHI_MIN is the tip angle of
# the shortest leg the placement can represent; the curve's point there
# sits csc(PHI_MIN / 3) = 2e300 units out, still a finite double.
PHI_MIN = 1.5e-300
PHI_MAX = 1.5 * math.pi

# x-windows of the ray equation T3(x) = 4x^3 - 3x = k (below) where T3 is
# monotone and the trace root lies: [0, sin 15deg] and [sin 45deg,
# sin 75deg], each widened a little so that rounding at a band edge
# cannot push the root out of its window.
_LOW_WINDOW = (0.0, 0.26)
_HIGH_WINDOW = (0.7, 0.97)

# Angle tolerance of the trace-membership test.
TRACE_TOL = 1e-9

# Default lower sampling bound; x ~ 1/t blows up as t -> 0.
DEFAULT_SAMPLE_T_MIN = 0.005


def implicit_value(p: Point) -> float:
    """F(x, y) = x^2 (3 - y) - (y - 2)^2 (y + 1); zero exactly on the curve."""
    return p.x * p.x * (3.0 - p.y) - (p.y - 2.0) ** 2 * (p.y + 1.0)


def _trace_xy(t: float) -> tuple[float, float]:
    """(x, y) of the traced point at parameter t in (0, pi/2], as floats.

    D(t) = (cos 3t, sin 3t) / sin t: polar angle 3t, radius csc t.  The
    y-coordinate simplifies to 3 - 4 sin^2(t).  A point past the largest
    double raises Point's error.  The CLI's curve CSV and SVG trace
    compute the same expressions in one loop per block, and call this
    only for its checks, on the grid's first point: the one that can
    fail them.
    """
    if not 0.0 < t <= T_MAX:
        raise OutOfDomain(f"trace parameter must lie in (0, pi/2], got {t}")
    st = math.sin(t)
    x = math.cos(3.0 * t) / st
    y = math.sin(3.0 * t) / st
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OutOfDomain(f"non-finite point ({x}, {y})")
    return x, y


def trace_point(t: float) -> Point:
    """Point of the traced branch at parameter t in (0, pi/2]."""
    return Point(*_trace_xy(t))


def on_trace(t: float, phi: float) -> bool:
    """True iff the traced point D(t) lies on the ray at angle phi, within TRACE_TOL.

    D(t) sits at polar angle 3t, so this is the polar membership test
    3t = phi (mod 2*pi).  The mirror image of D(t) sits at pi - 3t and
    passes only where it coincides with D(t): at the node, t = pi/6.
    """
    return abs(math.remainder(3.0 * t - phi, math.tau)) <= TRACE_TOL


def sample_trace(t_min: float, t_max: float, n: int) -> list[Point]:
    """Trace points at n uniformly spaced t over [t_min, t_max], both ends included.

    n is checked (by uniform_grid) before the range.
    """
    ts = uniform_grid(t_min, t_max, n)
    if not 0.0 < t_min < t_max <= T_MAX:
        raise BadRange(f"need 0 < t_min < t_max <= pi/2, got [{t_min}, {t_max}]")
    return [trace_point(t) for t in ts]


def intersect_ray(phi: float) -> tuple[Point, float]:
    """The traced point D(t) on the ray from the origin at angle phi in [PHI_MIN, 3*pi/2], and its t.

    D is built on the ray as csc t * (cos phi, sin phi), so 1 + y = 4 cos^2 t.

    Substituting (r cos phi, r sin phi) into the implicit form gives the
    ray cubic -sin(phi) r^3 + 3 r^2 - 4 = 0.  In x = 1/r = sin t it is
    the triple-angle identity T3(x) = 4x^3 - 3x = -sin(3t) = -sin(phi);
    in x = cos t it reads T3(x) = cos(3t) = cos(phi).  The reading with
    the smaller right-hand side keeps |k| <= sqrt(1/2), so the trace root
    is simple and lies in a fixed window where T3 is monotone; one
    bracketed solve finds it, and t comes from asin or acos.

    The ray cubic's other positive root, sin(pi/3 - t) while phi < pi,
    meets the mirror branch, which the compass does not draw; it is not
    solved for.  At the node it coincides with the trace root.
    """
    if not PHI_MIN <= phi <= PHI_MAX:
        raise OutOfRange(f"query angle must lie in [{PHI_MIN}, 3*pi/2] radians, got {phi}")
    s = math.sin(phi)
    c = math.cos(phi)
    if abs(s) <= abs(c):  # x = sin t
        lo, hi = _LOW_WINDOW if phi < 0.5 * math.pi else _HIGH_WINDOW
        (x,) = solve_cubic(-s, lo, hi)
        t = math.asin(x)
    else:  # x = cos t
        lo, hi = _LOW_WINDOW if phi > math.pi else _HIGH_WINDOW
        (x,) = solve_cubic(c, lo, hi)
        t = math.acos(x)
    if not on_trace(t, phi):
        raise NoTraceRoot(f"the trace root at phi={phi} misses the ray by more than {TRACE_TOL}")
    r = 1.0 / math.sin(t)
    return Point(r * c, r * s), t
