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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadRange, NoTraceRoot, OutOfDomain, OutOfRange
from .geom import Point, angle_distance, polar_angle, solve_cubic, uniform_grid

# Upper end of the trace parameter; the curve closes at (0, -1).
T_MAX = math.pi / 2

# Query angles the trace covers (in radians): (0, 3*pi/2].
PHI_MAX = 1.5 * math.pi

# Below this query angle the on-trace point lies csc(phi/3) > 3e6 units
# out, where 3 - y = 4/r^2 falls under double-precision resolution around
# y = 3 and membership can no longer be decided; rejected as out of range.
PHI_MIN = 1e-6

# Below this |sin(phi)| the ray-curve cubic is solved structurally instead
# of by the general closed form: the leading coefficient vanishes at
# phi = pi, where the depression shift (~3/sin) dwarfs the two moderate
# roots and destroys their closed-form accuracy.  The moderate pair comes
# from the quadratic 3 r^2 - 4, the extreme root from its asymptotic
# expansion 3/sin - 4 sin/9, and a Newton step against the full cubic
# restores each to machine accuracy.
_DEGENERATE_SIN = 1e-5

# Roots closer than this (relative) are one geometric intersection.
_ROOT_CLUSTER_RTOL = 1e-9

# Default residual/angle tolerance for trace-membership checks.
DEFAULT_TRACE_TOL = 1e-9

# Default lower sampling bound; x ~ 1/t blows up as t -> 0.
DEFAULT_SAMPLE_T_MIN = 0.005


def implicit_value(p: Point) -> float:
    """F(x, y) = x^2 (3 - y) - (y - 2)^2 (y + 1); zero exactly on the curve."""
    return p.x * p.x * (3.0 - p.y) - (p.y - 2.0) ** 2 * (p.y + 1.0)


def implicit_gradient(p: Point) -> tuple[float, float]:
    """(dF/dx, dF/dy); both components vanish at the node (0, 2)."""
    dx = 2.0 * p.x * (3.0 - p.y)
    dy = -p.x * p.x - 2.0 * (p.y - 2.0) * (p.y + 1.0) - (p.y - 2.0) ** 2
    return (dx, dy)


def half_chord(y: float) -> float:
    """Horizontal offset a = sqrt((3 - y)(y + 1)) from a curve point to the guide line.

    This is half the chord the 2-unit top cuts at height y, so it satisfies
    a^2 + (1 - y)^2 = 4.  Defined for y in [-1, 3].
    """
    if not -1.0 <= y <= 3.0:
        raise OutOfDomain(f"half chord needs y in [-1, 3], got {y}")
    return math.sqrt(max(0.0, (3.0 - y) * (y + 1.0)))


def trace_point(t: float) -> Point:
    """Point of the traced branch at parameter t in (0, pi/2].

    D(t) = (cos 3t, sin 3t) / sin t: polar angle 3t, radius csc t.  The
    y-coordinate simplifies to 3 - 4 sin^2(t).
    """
    if not 0.0 < t <= T_MAX:
        raise OutOfDomain(f"trace parameter must lie in (0, pi/2], got {t}")
    st = math.sin(t)
    return Point(math.cos(3.0 * t) / st, math.sin(3.0 * t) / st)


def on_trace(p: Point, tol: float = DEFAULT_TRACE_TOL) -> bool:
    """True iff p lies on the traced (right-hand) branch, within tol.

    Membership needs both |F(p)| <= tol * (1 + |x|^3) (the cubic growth
    scale keeps far points near the asymptote checkable) and the polar
    angle of p to equal 3t mod 2*pi, where t = asin(sqrt((3 - y) / 4))
    recovers the parameter from the height.  Points with y >= 3 are never
    on the trace; y below -1 (beyond tolerance slack) is outside the
    curve's real locus entirely.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    y = p.y
    if y >= 3.0:
        return False
    if y < -1.0 - 4.0 * tol:
        raise OutOfDomain(f"no curve locus below y = -1, got y = {y}")
    if p.x == 0.0 and p.y == 0.0:
        return False
    scale = 1.0 + abs(p.x) ** 3
    if abs(implicit_value(p)) > tol * scale:
        return False
    q = (3.0 - y) / 4.0
    t = math.asin(min(1.0, math.sqrt(q)))
    # recovering t from the height is ill-conditioned where asin flattens
    # (q near 1: the closure point y = -1; q near 0: the asymptote), so the
    # angle comparison gets the roundoff-propagation allowance on top of tol
    eps_q = 2.2e-16
    slack = 3.0 * eps_q / (2.0 * math.sqrt(max(q, eps_q) * max(1.0 - q, eps_q)))
    return angle_distance(polar_angle(p), 3.0 * t) <= tol + slack


def sample_trace(t_min: float, t_max: float, n: int) -> list[tuple[float, Point]]:
    """n uniformly spaced (t, point) samples over [t_min, t_max], both ends included."""
    if not 0.0 < t_min < t_max <= T_MAX:
        raise BadRange(f"need 0 < t_min < t_max <= pi/2, got [{t_min}, {t_max}]")
    if n < 2:
        raise BadRange(f"need at least 2 samples, got {n}")
    return [(t, trace_point(t)) for t in uniform_grid(t_min, t_max, n)]


def _newton_on_ray_cubic(s: float, r: float) -> float:
    """One Newton step of -s r^3 + 3 r^2 - 4 at r; exact for s = 0."""
    d = (-3.0 * s * r + 6.0) * r
    if d != 0.0:
        step = ((-s * r + 3.0) * r * r - 4.0) / d
        if math.isfinite(step):
            return r - step
    return r


@dataclass(frozen=True)
class CurveIntersection:
    """One root of the ray-curve cubic: where the ray at the query angle meets the curve.

    ``on_trace`` distinguishes the drawn branch from its algebraic mirror
    image; ``multiplicity`` counts coincident roots (tangential crossings).
    """

    point: Point
    r: float
    on_trace: bool
    multiplicity: int


def intersect_ray(phi: float, tol: float = DEFAULT_TRACE_TOL) -> list[CurveIntersection]:
    """All curve points on the ray from the origin at angle phi in [PHI_MIN, 3*pi/2].

    Substituting (r cos phi, r sin phi) into the implicit form collapses to

        -sin(phi) * r^3 + 3 r^2 - 4 = 0.

    Real roots are kept when r > 0 and y = r sin(phi) lies in the curve's
    band [-1, 3) (a hair of slack below -1 absorbs float dust at the
    phi = 3*pi/2 endpoint), then classified against the traced branch.
    Exactly one surviving intersection is on-trace for every valid phi.
    """
    if not PHI_MIN <= phi <= PHI_MAX:
        raise OutOfRange(
            f"query angle must lie in [{PHI_MIN}, 3*pi/2] radians, got {phi}"
        )
    s = math.sin(phi)
    c = math.cos(phi)
    if abs(s) <= _DEGENERATE_SIN:
        roots = solve_cubic(0.0, 3.0, 0.0, -4.0)
        if s > 0.0:
            roots.append(3.0 / s - 4.0 * s / 9.0)  # the root past csc(phi/3)
        roots = sorted(_newton_on_ray_cubic(s, root) for root in roots)
    else:
        roots = solve_cubic(-s, 3.0, 0.0, -4.0)

    # cluster coincident roots into (value, multiplicity)
    clustered: list[tuple[float, int]] = []
    for root in roots:
        if clustered and abs(root - clustered[-1][0]) <= _ROOT_CLUSTER_RTOL * max(1.0, abs(root)):
            clustered[-1] = (clustered[-1][0], clustered[-1][1] + 1)
        else:
            clustered.append((root, 1))

    hits: list[CurveIntersection] = []
    for root, mult in clustered:
        y = root * s
        if root <= 0.0 or y >= 3.0 or y < -1.0 - _ROOT_CLUSTER_RTOL:
            continue
        point = Point(root * c, y)
        hits.append(CurveIntersection(point, root, on_trace(point, tol), mult))

    traced = sum(1 for h in hits if h.on_trace)
    if traced != 1:
        raise NoTraceRoot(f"expected exactly one on-trace root at phi={phi}, found {traced}")
    return hits


def pick_trisection_point(phi: float) -> Point:
    """The unique on-trace intersection of the ray at angle phi.

    Its distance from the origin is csc(phi / 3), though that closed form
    is only used to cross-check, never to construct.
    """
    return next(h.point for h in intersect_ray(phi) if h.on_trace)
