"""Minimal plane-geometry kernel for the fixed construction frame.

Points and rays from the origin O (+x along the base edge), the polar
angle of a point, the one circle step the construction needs (a circle
meeting a horizontal line), and the cubic solve the curve uses.  It
finds the root on an interval where the caller keeps the cubic
monotone, by Newton steps kept inside the sign-change bracket, with the
cubic and its slope evaluated in line, and splits the bracket where
Newton is slow (_split, which the placement search uses too).  It stops
once the bracket is two adjacent floats and returns the one with the
smaller |f|.  All lengths are dimensionless multiples of the
straightedge width; all angles are radians.  The construction itself
does its other angle arithmetic in line, on floats.

Everything here is a pure function over immutable values.  The package's
values (points, rays and the records built from them) are frozen
``__slots__`` classes on one small private base, ``_Record``: equal and
hashed field-wise, printed as ``Name(field=value, ...)``, picklable, and
refusing assignment.
"""

from __future__ import annotations

import math

from .errors import BadRange, OriginHasNoAngle, OutOfDomain

# Largest grid any sampler or sweep builds; a bigger request is refused
# before anything is allocated.
MAX_GRID_POINTS = 10**6


class _Record:
    """Frozen value record whose fields are its subclass's ``__slots__``, in order.

    A subclass lists its fields in ``__slots__``, binds their slot setters
    once with _slot_setters right after the class, and stores each field
    in ``__init__`` through its setter; assignment and deletion raise
    AttributeError afterwards.  Pickling and copying rebuild the record
    through its constructor from the field values.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _slot_setters(cls: type) -> list:
    """Each slot field's own setter, in ``__slots__`` order: it stores past the frozen __setattr__."""
    return [vars(cls)[name].__set__ for name in cls.__slots__]


class Point(_Record):
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        isfinite = math.isfinite
        if not (isfinite(x) and isfinite(y)):
            raise OutOfDomain(f"non-finite point ({x}, {y})")
        _point_x(self, x)
        _point_y(self, y)


_point_x, _point_y = _slot_setters(Point)

ORIGIN = Point(0.0, 0.0)


def uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced values from lo to hi; the last one is exactly hi."""
    if n < 2:
        raise BadRange(f"need at least 2 samples, got {n}")
    if n > MAX_GRID_POINTS:
        raise BadRange(f"grid of {n} points exceeds the limit of {MAX_GRID_POINTS}")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


class Ray(_Record):
    """Half-line from the origin in direction ``angle`` (wrapped to (-pi, pi])."""

    __slots__ = ("angle",)

    def __init__(self, angle: float) -> None:
        if not math.isfinite(angle):
            raise OutOfDomain(f"non-finite ray angle {angle}")
        a = math.remainder(angle, math.tau)  # in [-pi, pi]
        _ray_angle(self, a + math.tau if a <= -math.pi else a)

    def point_at(self, distance: float) -> Point:
        return Point(distance * math.cos(self.angle), distance * math.sin(self.angle))


(_ray_angle,) = _slot_setters(Ray)


def intersect_circle_line(cx: float, cy: float, radius: float, y0: float) -> list[float]:
    """x-coordinates where the circle about (cx, cy) meets the horizontal line y = y0.

    0, 1 (tangency) or 2 values, ascending.  The squared
    half-chord r^2 - d^2 is formed as the product (d + r)(r - d) of the
    center's offsets from the two lines y0 -+ r, so it keeps its relative
    accuracy near tangency and no tolerance decides it.
    """
    disc = (cy - (y0 - radius)) * ((y0 + radius) - cy)
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [cx]
    h = math.sqrt(disc)
    return [cx - h, cx + h]


def polar_angle(p: Point) -> float:
    """Direction of p from the origin, in (-pi, pi]."""
    if p.x == 0.0 and p.y == 0.0:
        raise OriginHasNoAngle("the origin has no polar angle")
    a = math.atan2(p.y, p.x)
    if a <= -math.pi:
        a += math.tau
    return a


# --- real-root polynomial solving -----------------------------------------

# Points a solve may take Newton steps for; quadratic convergence needs at
# most 7 in the curve's windows.  After them every point splits the
# bracket, which closes any finite bracket within 66 more points (1 at 0,
# 12 halving the exponent range, 53 halving one binade), so a solve ends
# within 98 points.
_NEWTON_POINTS = 32

# A Newton step at most this long relative to x is rounding noise about a
# converged root, not a sign that Newton is slow.
_CONVERGED = 2.0 * math.ulp(1.0)


# perfbench/tracing.py binds this name, counts its calls and takes the
# len of its result, so the name and the one-item list stay until the
# benchmark stops tracing internals.
def solve_cubic(c3: float, c2: float, c1: float, c0: float, lo: float, hi: float) -> list[float]:
    """The root of c3*x^3 + c2*x^2 + c1*x + c0 in [lo, hi], where the caller keeps the cubic monotone.

    Returns [root], or [] when the end values share a sign.  Bracketed
    Newton (the rtsafe scheme of Numerical Recipes), with the cubic and
    its derivative evaluated by Horner's rule in line.  The first point
    is the bracket's secant point; each evaluated point replaces the
    bracket end of its sign, and the next point is the Newton step from
    it.  A point that rounds onto a bracket end (a converged step rounds
    back to x, which is one) moves to that end's neighbour toward the
    other end.  The bracket is split instead (_split) after a point
    outside it, after a zero slope, after a step no shorter than half
    the last one (Newton creeping toward a root far below the bracket's
    scale, or lost in rounding noise; a step within _CONVERGED of x is
    noise about a converged root and is kept), and after every point
    past the first _NEWTON_POINTS.  The search ends at a point where the
    cubic is exactly 0, or once no point lies strictly inside the
    bracket: it is then two adjacent floats, and the one with the
    smaller |f| (the lower on a tie) comes back.
    """
    f_lo = ((c3 * lo + c2) * lo + c1) * lo + c0
    f_hi = ((c3 * hi + c2) * hi + c1) * hi + c0
    if not (f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo):
        return []
    if f_lo == 0.0:
        return [lo]
    if f_hi == 0.0:
        return [hi]
    d2, d1 = 3.0 * c3, 2.0 * c2  # the derivative is (d2 * x + d1) * x + c1
    neg_lo = f_lo < 0.0
    # the weight ratio first: f * (hi - lo) underflows when both are tiny
    if abs(f_lo) <= abs(f_hi):
        x = lo - (f_lo / (f_hi - f_lo)) * (hi - lo)
    else:
        x = hi - (f_hi / (f_hi - f_lo)) * (hi - lo)
    newton = _NEWTON_POINTS
    last = math.inf  # length of the last Newton step
    while True:  # at most 98 points; see _NEWTON_POINTS
        if not lo < x < hi:
            if x == lo:
                x = math.nextafter(lo, hi)
            elif x == hi:
                x = math.nextafter(hi, lo)
            else:
                x = _split(lo, hi)
            if not lo < x < hi:  # lo and hi are adjacent floats
                return [lo if abs(f_lo) <= abs(f_hi) else hi]
        f_x = ((c3 * x + c2) * x + c1) * x + c0
        if f_x == 0.0:
            return [x]
        if (f_x < 0.0) == neg_lo:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        slope = (d2 * x + d1) * x + c1
        step = f_x / slope if slope else math.inf
        length = abs(step)
        newton -= 1
        if newton > 0 and (length < 0.5 * last or length <= _CONVERGED * abs(x)):
            x -= step
            last = length
        else:
            x = _split(lo, hi)
            last = math.inf


def _split(lo: float, hi: float) -> float:
    """A point splitting the bracket [lo, hi], strictly inside it unless the ends are adjacent floats.

    The midpoint when the ends lie within a factor 2 of each other; 0
    when they straddle it; otherwise their geometric mean, with an end
    at 0 counted as the smallest subnormal.  So a root far below the
    bracket's scale takes at most 12 splits to reach, not up to ~1,000
    halvings.
    """
    if lo < 0.0 < hi:
        return 0.0
    small, big = sorted((abs(lo), abs(hi)))
    if big <= 2.0 * small:
        return lo + 0.5 * (hi - lo)
    return math.copysign(math.sqrt(max(small, 5e-324)) * math.sqrt(big), hi + lo)
