"""Minimal plane-geometry kernel for the fixed construction frame.

Points and rays from the origin O (+x along the base edge), and the
curve method's two solves, each in the one form it is used in: the
right-most x where the radius-2 circle about D meets the guide line, and
the x with T3(x) = 4x^3 - 3x = k in one of the curve's two windows, by
Newton steps kept inside the sign-change bracket.  All lengths are
dimensionless multiples of the straightedge width; all angles are
radians.  The construction itself does its angle arithmetic in line, on
floats.

Everything here is a pure function over immutable values.  The package's
values (points, rays and the records built from them) are frozen
``__slots__`` classes on one small private base, ``_Record``: equal and
hashed field-wise, printed as ``Name(field=value, ...)``, picklable, and
refusing assignment.
"""

from __future__ import annotations

import math

from .errors import BadRange, OutOfDomain

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


def grid_step(lo: float, hi: float, n: int) -> float:
    """The step of the grid of n >= 2 evenly spaced values from lo to hi, after its checks of n.

    Value i is lo + i * step, and the last is exactly hi: a caller computes
    each value from its index and builds no list of them.
    """
    if n < 2:
        raise BadRange(f"need at least 2 samples, got {n}")
    if n > MAX_GRID_POINTS:
        raise BadRange(f"grid of {n} points exceeds the limit of {MAX_GRID_POINTS}")
    return (hi - lo) / (n - 1)


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


# --- the curve method's two solves ------------------------------------------

# perfbench/tracing.py wraps the two functions below by name, counts
# their calls and takes the len of solve_cubic's result, so both names
# and the one-item list stay until the benchmark stops tracing internals.
def intersect_circle_line(cx: float, lift: float) -> float:
    """x of the right-most point where the radius-2 circle about (cx, lift) meets the line y = 2.

    The caller keeps lift in [0, 4], so the squared half-chord, formed
    as the product lift * (4 - lift) of the center's offsets from the
    lines y = 0 and y = 4, is never negative, and it keeps its relative
    accuracy near tangency (lift = 0), where it is exactly 0.
    """
    return cx + math.sqrt(lift * (4.0 - lift))


def solve_cubic(k: float, lo: float, hi: float) -> list[float]:
    """[x] with T3(x) = 4x^3 - 3x = k, for x in one of the curve's windows [0, 0.26] or [0.7, 0.97].

    The caller passes |k| <= sqrt(1/2), and k < 0 on the low window.
    There T3 is monotone and convex (T3'' = 24x >= 0), with |T3'| >= 2.18,
    and T3 - k has strict opposite signs at the two ends: T3(0) = 0,
    T3(0.26) ~ -0.710 < -sqrt(1/2), T3(0.7) ~ -0.728 and T3(0.97) ~ 0.741.
    So the bracket's secant point lies on one side of the root, the
    Newton step from it on the other, and every later step stays on
    that side and converges quadratically: a solve evaluates at most 7
    points.  T3 - k and its slope 12x^2 - 3 are evaluated by Horner's
    rule in line.  Each evaluated point replaces the bracket end of its
    sign, and the next point is the Newton step from it.  A point that
    rounds onto an end (the secant point for the tiniest k, or a
    converged step back onto the end it just set) moves to that end's
    neighbour toward the other end.  The solve ends at a point where
    T3(x) - k is exactly 0, or once no point lies strictly inside the
    bracket: it is then two adjacent floats, and the one with the
    smaller |T3(x) - k| (the lower on a tie) comes back.
    """
    f_lo = (4.0 * lo * lo - 3.0) * lo - k
    f_hi = (4.0 * hi * hi - 3.0) * hi - k
    neg_lo = f_lo < 0.0
    # the weight ratio first: f * (hi - lo) underflows when both are tiny
    if abs(f_lo) <= abs(f_hi):
        x = lo - (f_lo / (f_hi - f_lo)) * (hi - lo)
    else:
        x = hi - (f_hi / (f_hi - f_lo)) * (hi - lo)
    while True:
        if not lo < x < hi:
            if x == lo:
                x = math.nextafter(lo, hi)
            else:
                x = math.nextafter(hi, lo)
            if not lo < x < hi:  # lo and hi are adjacent floats
                return [lo if abs(f_lo) <= abs(f_hi) else hi]
        f_x = (4.0 * x * x - 3.0) * x - k
        if f_x == 0.0:
            return [x]
        if (f_x < 0.0) == neg_lo:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        x -= f_x / (12.0 * x * x - 3.0)
