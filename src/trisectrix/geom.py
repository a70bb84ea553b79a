"""Minimal plane-geometry kernel for the fixed construction frame.

Points and rays (origin O, +x along the base edge), the angle
utilities, the one circle step the construction needs (a circle meeting
a horizontal line), the real-cubic solver that the curve module builds
on, and the bracketed root-finder the placement solve uses.  All lengths
are dimensionless multiples of the straightedge width; all angles are
radians.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AllCoefficientsZero, BadRange, BracketFailure, OriginHasNoAngle

# |r^2 - d^2| below this fraction of r^2 counts as circle-line tangency.
TANGENCY_RTOL = 1e-12

# Largest grid any sampler or sweep builds; a bigger request is refused
# before anything is allocated.
MAX_GRID_POINTS = 10**6


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(a, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def ccw_sweep(from_angle: float, to_angle: float) -> float:
    """Counterclockwise sweep from one direction to another, in [0, 2*pi)."""
    return (to_angle - from_angle) % math.tau


def angle_distance(a: float, b: float) -> float:
    """Absolute separation of two directions, ignoring 2*pi wraps."""
    return abs(normalize_angle(a - b))


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


ORIGIN = Point(0.0, 0.0)


def dot(a: Point, b: Point) -> float:
    return a.x * b.x + a.y * b.y


def uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced values from lo to hi; the last one is exactly hi."""
    if n > MAX_GRID_POINTS:
        raise BadRange(f"grid of {n} points exceeds the limit of {MAX_GRID_POINTS}")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


@dataclass(frozen=True)
class Ray:
    """Half-line from ``origin`` in direction ``angle`` (wrapped to (-pi, pi])."""

    origin: Point
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", normalize_angle(self.angle))

    def point_at(self, distance: float) -> Point:
        return Point(
            self.origin.x + distance * math.cos(self.angle),
            self.origin.y + distance * math.sin(self.angle),
        )


def intersect_circle_line(center: Point, radius: float, y0: float) -> list[Point]:
    """Points where the circle about ``center`` meets the horizontal line y = y0.

    0, 1 (tangency) or 2 points, in ascending x.  A discriminant within
    TANGENCY_RTOL * radius^2 of zero collapses to the single tangency
    point, the foot of the perpendicular from the center.
    """
    d = center.y - y0
    disc = radius * radius - d * d
    tol = TANGENCY_RTOL * radius * radius
    if disc < -tol:
        return []
    # center.y - d, not y0: the two differ by an ulp for some centers, and
    # the construction's corner C takes its height from here
    foot_x, foot_y = center.x, center.y - d
    if disc <= tol:
        return [Point(foot_x, foot_y)]
    h = math.sqrt(disc)
    return [Point(foot_x - h, foot_y), Point(foot_x + h, foot_y)]


def polar_angle(p: Point) -> float:
    """Direction of p from the origin, in (-pi, pi]."""
    if p.x == 0.0 and p.y == 0.0:
        raise OriginHasNoAngle("the origin has no polar angle")
    a = math.atan2(p.y, p.x)
    if a <= -math.pi:
        a += math.tau
    return a


def bisect_angle(a1: float, a2: float) -> float:
    """Direction halving the counterclockwise sweep from a1 to a2, not wrapped.

    The sweep is taken in [0, 2*pi), so bisect(90deg, 270deg) points at
    180deg while bisect(270deg, 90deg) points at 0deg (360deg).
    """
    return a1 + 0.5 * ccw_sweep(a1, a2)


# --- bracketed root finding -----------------------------------------------

# Steps find_root takes before it gives up; a simple root takes a handful.
_FIND_ROOT_MAX_ITERATIONS = 100


def find_root(f, lo: float, hi: float, tol: float):
    """Root of f on [lo, hi] by Illinois regula falsi (Dowell & Jarratt 1971).

    The values f(lo) and f(hi) must not share a sign.  Each step is the
    secant step taken from the bracket end with the smaller |f|, so it
    moves a short, well-conditioned distance; an end kept by two steps in
    a row has its secant weight halved (the Illinois rule), so the
    bracket cannot stall on one side.

    Returns ``(x, f(x), iterations)`` for the first point with
    |f(x)| <= tol, or for the better end of the bracket once no step can
    land strictly inside it.
    """
    f_lo, f_hi = f(lo), f(hi)
    if abs(f_lo) <= tol:
        return lo, f_lo, 0
    if abs(f_hi) <= tol:
        return hi, f_hi, 0
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketFailure(f"no sign change over [{lo}, {hi}]: f = {f_lo:.3e}, {f_hi:.3e}")
    w_lo, w_hi = f_lo, f_hi  # secant weights
    kept = ""  # the end the last step kept
    for iteration in range(1, _FIND_ROOT_MAX_ITERATIONS + 1):
        if abs(w_lo) <= abs(w_hi):
            x = lo - w_lo * (hi - lo) / (w_hi - w_lo)
        else:
            x = hi - w_hi * (hi - lo) / (w_hi - w_lo)
        if not lo < x < hi:
            break
        f_x = f(x)
        if abs(f_x) <= tol:
            return x, f_x, iteration
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo, w_lo = x, f_x, f_x
            if kept == "hi":
                w_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi, w_hi = x, f_x, f_x
            if kept == "lo":
                w_lo *= 0.5
            kept = "lo"
    else:
        raise BracketFailure(f"no root within {tol} after {iteration} steps, bracket [{lo}, {hi}]")
    if abs(f_lo) <= abs(f_hi):
        return lo, f_lo, iteration - 1
    return hi, f_hi, iteration - 1


# --- real-root polynomial solving -----------------------------------------

# Discriminants within this fraction of their magnitude scale are treated
# as zero (repeated roots); float dust from coefficient rounding sits near
# machine epsilon, well under this.
_DISC_RTOL = 1e-13
_QUAD_DISC_RTOL = 1e-12


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(c3: float, c2: float, c1: float, c0: float, x: float) -> float:
    """Up to two Newton steps on the cubic, each kept only if finite and not raising |f|.

    Two, because one falls short when the closed form lands far off (ill-scaled
    leading coefficients); f is carried forward, so a step evaluates the cubic once.
    """
    fx = ((c3 * x + c2) * x + c1) * x + c0
    for _ in range(2):
        d = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if d == 0.0 or not math.isfinite(step := fx / d):
            break
        x_next = x - step
        f_next = ((c3 * x_next + c2) * x_next + c1) * x_next + c0
        if abs(f_next) > abs(fx):
            break
        x, fx = x_next, f_next
    return x


def _rel_residual(c3: float, c2: float, c1: float, c0: float, x: float) -> float:
    scale = abs(c3 * x ** 3) + abs(c2 * x * x) + abs(c1 * x) + abs(c0)
    return abs(((c3 * x + c2) * x + c1) * x + c0) / scale if scale > 0.0 else 0.0


def solve_cubic(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c3*r^3 + c2*r^2 + c1*r + c0, ascending, with multiplicity.

    Closed form throughout: the trigonometric method when all three roots
    are real, Cardano's formula otherwise, then up to two guarded Newton
    steps (_polish) on the original coefficients for each simple root.
    Repeated roots are reported repeated, e.g. -(r-2)^2*(r+1) -> [-1.0,
    2.0, 2.0].  A zero leading coefficient degrades to quadratic/linear.
    """
    if c3 == 0.0:
        if c2 == 0.0 and c1 == 0.0 and c0 == 0.0:
            raise AllCoefficientsZero("cannot solve 0 = 0")
        return _solve_quadratic(c2, c1, c0)

    p = c2 / c3
    q = c1 / c3
    r = c0 / c3
    shift = p / 3.0
    # depressed form z^3 + P*z + Q via x = z - p/3
    P = q - p * p / 3.0
    Q = 2.0 * p ** 3 / 27.0 - p * q / 3.0 + r
    disc = -4.0 * P ** 3 - 27.0 * Q * Q
    disc_scale = 4.0 * abs(P) ** 3 + 27.0 * Q * Q

    if disc_scale == 0.0 or abs(disc) <= _DISC_RTOL * disc_scale:
        if abs(P) <= 1e-12 * max(1.0, p * p) and abs(Q) <= 1e-12 * max(1.0, abs(p) ** 3):
            candidates = [-shift] * 3
        else:
            # (z - alpha)^2 (z + 2*alpha): double root alpha, simple -2*alpha
            alpha = -3.0 * Q / (2.0 * P)
            candidates = sorted([alpha - shift, alpha - shift, _polish(c3, c2, c1, c0, -2.0 * alpha - shift)])
        if all(_rel_residual(c3, c2, c1, c0, x) <= 1e-6 for x in candidates):
            return candidates
        # A near-zero discriminant can also be an artifact of a depression
        # shift dwarfing the roots (|p| >> |x|); the repeated-root structure
        # is then bogus and the discriminant's sign is pure noise.  The
        # dominant root is still computed stably, so recover the other two
        # by backward deflation from the constant term.
        return _deflate_from_dominant(c3, c2, c1, c0, P, Q, disc, shift)

    if disc > 0.0:
        m = 2.0 * math.sqrt(-P / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * Q / (P * m))))
        closed = (m * math.cos((theta - math.tau * k) / 3.0) - shift for k in range(3))
        return sorted([_polish(c3, c2, c1, c0, x) for x in closed])

    # one real root: take the larger-magnitude cube root and recover the
    # other term from u*v = -P/3 to avoid cancellation
    sq = math.sqrt(max(0.0, -disc) / 108.0)
    w = _cbrt(-Q / 2.0 + sq if Q <= 0.0 else -Q / 2.0 - sq)
    return [_polish(c3, c2, c1, c0, w - P / (3.0 * w) - shift)]


def _deflate_from_dominant(c3, c2, c1, c0, P, Q, disc, shift) -> list[float]:
    """Roots via the largest-|z| depressed root plus backward deflation.

    Backward synthetic division (constant term first) keeps the deflated
    quadratic accurate when the dominant root is orders of magnitude
    larger than the remaining pair.
    """
    if P < 0.0:
        m = 2.0 * math.sqrt(-P / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * Q / (P * m))))
        z_big = max(
            (m * math.cos((theta - math.tau * k) / 3.0) for k in range(3)), key=abs
        )
    else:
        sq = math.sqrt(max(0.0, -disc) / 108.0)
        w = _cbrt(-Q / 2.0 + sq if Q <= 0.0 else -Q / 2.0 - sq)
        z_big = w - P / (3.0 * w)
    x_big = _polish(c3, c2, c1, c0, z_big - shift)
    if x_big == 0.0:
        return [-shift] * 3
    # c3 x^3 + c2 x^2 + c1 x + c0 = (x - x_big)(c3 x^2 + b1 x + b0)
    b0 = -c0 / x_big
    b1 = (b0 - c1) / x_big
    rest = [_polish(c3, c2, c1, c0, x) for x in _solve_quadratic(c3, b1, b0)]
    return sorted([x_big] + rest)


def _solve_quadratic(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        if b == 0.0:
            return []  # nonzero constant: no roots
        return [-c / b]
    disc = b * b - 4.0 * a * c
    disc_scale = b * b + abs(4.0 * a * c)
    if abs(disc) <= _QUAD_DISC_RTOL * disc_scale:
        return [-b / (2.0 * a)] * 2
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    if b == 0.0:
        hi = sq / (2.0 * a)
        return sorted([-hi, hi])
    qq = -(b + math.copysign(sq, b)) / 2.0
    return sorted([qq / a, c / qq])
