"""Measures the tests take of results: the package computes these in line, on floats."""

import math


def angle_gap(a: float, b: float) -> float:
    """Separation of two directions in [0, pi], ignoring 2*pi wraps: the certificate's angle residual."""
    return abs(math.remainder(a - b, math.tau))


def direction(p) -> float:
    """Polar angle of a point other than the origin, in [-pi, pi]."""
    return math.atan2(p.y, p.x)


def distance(p, q) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def bisector(a1: float, a2: float) -> float:
    """Direction halving the counterclockwise sweep from a1 to a2, as the curve construction takes it; not wrapped."""
    return a1 + 0.5 * ((a2 - a1) % math.tau)


def circle_line_xs(cx: float, cy: float, radius: float, y0: float) -> list[float]:
    """x-coordinates where the circle about (cx, cy) meets the line y = y0: 0, 1 (tangency) or 2, ascending.

    A general reference for the construction's one circle step.
    """
    disc = (cy - (y0 - radius)) * ((y0 + radius) - cy)
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [cx]
    h = math.sqrt(disc)
    return [cx - h, cx + h]
