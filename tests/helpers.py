"""Measures the tests take of results: the package computes these in line, on floats."""

import math


def angle_gap(a: float, b: float) -> float:
    """Separation of two directions in [0, pi], ignoring 2*pi wraps: the certificate's angle residual."""
    return abs(math.remainder(a - b, math.tau))


def distance(p, q) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def bisector(a1: float, a2: float) -> float:
    """Direction halving the counterclockwise sweep from a1 to a2, as the curve construction takes it; not wrapped."""
    return a1 + 0.5 * ((a2 - a1) % math.tau)
