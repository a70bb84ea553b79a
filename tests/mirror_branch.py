"""The mirror-branch hit of a ray, built in closed form for the tests.

The algebraic curve is symmetric in x, but the compass draws only the
branch whose point D(t) sits at polar angle 3t.  For phi < pi the ray
cubic's second positive root x = 1/r = w = sin(pi/3 - phi/3) meets the
mirror branch: the point at distance 1/w on the ray is the mirror image
of trace_point(asin w).  The package never builds this hit; the tests
force it through the construction to show that verification rejects it.
"""

import math

from trisectrix.geom import Point


def mirror_hit(phi: float) -> tuple[Point, float]:
    """The ray at angle phi in (0, pi) meeting the mirror branch, as intersect_ray's (point, t) pair."""
    w = math.sin(math.pi / 3.0 - phi / 3.0)
    return Point(math.cos(phi) / w, math.sin(phi) / w), math.asin(w)
