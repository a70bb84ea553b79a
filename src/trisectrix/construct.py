"""End-to-end trisection pipelines, verification, and sweep statistics.

Two independent routes produce the trisecting rays for an angle phi:

curve method -- intersect the ray at phi with the traced curve to get D
(one bracketed solve of the triple-angle cubic), draw the circle of
radius 2 about D, take its right-most intersection C with the guide line
y = 1, and bisect the angle COD.  OC is the first trisecting ray; the
bisector is the second.

Scudder method -- solve the physical placement of the T-square (inside
edge through the vertex, 2-unit top mark on the far side of the angle,
corner on the guide line) and read the rays toward the corner C and
along the inside edge OE.

Both constructions are verified by an independent certificate of
congruence residuals rather than by re-running either pipeline.  Past
the traced curve and the placement, each route and the certificate
compute in floats, with the angle arithmetic in line, and build only the
records they return.
"""

from __future__ import annotations

import math

from . import curve, linkage
from .certificate import Certificate
from .errors import BadRange, OutOfDomain
from .geom import MAX_GRID_POINTS, Point, Ray, _Record, _slot_setters, intersect_circle_line

METHOD_CURVE = "curve"
METHOD_SCUDDER = "scudder"
METHODS = (METHOD_CURVE, METHOD_SCUDDER)

GUIDE_Y = 1.0
TOP_LENGTH = 2.0


class TrisectionResult(_Record):
    """The two claimed trisecting rays plus the witness points they came from.

    ray1 claims angle phi/3, ray2 claims 2*phi/3; both originate at O.
    """

    __slots__ = ("phi", "method", "ray1", "ray2", "C", "D")

    def __init__(self, phi: float, method: str, ray1: Ray, ray2: Ray, C: Point, D: Point) -> None:
        _result_phi(self, phi)
        _result_method(self, method)
        _result_ray1(self, ray1)
        _result_ray2(self, ray2)
        _result_C(self, C)
        _result_D(self, D)

    def midpoint_e(self) -> Point:
        """Midpoint of CD; lies on ray2 because OCD is isosceles."""
        return Point(0.5 * (self.C.x + self.D.x), 0.5 * (self.C.y + self.D.y))


_result_phi, _result_method, _result_ray1, _result_ray2, _result_C, _result_D = _slot_setters(TrisectionResult)


def complete_curve_construction(phi: float, hit: tuple[Point, float]) -> TrisectionResult:
    """Finish the curve-method construction from a ray-curve hit (D, t).

    The radius-2 circle about D meets the guide line at C.  It is solved
    in the frame of the closure line y = -1, where D sits at height
    1 + D.y = 4 cos^2 t and the guide line at 2: near 270 degrees D.y
    rounds to -1, but the lift keeps the half-chord (tiny there) exact.
    Split out so the spurious (mirror-branch) hit can be forced through
    the identical steps and shown to fail verification.
    """
    d, t = hit
    lift = 4.0 * math.cos(t) ** 2
    cx = intersect_circle_line(d.x, lift)
    # C lies above the base line, so its angle is in (0, pi) and needs no wrap
    a1 = math.atan2(GUIDE_Y, cx)
    ad = math.atan2(d.y, d.x)
    if ad <= -math.pi:  # just past pi, D.y is so small and negative that atan2 rounds to -pi
        ad += math.tau
    # the bisector halves the counterclockwise sweep from OC to OD
    ray2 = Ray(a1 + 0.5 * ((ad - a1) % math.tau))
    return TrisectionResult(phi, METHOD_CURVE, Ray(a1), ray2, Point(cx, GUIDE_Y), d)


def trisect_via_curve(phi: float) -> TrisectionResult:
    """Trisect phi in [PHI_MIN, 3*pi/2] using the traced curve."""
    return complete_curve_construction(phi, curve.intersect_ray(phi))


def trisect_via_scudder(phi: float) -> TrisectionResult:
    """Trisect phi in [PHI_MIN, 3*pi/2] by solving the physical square placement."""
    st = linkage.scudder_place(phi).state
    C, E = st.C, st.E
    # C and E lie above the base line, so their angles are in (0, pi) and need no wrap
    ray2 = Ray(math.atan2(E.y, E.x))  # the inside-edge ray
    return TrisectionResult(phi, METHOD_SCUDDER, Ray(math.atan2(C.y, C.x)), ray2, C, st.D)


def verify_trisection(res: TrisectionResult, tol: float) -> Certificate:
    """Certificate that the claimed rays actually trisect, from residuals alone.

    Checks the two ray angles against phi/3 and 2*phi/3, the equality of
    the three swept sectors, and the witness geometry (D on the target
    ray, C on the guide line, |CD| = 2).  The tolerance must be finite and
    positive; Certificate raises BadRange otherwise.
    """
    phi, C, D = res.phi, res.C, res.D
    a1, a2 = res.ray1.angle, res.ray2.angle
    tau = math.tau
    remainder = math.remainder
    # D's polar angle, in (-pi, pi]; a hand-built result can put D at
    # the origin, which has none
    if D.x == 0.0 and D.y == 0.0:
        raise OutOfDomain("the origin has no polar angle")
    ad = math.atan2(D.y, D.x)
    if ad <= -math.pi:
        ad += tau
    # each sector is a counterclockwise sweep in [0, 2*pi); the first
    # starts at the base ray, angle 0.  Each angle residual is the
    # separation of two directions in [0, pi], ignoring 2*pi wraps.
    sector_1 = a1 % tau
    sector_2 = (a2 - a1) % tau
    sector_3 = (phi - a2) % tau
    residuals = {
        "ray1_at_third": abs(remainder(a1 - phi / 3.0, tau)),
        "ray2_at_two_thirds": abs(remainder(a2 - 2.0 * phi / 3.0, tau)),
        "equal_sectors": max(
            abs(sector_1 - sector_2), abs(sector_2 - sector_3), abs(sector_1 - sector_3)
        ),
        "d_on_target_ray": abs(remainder(ad - phi, tau)),
        "c_on_guide": abs(C.y - 1.0),
        "cd_length": abs(math.hypot(C.x - D.x, C.y - D.y) - TOP_LENGTH),
    }
    return Certificate.from_residuals(residuals, tol)


_METHOD_FNS = {METHOD_CURVE: trisect_via_curve, METHOD_SCUDDER: trisect_via_scudder}


def sweep_verify(
    phi_min_deg: float,
    phi_max_deg: float,
    step_deg: float,
    method: str,
    tol: float = 1e-9,
) -> dict:
    """Run one method plus verification over a degree grid and aggregate errors.

    The report is a dict, keyed in this order: the arguments phi_min_deg,
    phi_max_deg, step_deg and method, then count, max_error_rad,
    mean_error_rad, argmax_phi_deg and failures.  ``count`` is the number
    of distinct grid angles, each evaluated once.  The per-angle error is
    the larger of the two ray-angle residuals (in radians); ``failures``
    is the tuple of grid angles whose certificate failed at ``tol``.
    """
    if method not in _METHOD_FNS:
        raise BadRange(f"unknown method {method!r}; expected one of {METHODS}")
    if not (0.0 < phi_min_deg <= phi_max_deg < 270.0 and 0.0 < step_deg < math.inf):
        raise BadRange(
            f"need 0 < from <= to < 270 and finite step > 0, got [{phi_min_deg}, {phi_max_deg}] step {step_deg}"
        )
    if (phi_max_deg - phi_min_deg) / step_deg >= MAX_GRID_POINTS:
        raise BadRange(f"a step of {step_deg} over [{phi_min_deg}, {phi_max_deg}] exceeds {MAX_GRID_POINTS} angles")
    fn = _METHOD_FNS[method]

    # a count, not a running sum: a step below the float spacing at
    # phi_min would never move the angle past phi_max.  The count admits
    # a last angle that rounding puts just past phi_max; it is clamped.
    # Such a step can also round two grid angles onto one float; the
    # grid never decreases, so they are neighbours, and one is kept.
    n = math.floor((phi_max_deg - phi_min_deg) / step_deg + 1e-9) + 1
    grid = list(dict.fromkeys(min(phi_min_deg + k * step_deg, phi_max_deg) for k in range(n)))

    max_err = 0.0
    err_sum = 0.0
    argmax = grid[0]
    failures: list[float] = []
    for phi_deg in grid:
        res = fn(math.radians(phi_deg))
        cert = verify_trisection(res, tol)
        residuals = cert.residuals
        err = max(residuals["ray1_at_third"], residuals["ray2_at_two_thirds"])
        err_sum += err
        if err > max_err:
            max_err, argmax = err, phi_deg
        if not cert.passed:
            failures.append(phi_deg)

    return {
        "phi_min_deg": phi_min_deg,
        "phi_max_deg": phi_max_deg,
        "step_deg": step_deg,
        "method": method,
        "count": len(grid),
        "max_error_rad": max_err,
        "mean_error_rad": err_sum / len(grid),
        "argmax_phi_deg": argmax,
        "failures": tuple(failures),
    }
