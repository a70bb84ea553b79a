"""Tests for the end-to-end trisection pipelines and their verification."""

import hashlib
import math
import random

import pytest

from trisectrix import construct
from trisectrix.construct import (
    GUIDE_Y,
    METHOD_CURVE,
    METHODS,
    TOP_LENGTH,
    TrisectionResult,
    complete_curve_construction,
    sweep_verify,
    trisect_via_curve,
    trisect_via_scudder,
    verify_trisection,
)
from trisectrix.curve import PHI_MIN, implicit_value, intersect_ray, on_trace
from trisectrix.errors import BadRange, OutOfDomain, OutOfRange, TrisectrixError
from trisectrix.geom import Point, Ray

from helpers import angle_gap, bisector, circle_line_xs, direction, distance
from mirror_branch import mirror_hit

SQRT3 = math.sqrt(3.0)

# The keys of a sweep report, in order.
SWEEP_KEYS = [
    "phi_min_deg", "phi_max_deg", "step_deg", "method", "count",
    "max_error_rad", "mean_error_rad", "argmax_phi_deg", "failures",
]


class TestCurveMethod:
    def test_right_angle(self):
        res = trisect_via_curve(math.pi / 2)
        assert abs(res.D.x) <= 1e-12 and res.D.y == pytest.approx(2.0, abs=1e-12)
        assert res.C.x == pytest.approx(SQRT3, abs=1e-12)
        assert res.C.y == pytest.approx(1.0, abs=1e-12)
        assert angle_gap(res.ray1.angle, math.pi / 6) <= 1e-12
        assert angle_gap(res.ray2.angle, math.pi / 3) <= 1e-12
        assert angle_gap(res.ray1.angle, res.phi / 3) <= 1e-12

    def test_straight_angle(self):
        res = trisect_via_curve(math.pi)
        assert res.D.x == pytest.approx(-1.1547005383792515, abs=1e-9)
        assert res.C.x == pytest.approx(0.5773502691896258, abs=1e-9)
        assert angle_gap(res.ray1.angle, math.pi / 3) <= 1e-9
        assert angle_gap(res.ray2.angle, 2 * math.pi / 3) <= 1e-9

    def test_tangency_at_full_range(self):
        res = trisect_via_curve(1.5 * math.pi)
        assert res.D.y == pytest.approx(-1.0, abs=1e-9)
        assert abs(res.C.x) <= 1e-9
        assert res.C.y == pytest.approx(1.0, abs=1e-12)
        assert angle_gap(res.ray1.angle, math.pi / 2) <= 1e-9
        assert angle_gap(res.ray2.angle, math.pi) <= 1e-9
        # the radius-2 circle is tangent to the guide line down there
        assert len(circle_line_xs(res.D.x, res.D.y, TOP_LENGTH, GUIDE_Y)) == 1

    def test_range_validation(self):
        for phi in (0.0, -0.2, 1.5 * math.pi + 1e-9):
            with pytest.raises(OutOfRange):
                trisect_via_curve(phi)

    def test_ray2_doubles_ray1(self):
        for deg in range(1, 270, 3):
            res = trisect_via_curve(math.radians(deg))
            assert angle_gap(res.ray2.angle, 2.0 * res.ray1.angle) <= 1e-9


class TestScudderMethod:
    def test_right_angle(self):
        res = trisect_via_scudder(math.pi / 2)
        assert angle_gap(res.ray1.angle, math.pi / 6) <= 1e-9
        assert angle_gap(res.ray2.angle, math.pi / 3) <= 1e-9

    def test_hundred_twenty_degrees(self):
        res = trisect_via_scudder(2.0 * math.pi / 3)
        assert angle_gap(res.ray1.angle, 2.0 * math.pi / 9) <= 1e-9
        assert angle_gap(res.ray2.angle, 4.0 * math.pi / 9) <= 1e-9

    def test_small_angle_stress(self):
        phi = 1e-4
        res = trisect_via_scudder(phi)
        assert angle_gap(res.ray1.angle, phi / 3.0) <= 1e-9
        assert angle_gap(res.ray2.angle, 2.0 * phi / 3.0) <= 1e-9

    def test_range_validation(self):
        with pytest.raises(OutOfRange):
            trisect_via_scudder(0.0)


def _log_grid(lo_exp, hi_exp, n=200):
    return [10.0 ** (lo_exp + (hi_exp - lo_exp) * k / (n - 1)) for k in range(n)]


def _uniform_grid_rad(n, seed):
    """n seeded angles uniform in (0, 270] degrees, in radians."""
    rng = random.Random(seed)
    return [math.radians(270.0 * (1.0 - rng.random())) for _ in range(n)]


def _assert_matches_closed_form(res, phi, where):
    """|OD| = csc(phi/3) to 1e-9 relative and both rays to 1e-9 mod 2*pi, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    assert verify_trisection(res, 1e-9).passed, (where, phi)
    with mpmath.workdps(50):
        p = mpmath.mpf(phi)
        csc = mpmath.csc(p / 3)
        assert abs(mpmath.hypot(res.D.x, res.D.y) - csc) <= 1e-9 * csc, (where, phi)
        for ray, k in ((res.ray1, 1), (res.ray2, 2)):
            gap = (mpmath.mpf(ray.angle) - k * p / 3) % (2 * mpmath.pi)
            assert min(gap, 2 * mpmath.pi - gap) <= 1e-9, (where, phi, k)


class TestScudderOracle:
    """The placement against |OD| = csc(phi/3) at 50 digits, at both ends of the domain.

    Near phi -> 0 the leg angle is tiny and |OD| huge, so only a relative
    stopping rule resolves it; near 270 degrees the leg closes on pi.
    """

    @pytest.mark.parametrize(
        "window, angles",
        [
            ("tiny", _log_grid(-9.0, -3.0)),
            ("below270", [math.radians(270.0 - off) for off in _log_grid(-12.0, -2.0)]),
        ],
    )
    def test_matches_the_closed_form(self, window, angles):
        for phi in angles:
            _assert_matches_closed_form(trisect_via_scudder(phi), phi, window)


class TestCurveOracle:
    """The curve method against |OD| = csc(phi/3) at 50 digits.

    Each window is a special point of the curve or of the ray cubic: the
    asymptote (tiny angles, down to the shared limit PHI_MIN), the node
    (90 degrees, where the mirror root meets the trace root), 180 degrees
    (where the r-form cubic loses its leading coefficient) and the
    closure (just below 270 degrees, where D.y rounds to -1).
    """

    @pytest.mark.parametrize(
        "window, angles",
        [
            ("near180", [math.radians(180.0 + sign * off) for off in _log_grid(-12.0, -2.0) for sign in (1, -1)]),
            ("uniform", _uniform_grid_rad(2400, seed=180)),
            ("tiny", [PHI_MIN] + _log_grid(-300.0, -3.0, 400)[1:]),
            ("near90", [math.radians(90.0 + sign * off) for off in _log_grid(-12.0, -2.0) for sign in (1, -1)]),
            ("below270", [math.radians(270.0 - off) for off in _log_grid(-12.0, -2.0)]),
        ],
    )
    def test_matches_the_closed_form(self, window, angles):
        for phi in angles:
            _assert_matches_closed_form(trisect_via_curve(phi), phi, window)


def _ulp_angles():
    """4,100 angles: 2,000 seeded uniform, 1,000 tiny, 600 about 90 deg and 500 below 270 deg."""
    rng = random.Random(4100)
    uniform = [math.radians(270.0 * (1.0 - rng.random())) for _ in range(2000)]
    tiny = [PHI_MIN] + _log_grid(-300.0, -3.0, 1000)[1:]
    near90 = [0.5 * math.pi + sign * off for off in _log_grid(-15.0, -3.0, 300) for sign in (1.0, -1.0)]
    below270 = [1.5 * math.pi - off for off in _log_grid(-15.0, -3.0, 500)]
    return uniform + tiny + near90 + below270


class TestUlpOracle:
    """Worst error of each ray in ulps of its exact angle k*phi/3, against 50 digits.

    The bounds are the worst errors the Illinois curve solve and the
    placement gave on these angles; a solver change must not exceed them.
    """

    @pytest.mark.parametrize(
        "fn, ray1_ulps, ray2_ulps",
        [(trisect_via_curve, 4.67, 2.0), (trisect_via_scudder, 5.67, 5.67)],
    )
    def test_worst_error_in_ulps(self, fn, ray1_ulps, ray2_ulps):
        mpmath = pytest.importorskip("mpmath")
        worst = [0.0, 0.0]
        with mpmath.workdps(50):
            for phi in _ulp_angles():
                res = fn(phi)
                third = mpmath.mpf(phi) / 3
                for i, (ray, k) in enumerate(((res.ray1, 1), (res.ray2, 2))):
                    exact = k * third
                    gap = (mpmath.mpf(ray.angle) - exact) % (2 * mpmath.pi)
                    ulps = float(min(gap, 2 * mpmath.pi - gap) / math.ulp(float(exact)))
                    worst[i] = max(worst[i], ulps)
        assert worst[0] <= ray1_ulps and worst[1] <= ray2_ulps, worst


def _pin_angles():
    """1..269 deg by 0.5 deg, log-spaced offsets about 90, 180 and below 270 deg, and tiny radians."""
    offsets = [10.0**-e for e in range(2, 13)]  # 1e-2 .. 1e-12 degrees
    degrees = [0.5 * k for k in range(2, 539)]
    degrees += [centre + sign * off for centre in (90.0, 180.0) for off in offsets for sign in (1, -1)]
    degrees += [270.0 - off for off in offsets] + [270.0]
    return [math.radians(deg) for deg in degrees] + [10.0**-e for e in range(3, 10)]


class TestSolverPin:
    # sha256 over the repr of every ray angle, witness coordinate and
    # residual both methods give on the grid; any change in the last bit
    # of a solver output changes it
    DIGEST = "eda5efc4eed9080374928c4e9bdf4019a406f9fffd1f2a6eb1b82c5b8419409e"

    def test_outputs_are_bit_identical(self):
        h = hashlib.sha256()
        for phi in _pin_angles():
            for fn in (trisect_via_curve, trisect_via_scudder):
                res = fn(phi)
                cert = verify_trisection(res, 1e-9)
                fields = (res.ray1.angle, res.ray2.angle, res.C.x, res.C.y, res.D.x, res.D.y, cert.pairs)
                h.update(repr(fields).encode())
        assert h.hexdigest() == self.DIGEST


def _window_angles():
    """Each side of pi/2, pi and 3*pi/2: the centre and 200 consecutive doubles either way; then 50 log-spaced tiny angles.

    The doubles above 3*pi/2 lie outside the domain, so there both
    methods must refuse them.  The tiny angles run from PHI_MIN to 1e-3.
    """
    angles = []
    for centre in (0.5 * math.pi, math.pi, 1.5 * math.pi):
        below = [centre]
        above = [centre]
        for _ in range(200):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], math.inf))
        angles += below[::-1] + above[1:]
    angles += [PHI_MIN * (1e-3 / PHI_MIN) ** (k / 49) for k in range(50)]
    return angles


class TestWindowPin:
    # sha256 over the repr of both rays, both witnesses and the residuals
    # at ulp-adjacent angles, where a wrap to (-pi, pi] or a sector taken
    # mod 2*pi is one rounding from its other branch (just past pi the
    # curve's atan2 of D rounds to -pi); TestSolverPin's grid never
    # lands there
    DIGEST = "a698664b381b64072942590e0e052d1763d4cf27aa668d2106d1b75bfb3ab2c2"

    def test_outputs_are_bit_identical(self):
        h = hashlib.sha256()
        for phi in _window_angles():
            for fn in (trisect_via_curve, trisect_via_scudder):
                try:
                    res = fn(phi)
                except OutOfRange:
                    assert phi > 1.5 * math.pi, phi
                    h.update(b"OutOfRange")
                    continue
                cert = verify_trisection(res, 1e-9)
                h.update(repr((res.ray1.angle, res.ray2.angle, res.C, res.D, cert.pairs)).encode())
        assert h.hexdigest() == self.DIGEST


class TestVerifyTrisection:
    def test_curve_result_passes(self):
        assert verify_trisection(trisect_via_curve(math.pi / 2), 1e-9).passed

    def test_scudder_result_passes(self):
        assert verify_trisection(trisect_via_scudder(math.pi), 1e-9).passed

    def test_skewed_ray_is_detected(self):
        res = trisect_via_curve(math.pi / 2)
        bad = TrisectionResult(res.phi, res.method, Ray(res.ray1.angle + 1e-3), res.ray2, res.C, res.D)
        cert = verify_trisection(bad, 1e-9)
        assert not cert.passed
        residuals = cert.residuals
        assert residuals["ray1_at_third"] > 1e-9
        assert residuals["equal_sectors"] > 1e-9

    def test_origin_has_no_angle(self):
        # the only cover of the certificate's refusal: no route builds D at the origin
        res = trisect_via_curve(1.0)
        at_origin = TrisectionResult(res.phi, res.method, res.ray1, res.ray2, res.C, Point(0.0, 0.0))
        with pytest.raises(OutOfDomain, match=r"^the origin has no polar angle$") as raised:
            verify_trisection(at_origin, 1e-9)
        assert isinstance(raised.value, TrisectrixError) and isinstance(raised.value, ValueError)

    def test_bad_tolerance(self):
        for tol in (0.0, -1e-9, math.nan, math.inf, -math.inf):
            with pytest.raises(TrisectrixError):
                verify_trisection(trisect_via_curve(1.0), tol)
            with pytest.raises(TrisectrixError):
                sweep_verify(10.0, 20.0, 5.0, METHOD_CURVE, tol)
        # at an infinite tolerance a ray 0.5 rad off would pass
        res = trisect_via_curve(1.0)
        off = TrisectionResult(res.phi, res.method, Ray(res.ray1.angle + 0.5), res.ray2, res.C, res.D)
        with pytest.raises(TrisectrixError):
            verify_trisection(off, math.inf)
        assert not verify_trisection(off, 1e-9).passed


class TestMethodAgreement:
    def test_witness_points_and_rays_agree(self):
        for deg in range(1, 270, 7):
            phi = math.radians(deg)
            a = trisect_via_curve(phi)
            b = trisect_via_scudder(phi)
            assert distance(a.C, b.C) <= 1e-6, deg
            assert angle_gap(a.ray1.angle, b.ray1.angle) <= 1e-7
            assert angle_gap(a.ray2.angle, b.ray2.angle) <= 1e-7


class TestRightmostRule:
    def test_wrong_candidate_fails_verification(self):
        for deg in range(5, 270, 11):
            phi = math.radians(deg)
            hit = intersect_ray(phi)
            d, _ = hit
            xs = circle_line_xs(d.x, d.y, TOP_LENGTH, GUIDE_Y)
            res = complete_curve_construction(phi, hit)
            # the construction solves the same circle in the frame of y = -1
            assert res.C.y == GUIDE_Y
            assert res.C.x == pytest.approx(xs[-1], rel=1e-12, abs=1e-12)
            assert verify_trisection(res, 1e-9).passed
            if len(xs) == 2:
                wrong_c = Point(xs[0], GUIDE_Y)
                ray1 = Ray(direction(wrong_c))
                ray2 = Ray(bisector(ray1.angle, direction(d)))
                wrong = TrisectionResult(phi, METHOD_CURVE, ray1, ray2, wrong_c, d)
                assert not verify_trisection(wrong, 1e-9).passed


class TestScaleInvariance:
    def test_construction_scales_linearly(self):
        # at width lam the guide line sits at y = lam, the top is 2*lam long,
        # and the curve is the unit curve scaled by lam
        for lam in (0.5, 2.0, 10.0):
            for deg in (25.0, 90.0, 150.0, 230.0):
                phi = math.radians(deg)
                unit = trisect_via_curve(phi)
                d, _ = intersect_ray(phi)
                d_scaled = Point(lam * d.x, lam * d.y)
                c_scaled = Point(circle_line_xs(d_scaled.x, d_scaled.y, TOP_LENGTH * lam, lam)[-1], lam)
                c_unit_scaled = Point(lam * unit.C.x, lam * unit.C.y)
                assert distance(c_scaled, c_unit_scaled) <= 1e-12 * lam * max(1.0, math.hypot(unit.C.x, unit.C.y))
                ray1 = Ray(direction(c_scaled))
                ray2 = Ray(bisector(ray1.angle, direction(d_scaled)))
                assert angle_gap(ray1.angle, unit.ray1.angle) <= 1e-12
                assert angle_gap(ray2.angle, unit.ray2.angle) <= 1e-12


class TestSpuriousBranch:
    def test_mirror_candidate_fails_the_pipeline(self):
        for deg in (30.0, 120.0):
            phi = math.radians(deg)
            mirror = mirror_hit(phi)
            mirror_d, mirror_t = mirror
            assert angle_gap(direction(mirror_d), phi) <= 1e-12
            assert abs(implicit_value(mirror_d)) <= 1e-12
            assert not on_trace(mirror_t, phi)
            forced = complete_curve_construction(phi, mirror)
            assert not verify_trisection(forced, 1e-9).passed


class TestSweepVerify:
    def test_single_row(self):
        # a step below the float spacing at 10 still gives one angle
        for step in (1.0, 1e-20, 1e-300):
            rep = sweep_verify(10.0, 10.0, step, "curve")
            assert list(rep) == SWEEP_KEYS
            assert rep["count"] == 1, step
            assert rep["max_error_rad"] <= 1e-9
            assert rep["argmax_phi_deg"] == 10.0
            assert rep["failures"] == ()

    def test_aggregates_are_consistent(self):
        rep = sweep_verify(1.0, 30.0, 1.0, "scudder")
        assert list(rep) == SWEEP_KEYS
        assert rep["count"] == 30
        assert rep["max_error_rad"] >= rep["mean_error_rad"] >= 0.0
        assert rep["failures"] == ()

    def test_impossible_tolerance_lists_every_angle(self):
        rep = sweep_verify(1.0, 3.0, 1.0, "scudder", 1e-300)
        assert rep["count"] == 3
        assert rep["failures"] == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_grid_stays_inside_the_range(self, monkeypatch, method):
        # 0.1 + 2 * 0.1 rounds to 0.30000000000000004, past the upper end
        seen = []
        fn = construct._METHOD_FNS[method]

        def recording(phi):
            seen.append(phi)
            return fn(phi)

        monkeypatch.setitem(construct._METHOD_FNS, method, recording)
        rep = sweep_verify(0.1, 0.3, 0.1, method)
        assert rep["count"] == 3
        assert seen == [math.radians(0.1), math.radians(0.2), math.radians(0.3)]

    def test_range_validation(self):
        with pytest.raises(BadRange):
            sweep_verify(0.0, 30.0, 1.0, "curve")
        with pytest.raises(BadRange):
            sweep_verify(30.0, 10.0, 1.0, "curve")
        with pytest.raises(BadRange):
            sweep_verify(1.0, 270.0, 1.0, "curve")
        # the step must be finite and positive
        for step in (0.0, math.inf, math.nan):
            with pytest.raises(BadRange):
                sweep_verify(1.0, 30.0, step, "curve")
        with pytest.raises(TrisectrixError):
            sweep_verify(1.0, 30.0, 1.0, "nonsense")

    def test_oversized_grid_is_refused_before_it_is_built(self):
        # just over the limit, so that even an unbounded sweep would fit in memory
        with pytest.raises(BadRange, match="exceeds"):
            sweep_verify(1.0, 2.0, 0.999e-6, "curve")
