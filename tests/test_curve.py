"""Tests for the carpenter's square curve: implicit form, trace, ray intersection."""

import math
import random

import pytest

from trisectrix import curve
from trisectrix.curve import (
    PHI_MIN,
    T_MAX,
    implicit_value,
    intersect_ray,
    on_trace,
    sample_trace,
    trace_point,
)
from trisectrix.errors import BadRange, NoTraceRoot, OutOfDomain, OutOfRange
from trisectrix.geom import Point, uniform_grid

from helpers import angle_gap, direction, distance
from mirror_branch import mirror_hit


def rel_scale(p: Point) -> float:
    return 1.0 + abs(p.x) ** 3


class TestImplicitForm:
    def test_known_values(self):
        assert implicit_value(Point(0.0, 2.0)) == 0.0
        assert implicit_value(Point(0.0, -1.0)) == 0.0
        assert implicit_value(Point(0.0, 0.0)) == -4.0
        assert implicit_value(Point(2.0, 1.0)) == 6.0

    def test_mirror_symmetry_is_exact(self):
        rng = random.Random(5)
        for _ in range(500):
            x, y = rng.uniform(-50, 50), rng.uniform(-10, 10)
            assert implicit_value(Point(x, y)) == implicit_value(Point(-x, y))


class TestTracePoint:
    def test_passes_through_the_node(self):
        p = trace_point(math.pi / 6)
        assert abs(p.x) <= 1e-12
        assert abs(p.y - 2.0) <= 1e-12

    def test_closure_point(self):
        p = trace_point(math.pi / 2)
        assert abs(p.x) <= 1e-12
        assert abs(p.y + 1.0) <= 1e-12

    def test_ten_degree_point(self):
        p = trace_point(math.pi / 18)
        assert p.x == pytest.approx(4.987241532966373, abs=1e-9)
        assert p.y == pytest.approx(2.879385241571817, abs=1e-9)

    def test_domain(self):
        for t in (0.0, -0.1, T_MAX + 1e-9):
            with pytest.raises(OutOfDomain):
                trace_point(t)

    def test_parametric_points_satisfy_implicit_equation(self):
        for i in range(1000):
            t = 0.005 + (T_MAX - 0.005) * i / 999
            p = trace_point(t)
            assert abs(implicit_value(p)) <= 1e-9 * rel_scale(p)

    def test_height_formula(self):
        for i in range(1000):
            t = 0.005 + (T_MAX - 0.005) * i / 999
            p = trace_point(t)
            assert abs(p.y - (3.0 - 4.0 * math.sin(t) ** 2)) <= 1e-12

    def test_polar_angle_is_three_t(self):
        for i in range(500):
            t = 0.01 + (T_MAX - 0.01) * i / 499
            assert angle_gap(direction(trace_point(t)), 3.0 * t) <= 1e-12

    def test_approaches_asymptote(self):
        p = trace_point(0.01)
        assert abs(p.y - 3.0) <= 4.0 * 0.01 ** 2 + 1e-6
        assert abs(p.x) > 99.0
        prev_y = p.y
        for t in (0.008, 0.006, 0.004, 0.002):
            y = trace_point(t).y
            assert y > prev_y  # monotone climb toward y = 3
            prev_y = y
        assert prev_y < 3.0

    def test_guide_pencil_slope_condition(self):
        # with C = (x + a, 1) and E the midpoint of CD, the top CD and the
        # leg EO must be perpendicular: ((y+1)/2) / (x + a/2) == -a / (1-y)
        for i in range(400):
            t = 0.02 + (T_MAX - 0.03) * i / 399
            d = trace_point(t)
            a = math.sqrt((3.0 - d.y) * (d.y + 1.0))  # half the chord the top cuts at height d.y
            ex = d.x + a / 2.0
            if abs(ex) < 1e-6 or abs(1.0 - d.y) < 1e-6:
                continue
            lhs = ((d.y + 1.0) / 2.0) / ex
            rhs = -a / (1.0 - d.y)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestOnTrace:
    def test_node_is_on_trace(self):
        assert on_trace(math.pi / 6, math.pi / 2)

    def test_trace_point_is_on_trace(self):
        t = math.radians(20)
        assert on_trace(t, direction(trace_point(t)))

    def test_mirror_image_is_off_trace(self):
        t = math.radians(20)
        p = trace_point(t)
        assert not on_trace(t, direction(Point(-p.x, p.y)))


class TestSampleTrace:
    def test_degenerate_range_rejected(self):
        with pytest.raises(BadRange):
            sample_trace(math.pi / 6, math.pi / 6, 2)
        with pytest.raises(BadRange):
            sample_trace(0.2, 0.1, 10)
        with pytest.raises(BadRange):
            sample_trace(0.1, 0.2, 1)

    def test_endpoints_included(self):
        samples = sample_trace(math.pi / 18, math.pi / 2, 3)
        assert len(samples) == 3
        assert samples[0] == trace_point(math.pi / 18)
        assert samples[-1] == trace_point(math.pi / 2)
        assert samples[0].x == pytest.approx(4.987241532966373, abs=1e-9)
        assert samples[-1].y == pytest.approx(-1.0, abs=1e-12)
        mid = trace_point((math.pi / 18 + math.pi / 2) / 2.0)
        assert samples[1].x == pytest.approx(mid.x, abs=1e-14)
        assert samples[1].y == pytest.approx(mid.y, abs=1e-14)

    def test_all_samples_pass_membership(self):
        ts = uniform_grid(0.001, math.pi / 2, 2000)
        for t, p in zip(ts, sample_trace(0.001, math.pi / 2, 2000)):
            assert on_trace(t, direction(p)), t


class TestIntersectRay:
    def test_vertical_ray_tangency_at_node(self):
        phi = math.pi / 2
        d, t = intersect_ray(phi)
        assert on_trace(t, phi)
        assert 1.0 / math.sin(t) == pytest.approx(2.0, abs=1e-12)
        assert abs(d.x) <= 1e-12
        assert d.y == pytest.approx(2.0, abs=1e-12)
        # the ray crosses the node tangentially: the ray cubic's second
        # root passes the membership test and is the trace hit again
        mirror_d, mirror_t = mirror_hit(phi)
        assert on_trace(mirror_t, phi)
        assert mirror_t == pytest.approx(t, abs=1e-15)
        assert distance(mirror_d, d) <= 1e-12

    def test_thirty_degrees_has_mirror_candidate(self):
        phi = math.pi / 6
        d, t = intersect_ray(phi)
        assert on_trace(t, phi)
        assert d.x == pytest.approx(4.987241532966373, abs=1e-9)
        assert d.y == pytest.approx(2.879385241571817, abs=1e-9)
        mirror_d, mirror_t = mirror_hit(phi)
        assert not on_trace(mirror_t, phi)
        # frozen from a sign-scan + bisection oracle on the raw cubic
        assert math.hypot(mirror_d.x, mirror_d.y) == pytest.approx(1.305407289, abs=1e-8)
        assert mirror_d.x == pytest.approx(1.1305159, abs=1e-6)
        assert mirror_d.y == pytest.approx(0.6527036, abs=1e-6)
        p = trace_point(mirror_t)
        assert distance(mirror_d, Point(-p.x, p.y)) <= 1e-12

    def test_straight_angle_degrades_to_quadratic(self):
        d, t = intersect_ray(math.pi)
        assert on_trace(t, math.pi)
        assert d.x == pytest.approx(-1.1547005383792515, abs=1e-9)
        assert abs(d.y) <= 1e-9

    def test_closure_angle(self):
        d, t = intersect_ray(1.5 * math.pi)
        assert on_trace(t, 1.5 * math.pi)
        assert 1.0 / math.sin(t) == pytest.approx(1.0, abs=1e-12)
        assert d.y == pytest.approx(-1.0, abs=1e-12)

    def test_closure_sliver_keeps_trace_root(self):
        # within ~2e-8 rad of the closure D.y rounds to -1; the x = cos t
        # reading still resolves the trace root there
        for delta in (1e-7, 1e-8, 3.5e-9, 1e-9, 1e-12):
            phi = 1.5 * math.pi - delta
            _, t = intersect_ray(phi)
            assert on_trace(t, phi), delta

    def test_near_straight_angles_keep_trace_root(self):
        # the r-form cubic's leading coefficient vanishes at phi = pi;
        # the x = sin t reading has no such degeneracy on either side
        for delta in (1e-5, 1e-6, 1e-8, 3.35e-9, 1e-12, 0.0, -1e-12, -3.35e-9, -1e-6):
            phi = math.pi + delta
            _, t = intersect_ray(phi)
            assert on_trace(t, phi), delta
            assert abs(1.0 / math.sin(t) - 1.0 / math.sin(phi / 3.0)) <= 1e-9, delta

    def test_range_validation(self):
        for phi in (0.0, -0.5, 1.5 * math.pi + 1e-9):
            with pytest.raises(OutOfRange):
                intersect_ray(phi)

    def test_sub_resolution_angle_rejected(self):
        # below the shared lower limit PHI_MIN; at 1e-320 rad the trace
        # point would sit past the largest double
        for phi in (math.nextafter(PHI_MIN, 0.0), 1e-320, 5e-324):
            with pytest.raises(OutOfRange):
                intersect_ray(phi)

    def test_membership_tolerance_below_rounding_is_an_internal_error(self, monkeypatch):
        # the trace root is on the ray to a few ulps; a tolerance no float
        # can meet leaves no on-trace root
        monkeypatch.setattr(curve, "TRACE_TOL", 1e-300)
        with pytest.raises(NoTraceRoot):
            intersect_ray(1.0)

    def test_trace_root_off_the_ray_is_an_internal_error(self, monkeypatch):
        # a solver fault that nudges the root off the ray is caught by the
        # membership test, not passed on as a trace point
        solve_cubic = curve.solve_cubic

        def nudged(*args):
            return [x + 1e-6 for x in solve_cubic(*args)]

        monkeypatch.setattr(curve, "solve_cubic", nudged)
        for phi in (0.3, 1.0, 2.5, 4.0):
            with pytest.raises(NoTraceRoot):
                intersect_ray(phi)

    def test_exactly_one_trace_root_across_the_range(self):
        for i in range(1500):
            phi = 0.002 + (1.5 * math.pi - 0.002) * i / 1499
            _, t = intersect_ray(phi)
            assert on_trace(t, phi)
        intersect_ray(1.5 * math.pi)  # endpoint included

    @pytest.mark.parametrize("deg", [30.0, 90.0, 120.0, 180.0, 270.0])
    def test_one_membership_test_per_query(self, monkeypatch, deg):
        # the mirror root is neither solved for nor tested
        calls = []

        def counted(t, phi):
            calls.append(t)
            return on_trace(t, phi)

        monkeypatch.setattr(curve, "on_trace", counted)
        _, t = intersect_ray(math.radians(deg))
        assert calls == [t]

    def test_kept_roots_satisfy_implicit_equation(self):
        for deg in range(1, 270, 3):
            phi = math.radians(deg)
            hits = [intersect_ray(phi)] + ([mirror_hit(phi)] if deg < 180 else [])
            for d, _ in hits:
                assert abs(implicit_value(d)) <= 1e-9 * rel_scale(d)


class TestPickTrisectionPoint:
    """The curve method's D: the trace hit intersect_ray returns."""

    def test_examples(self):
        # the hit is the pair (D, t), and the mirror-branch hit has its shape
        for hit in (intersect_ray(math.pi / 2), mirror_hit(math.pi / 2)):
            assert type(hit) is tuple and [type(v) for v in hit] == [Point, float]
        p, _ = intersect_ray(math.pi / 2)
        assert abs(p.x) <= 1e-12 and p.y == pytest.approx(2.0, abs=1e-12)
        p, _ = intersect_ray(2.0 * math.pi / 3)
        assert p.x == pytest.approx(-0.777862, abs=1e-6)
        assert p.y == pytest.approx(1.347296, abs=1e-6)
        p, _ = intersect_ray(1.5 * math.pi)
        assert abs(p.x) <= 1e-9 and p.y == pytest.approx(-1.0, abs=1e-12)

    def test_distance_is_cosecant_of_a_third(self):
        # csc(phi / 3) is only a cross-check here; the construction never uses it
        for deg in range(1, 270):
            phi = math.radians(deg)
            p, _ = intersect_ray(phi)
            assert abs(math.hypot(p.x, p.y) - 1.0 / math.sin(phi / 3.0)) <= 1e-9 * max(
                1.0, 1.0 / math.sin(phi / 3.0)
            )
