"""Tests for the T-square compass kinematics and the placement solve."""

import math
import random
import re

import pytest

from trisectrix import linkage
from trisectrix.construct import TrisectionResult, trisect_via_scudder, verify_trisection
from trisectrix.curve import intersect_ray, trace_point
from trisectrix.errors import OutOfDomain, OutOfRange
from trisectrix.geom import Point
from trisectrix.linkage import (
    PHI_MAX,
    PHI_MIN,
    scudder_place,
    state_from_leg_angle,
    _tip_angle,
)

from helpers import angle_gap, direction, distance

SQRT3 = math.sqrt(3.0)


def u_grid(n=1000, lo=0.01, hi=3.13):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _bits(values):
    """The floats as hex strings, so that -0.0 and 0.0 differ and equality is bit for bit."""
    return tuple(map(float.hex, values))


def _below(x, n):
    """The n floats just below x, largest first."""
    out = []
    for _ in range(n):
        x = math.nextafter(x, -math.inf)
        out.append(x)
    return out


def _with_tip_nudged(phi, dy):
    """The placement's trisection of phi with its tracing pencil D moved by dy along +y.

    The rays come from the placed state's C and E, which the nudge leaves alone.
    """
    res = trisect_via_scudder(phi)
    return TrisectionResult(phi, res.method, res.ray1, res.ray2, res.C, Point(res.D.x, res.D.y + dy))


class TestStateFromLegAngle:
    def test_sixty_degree_leg(self):
        st = state_from_leg_angle(math.pi / 3)
        assert st.s == pytest.approx(SQRT3, abs=1e-12)
        assert st.E.x == pytest.approx(SQRT3 / 2, abs=1e-12)
        assert st.E.y == pytest.approx(1.5, abs=1e-12)
        assert st.C.x == pytest.approx(SQRT3, abs=1e-12)
        assert st.C.y == pytest.approx(1.0, abs=1e-12)
        assert abs(st.D.x) <= 1e-12
        assert st.D.y == pytest.approx(2.0, abs=1e-12)

    def test_square_leg(self):
        st = state_from_leg_angle(math.pi / 2)
        assert st.s == pytest.approx(1.0, abs=1e-12)
        assert st.E.y == pytest.approx(1.0, abs=1e-12)
        assert st.C.x == pytest.approx(1.0, abs=1e-12)
        assert st.D.x == pytest.approx(-1.0, abs=1e-12)
        assert st.D.y == pytest.approx(1.0, abs=1e-12)

    def test_flat_limit(self):
        st = state_from_leg_angle(math.pi - 1e-6)
        assert st.s > 0.0
        assert math.hypot(st.D.x, st.D.y + 1.0) <= 1e-5

    def test_range_validation(self):
        # the smallest double is refused too: its half rounds to 0.0, where
        # the slide cot(u/2) would divide by zero
        for u in (0.0, -0.1, math.ulp(0.0), math.pi, 4.0):
            with pytest.raises(OutOfRange):
                state_from_leg_angle(u)

    def test_state_invariants_on_grid(self):
        for u in u_grid():
            st = state_from_leg_angle(u)
            assert abs(distance(st.C, st.D) - 2.0) <= 1e-12
            assert abs(st.C.y - 1.0) <= 1e-12
            mid = Point((st.C.x + st.D.x) * 0.5, (st.C.y + st.D.y) * 0.5)
            assert distance(mid, st.E) <= 1e-12
            top_x, top_y = st.D.x - st.C.x, st.D.y - st.C.y
            leg_dot_top = st.E.x * top_x + st.E.y * top_y
            assert abs(leg_dot_top) / (math.hypot(st.E.x, st.E.y) * math.hypot(top_x, top_y)) <= 1e-12
            # slide closed form restated: s*sin(u) - cos(u) == 1
            assert abs(st.s * math.sin(u) - math.cos(u) - 1.0) <= 1e-12

    def test_hypotenuses_equal_cosecant_of_half_leg(self):
        for u in u_grid():
            st = state_from_leg_angle(u)
            csc = 1.0 / math.sin(u / 2.0)
            assert abs(distance(st.C, Point(0.0, 0.0)) - csc) <= 1e-9 * max(1.0, csc)
            assert abs(distance(st.D, Point(0.0, 0.0)) - csc) <= 1e-9 * max(1.0, csc)

    def test_tracing_pencil_follows_the_curve(self):
        for u in u_grid():
            st = state_from_leg_angle(u)
            assert distance(st.D, trace_point(u / 2.0)) <= 1e-9

    def test_tip_angle_monotone_on_grid(self):
        # the bracketed placement solve leans on this; the float tip angle
        # it solves on is the unwrapped polar angle of the state's D, bit
        # for bit
        prev = 0.0
        for u in u_grid(2001, 1e-6, math.pi - 1e-6):
            st = state_from_leg_angle(u)
            ang = _tip_angle(st)
            a = direction(st.D)
            assert ang == (a + math.tau if a < 0.0 else a)
            assert ang > prev
            prev = ang


class TestPencils:
    """linkage._pencils, the CSV row path, is state_from_leg_angle without the records."""

    def test_bit_identical_to_the_state(self):
        rng = random.Random(17)
        legs = [rng.uniform(0.0, math.pi) for _ in range(20_000)]
        legs += [10.0**-e for e in range(301)]  # log-spaced down to 1e-300
        legs += _below(math.pi, 100)
        for u in legs:
            st = state_from_leg_angle(u)
            assert _bits(linkage._pencils(u)) == _bits((st.s, st.C.x, st.C.y, st.D.x, st.D.y, st.E.x, st.E.y)), u

    @pytest.mark.parametrize("u", [0.0, -0.0, -0.1, math.pi, 4.0, math.nan, math.inf, 5e-324, 1e-320, 1e-308])
    def test_same_error_as_the_state(self, u):
        # out of range, or in range with a slide past the largest double
        with pytest.raises((OutOfRange, OutOfDomain)) as want:
            state_from_leg_angle(u)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            linkage._pencils(u)


class TestScudderPlace:
    def test_right_angle_placement(self):
        sol = scudder_place(math.pi / 2)
        assert sol.state.u == pytest.approx(math.pi / 3, abs=1e-10)
        assert sol.state.C.x == pytest.approx(SQRT3, abs=1e-9)
        assert sol.state.C.y == pytest.approx(1.0, abs=1e-12)
        assert abs(sol.state.D.x) <= 1e-9
        assert sol.state.D.y == pytest.approx(2.0, abs=1e-9)
        assert abs(_tip_angle(sol.state) - math.pi / 2) <= 1e-10

    def test_straight_angle_placement(self):
        sol = scudder_place(math.pi)
        assert sol.state.D.x == pytest.approx(-1.1547005383792515, abs=1e-9)
        assert abs(sol.state.D.y) <= 1e-9
        assert sol.state.C.x == pytest.approx(0.5773502691896258, abs=1e-9)

    def test_closure_angle_resolved_at_bracket_endpoint(self):
        sol = scudder_place(1.5 * math.pi)
        assert abs(sol.state.D.x) <= 1e-12
        assert sol.state.D.y == pytest.approx(-1.0, abs=1e-12)
        assert abs(sol.state.C.x) <= 1e-12
        assert sol.state.C.y == pytest.approx(1.0, abs=1e-12)
        assert verify_trisection(trisect_via_scudder(1.5 * math.pi), 1e-9).passed

    def test_round_trip_identity_over_degree_grid(self):
        for deg in range(1, 270):
            phi = math.radians(deg)
            sol = scudder_place(phi)
            assert angle_gap(direction(sol.state.D), phi) <= 1e-9
            assert sol.iterations <= 200

    def test_range_validation(self):
        for phi in (0.0, -1.0, 1.5 * math.pi + 1e-9):
            with pytest.raises(OutOfRange):
                scudder_place(phi)

    def test_range_message_is_the_curve_methods(self):
        # one domain, one message: both methods refuse phi in the same words
        for phi in (0.0, 1e-300, 1.5 * math.pi + 1e-9, math.nan):
            with pytest.raises(OutOfRange) as want:
                intersect_ray(phi)
            with pytest.raises(OutOfRange, match=f"^{re.escape(str(want.value))}$"):
                scudder_place(phi)

    def test_smallest_reachable_angle(self):
        # the tip angle at the shortest representable leg; below it no
        # placement exists in double precision
        sol = scudder_place(PHI_MIN)
        assert sol.iterations == 0
        assert direction(sol.state.D) == pytest.approx(PHI_MIN, rel=1e-15)
        for phi in (math.nextafter(PHI_MIN, 0.0), 5e-324):
            with pytest.raises(OutOfRange):
                scudder_place(phi)

    @pytest.mark.parametrize("end", ["short_leg", "long_leg"])
    def test_every_angle_is_bracketed_or_accepted_at_an_end(self, end):
        # the search needs g < 0 at the short leg end and g > 0 at the long
        # one unless an end is accepted: the short end's tip angle is
        # PHI_MIN itself, and the long end's falls short of PHI_MAX by less
        # than the tolerance at any angle above it
        if end == "short_leg":
            assert linkage._TIP_MIN == PHI_MIN
            sol = scudder_place(PHI_MIN)
            assert sol.iterations == 0 and sol.state.u == linkage._LEG_MIN
            assert _tip_angle(sol.state) == PHI_MIN
            return
        assert 0.0 < PHI_MAX - linkage._TIP_MAX <= linkage._RESIDUAL_RTOL * linkage._TIP_MAX
        phi = linkage._TIP_MAX
        while phi < PHI_MAX:
            phi = math.nextafter(phi, math.inf)
            sol = scudder_place(phi)
            assert sol.iterations == 0 and sol.state.u == linkage._LEG_MAX
            assert abs(_tip_angle(sol.state) - phi) <= linkage._RESIDUAL_RTOL * phi

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["lower_end", "upper_end"])
    def test_split_search_ends_at_the_better_of_two_adjacent_floats(self, monkeypatch, side):
        # with no tolerance the secant point is accepted only where the tip
        # angle rounds to phi exactly; elsewhere the splits close the
        # bracket down to two adjacent floats and the better one comes back,
        # its lower end (g < 0) for some angles and its upper end for others
        monkeypatch.setattr(linkage, "_RESIDUAL_RTOL", 0.0)
        rng = random.Random(16)
        angles = [PHI_MAX * (1.0 - rng.random()) for _ in range(500)]
        angles += [10.0 ** (-299.0 + 299.0 * i / 99) for i in range(100)]
        adjacent = on_side = 0
        for phi in angles:
            sol = scudder_place(phi)
            u = sol.state.u
            g = _tip_angle(sol.state) - phi
            assert 1 <= sol.iterations <= 67
            assert abs(g) <= 2.0 * math.ulp(1.0) * phi
            if g:
                adjacent += 1
                on_side += math.copysign(1.0, g) == side
                for neighbour in (math.nextafter(u, 0.0), math.nextafter(u, math.pi)):
                    assert abs(_tip_angle(state_from_leg_angle(neighbour)) - phi) >= abs(g)
        assert adjacent >= 50 and on_side >= 1

    def test_one_step_and_one_state_evaluation(self, monkeypatch):
        # the tip angle is linear in u (3u/2), so the first secant step
        # from the full leg range lands on the placement; the state is
        # built once, at the accepted leg angle, and the tip angle is read
        # once, from that state (the range ends' are constants); an end
        # that is the placement builds its state and reads no tip angle
        calls = []
        tip_calls = []
        tip_angle = linkage._tip_angle

        def counting_state(u):
            calls.append(u)
            return state_from_leg_angle(u)

        def counting_tip(st):
            tip_calls.append(st.u)
            return tip_angle(st)

        monkeypatch.setattr(linkage, "state_from_leg_angle", counting_state)
        monkeypatch.setattr(linkage, "_tip_angle", counting_tip)
        rng = random.Random(7)
        for _ in range(2000):
            calls.clear()
            tip_calls.clear()
            phi = math.radians(270.0 * (1.0 - rng.random()))
            sol = scudder_place(phi)
            assert sol.iterations == 1
            assert calls == [sol.state.u]
            assert tip_calls == [sol.state.u]
            assert abs(tip_angle(sol.state) - phi) <= 4.0 * math.ulp(1.0) * phi
        for phi in (PHI_MIN, 1.5 * math.pi, math.nextafter(linkage._TIP_MAX, math.inf)):
            calls.clear()
            tip_calls.clear()
            sol = scudder_place(phi)
            assert sol.iterations == 0
            assert calls == [sol.state.u]
            assert tip_calls == []


class TestVerifyPlacement:
    """verify_trisection on trisections built from placed states."""

    def test_right_angle_certificate(self):
        assert verify_trisection(trisect_via_scudder(math.pi / 2), 1e-9).passed
        # the three sectors are each 30 degrees here
        st = scudder_place(math.pi / 2).state
        assert direction(st.C) == pytest.approx(math.pi / 6, abs=1e-9)
        assert direction(st.E) == pytest.approx(math.pi / 3, abs=1e-9)

    def test_perturbed_tip_is_detected(self):
        cert = verify_trisection(_with_tip_nudged(math.pi / 2, 1e-3), 1e-9)
        assert not cert.passed
        # at 90 degrees D sits on the y-axis, so a +y nudge is radial:
        # the length check catches it, the direction check cannot
        residuals = cert.residuals
        assert residuals["cd_length"] > 1e-9
        assert residuals["d_on_target_ray"] <= 1e-9

    def test_perturbed_tip_leaves_the_target_ray(self):
        cert = verify_trisection(_with_tip_nudged(2.0, 1e-3), 1e-9)
        assert cert.residuals["d_on_target_ray"] > 1e-9
