"""Tests for the plane-geometry kernel."""

import inspect
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from trisectrix import curve
from trisectrix.construct import trisect_via_curve, verify_trisection
from trisectrix.curve import PHI_MIN
from trisectrix.errors import BadRange, OutOfDomain
from trisectrix.geom import (
    MAX_GRID_POINTS,
    Point,
    Ray,
    intersect_circle_line,
    solve_cubic,
    uniform_grid,
)

from helpers import angle_gap, circle_line_xs, direction

SQRT3 = math.sqrt(3.0)


class TestPrimitives:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.inf, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, math.nan)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_ray_rejects_non_finite(self, angle):
        with pytest.raises(OutOfDomain):
            Ray(angle)

    def test_ray_normalizes_angle(self):
        assert Ray(3.0 * math.pi).angle == pytest.approx(math.pi)
        assert Ray(-math.pi).angle == pytest.approx(math.pi)


class TestUniformGrid:
    def test_ends_exactly_at_both_bounds(self):
        grid = uniform_grid(0.1, 0.7, 7)
        assert len(grid) == 7
        assert grid[0] == 0.1 and grid[-1] == 0.7
        assert grid[1:-1] == [0.1 + i * ((0.7 - 0.1) / 6) for i in range(1, 6)]

    def test_two_points_are_the_bounds(self):
        assert uniform_grid(-2.5, 3.0, 2) == [-2.5, 3.0]

    def test_oversized_grid_is_refused(self):
        with pytest.raises(BadRange):
            uniform_grid(0.0, 1.0, MAX_GRID_POINTS + 1)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_points_are_refused(self, n):
        # one point has no step, and none would leave hi alone in the grid
        with pytest.raises(BadRange, match=f"need at least 2 samples, got {n}"):
            uniform_grid(0.0, 1.0, n)


class TestIntersectCircleLine:
    """The right-most x where the radius-2 circle about (cx, lift) meets y = 2, for lift in [0, 4]."""

    def test_two_point_case(self):
        # the circle about (0, 1) meets y = 2 at -sqrt(3) and sqrt(3)
        assert intersect_circle_line(0.0, 1.0) == pytest.approx(SQRT3, abs=1e-15)
        assert intersect_circle_line(0.0, 1.0) == circle_line_xs(0.0, 1.0, 2.0, 2.0)[-1]

    def test_tangency_collapses_to_one_point(self):
        # at lift 0 (D on the closure line) the circle touches y = 2 at x = cx, as at 270 degrees
        for cx in (0.0, 0.7, -3.5e-16):
            assert intersect_circle_line(cx, 0.0) == cx

    def test_points_satisfy_both_equations(self):
        # the x at y = 2 is on the circle, right of its center, and the general reference's right-most
        rng = random.Random(11)
        for _ in range(300):
            cx, lift = rng.uniform(-4, 4), rng.uniform(0.0, 4.0)
            x = intersect_circle_line(cx, lift)
            assert abs(math.hypot(x - cx, 2.0 - lift) - 2.0) <= 1e-9
            assert x >= cx
            assert x == pytest.approx(circle_line_xs(cx, lift, 2.0, 2.0)[-1], rel=1e-12, abs=1e-12)

    def test_translation_invariance(self):
        # moving the circle by dx along the line moves its x by dx
        rng = random.Random(13)
        base = intersect_circle_line(0.5, 1.5)
        for _ in range(100):
            dx = rng.uniform(-20, 20)
            assert abs(intersect_circle_line(0.5 + dx, 1.5) - (base + dx)) <= 1e-9


class TestAngles:
    def test_ray_points_keep_the_ray_angle(self):
        for angle in [i * math.tau / 37 - math.pi for i in range(37)]:
            r = Ray(angle)
            for d in (1e-3, 0.7, 5.0, 1e4):
                assert angle_gap(direction(r.point_at(d)), r.angle) <= 1e-12


# The curve's two windows of the ray equation T3(x) = k.
WINDOWS = (curve._LOW_WINDOW, curve._HIGH_WINDOW)

# The largest |k| intersect_ray passes: the smaller of |sin phi| and
# |cos phi|, which rounds to at most the double above sqrt(1/2).
K_MAX = math.nextafter(math.sqrt(0.5), 1.0)


def t3_residual(k, x):
    """T3(x) - k, rounded as the solver rounds it."""
    return (4.0 * x * x - 3.0) * x - k


class TestSolveCubic:
    """T3(x) = 4x^3 - 3x = k on the curve's two windows."""

    @given(st.floats(math.pi / 12.0, math.pi / 4.0))
    def test_recovers_constructed_roots(self, theta):
        # T3(cos a) = cos 3a: with k = cos(3 theta) in [-sqrt(1/2), sqrt(1/2)]
        # the high window holds cos(theta), and for k < 0 (theta > pi/6)
        # the low window holds cos(2 pi/3 - theta)
        k = math.cos(3.0 * theta)
        assert solve_cubic(k, *curve._HIGH_WINDOW) == pytest.approx([math.cos(theta)], abs=2e-15)
        if k < 0.0:
            root = math.cos(math.tau / 3.0 - theta)
            assert solve_cubic(k, *curve._LOW_WINDOW) == pytest.approx([root], abs=2e-15)

    @given(st.floats(1.0, 10.0), st.integers(-300, -1))
    def test_recovers_constructed_roots_at_any_scale(self, mantissa, exponent):
        # the low window's roots run from sin(PHI_MIN / 3) = 5e-301 up to
        # sin 15 degrees; the secant point and the Newton steps scale with k
        x0 = mantissa * 10.0**exponent
        assume(x0 <= math.sin(math.pi / 12.0))
        k = (4.0 * x0 * x0 - 3.0) * x0
        (x,) = solve_cubic(k, *curve._LOW_WINDOW)
        assert abs(x - x0) <= 2e-15 * x0, (x0, x)

    def test_tiny_constants_keep_their_roots(self):
        # the low curve window at tiny angles, k = -sin(phi) down to the
        # smallest subnormal: the first point rounds onto the end 0 (for
        # 5e-324), and bisecting from 0.26 would need ~1,000 halvings
        for k, root in ((-1e-200, 3.3333333333333335e-201), (-1.5e-300, 5e-301), (-5e-324, 0.0)):
            assert solve_cubic(k, 0.0, 0.26) == [root]
        assert verify_trisection(trisect_via_curve(PHI_MIN), 1e-9).passed


def is_better_of_adjacent_pair(k, x):
    """x is a zero of T3 - k, or one of two adjacent floats across which it changes sign, with the smaller |T3 - k|.

    On a tie the lower float is the one returned.
    """
    f_x = t3_residual(k, x)
    if f_x == 0.0:
        return True
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    f_below, f_above = t3_residual(k, below), t3_residual(k, above)
    return (
        (f_below < 0.0) != (f_x < 0.0) and f_below != 0.0 and abs(f_x) < abs(f_below)
        or (f_above < 0.0) != (f_x < 0.0) and f_above != 0.0 and abs(f_x) <= abs(f_above)
    )


def traced_lines(code, call, watch=None):
    """Run call() under a line tracer on ``code``.

    Returns how often each line of ``code`` ran, call()'s result, and
    the values the local ``watch`` held at those lines.
    """
    ran, watched = Counter(), []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran[frame.f_lineno] += 1
            if watch in frame.f_locals:
                watched.append(frame.f_locals[watch])
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        outcome = call()
    finally:
        sys.settrace(previous)
    return ran, outcome, watched


# One named case per branch of solve_cubic: (name, its arguments (k, lo,
# hi), check of the outcome, the line the branch runs as (its text, which
# occurrence)).  Each bracket is one of the curve's windows.
PIECE_CASES = [
    # T3(0.75) = -0.5625 exactly, and the fifth point is 0.75
    (
        "exact zero mid-bracket",
        (-0.5625, 0.7, 0.97),
        lambda r: r == [0.75] and t3_residual(-0.5625, r[0]) == 0.0,
        ("return [x]", 0),
    ),
    # converged Newton steps that round back onto the end just set
    (
        "step onto the lower end",
        (-0.25, 0.7, 0.97),
        lambda r: r == [0.8208917637264629] and is_better_of_adjacent_pair(-0.25, r[0]),
        ("x = math.nextafter(lo, hi)", 0),
    ),
    (
        "step onto the upper end",
        (0.5, 0.7, 0.97),
        lambda r: r == [0.9396926207859084] and is_better_of_adjacent_pair(0.5, r[0]),
        ("x = math.nextafter(hi, lo)", 0),
    ),
    (
        "bracket closed to adjacent floats",
        (0.5, 0.7, 0.97),
        lambda r: r == [0.9396926207859084],
        ("return [lo if abs(f_lo) <= abs(f_hi) else hi]", 0),
    ),
]


class TestNewtonPiece:
    """solve_cubic's Newton search on the curve's windows: every line runs, and the stop rule holds."""

    CODE = solve_cubic.__code__
    # the solver's source lines and the number of the first, read once
    SOURCE, FIRST_LINE = inspect.getsourcelines(CODE)

    @classmethod
    def line_of(cls, text, occurrence=0):
        """Line number of the ``occurrence``-th line of the solver reading ``text``."""
        return [cls.FIRST_LINE + i for i, line in enumerate(cls.SOURCE) if line.strip() == text][occurrence]

    def evaluations(self, ran):
        """The points a traced solve evaluated: the runs of its f_x line."""
        return ran[self.line_of("f_x = (4.0 * x * x - 3.0) * x - k")]

    @pytest.mark.parametrize("name, args, check, branch", PIECE_CASES, ids=[case[0] for case in PIECE_CASES])
    def test_named_case_reaches_its_branch(self, name, args, check, branch):
        ran, outcome, _ = traced_lines(self.CODE, lambda: solve_cubic(*args))
        assert check(outcome), (name, outcome)
        assert ran[self.line_of(*branch)], name

    def test_named_cases_are_monotone_pieces(self):
        # each named case solves on a curve window, where T3 is monotone (below)
        for name, (_, lo, hi), _, _ in PIECE_CASES:
            assert (lo, hi) in WINDOWS, name

    def test_curve_windows_are_monotone_pieces(self):
        # T3'' = 24x >= 0 on both windows, so T3' = 12x^2 - 3 rises across
        # each: its end values have one sign and |T3'| >= 2.18 in between,
        # and the solver divides by it unguarded
        for lo, hi in WINDOWS:
            assert lo >= 0.0
            slopes = [12.0 * x * x - 3.0 for x in (lo, hi)]
            assert slopes[0] * slopes[1] > 0.0 and min(abs(slope) for slope in slopes) >= 2.18

    def test_window_ends_straddle_every_curve_k(self, monkeypatch):
        # T3 at each window's ends lies strictly on either side of every k
        # that intersect_ray passes: |k| <= K_MAX, and k < 0 on the low window
        (low_lo, low_hi), (high_lo, high_hi) = ([t3_residual(0.0, x) for x in w] for w in WINDOWS)
        assert low_lo == 0.0 and low_hi < -K_MAX
        assert high_lo < -K_MAX and high_hi > K_MAX
        passed = []

        def recording(k, lo, hi):
            passed.append((k, (lo, hi)))
            return solve_cubic(k, lo, hi)

        monkeypatch.setattr(curve, "solve_cubic", recording)
        # a uniform grid, tiny angles, and the doubles beside the angles
        # where the reading switches (45, 135 and 225 degrees) or the
        # window does (90 and 180), and below 270
        angles = uniform_grid(PHI_MIN, curve.PHI_MAX, 10_001)
        angles += [PHI_MIN * 10.0 ** (i / 10.0) for i in range(3000)]
        for deg in (45.0, 90.0, 135.0, 180.0, 225.0, 270.0):
            for toward in (0.0, math.inf) if deg < 270.0 else (0.0,):
                phi = math.radians(deg)
                for _ in range(200):
                    angles.append(phi)
                    phi = math.nextafter(phi, toward)
        for phi in angles:
            curve.intersect_ray(phi)
        assert len(passed) == len(angles)
        for k, window in passed:
            assert window in WINDOWS and abs(k) <= K_MAX, (k, window)
            assert k < 0.0 or window == curve._HIGH_WINDOW, k

    def test_at_most_seven_points_in_the_curve_windows(self):
        # the seeded k of test_criterion_10 on both windows, the extreme
        # |k| and tiny k
        rng = random.Random(20260810)
        ks = [rng.uniform(-math.sqrt(0.5), math.sqrt(0.5)) for _ in range(10_000)]
        ks += [K_MAX, -K_MAX, -1.5e-300, -5e-324]
        points = Counter()
        for k in ks:
            for window, kk in ((curve._LOW_WINDOW, -abs(k)), (curve._HIGH_WINDOW, k)):
                points[self.evaluations(traced_lines(self.CODE, lambda: solve_cubic(kk, *window))[0])] += 1
        assert max(points) <= 7, points

    def test_converged_steps_in_rounding_noise_are_kept(self):
        # at this k the last Newton steps are 1.5e-16 and then exactly half
        # that: rounding noise about the root, and the search still stops
        # within 7 points
        k = -0.7014370866579387
        ran, roots, _ = traced_lines(self.CODE, lambda: solve_cubic(k, 0.7, 0.97))
        assert roots == [0.7089866748427832] and is_better_of_adjacent_pair(k, roots[0])
        assert self.evaluations(ran) <= 7

    def test_every_line_is_reached_by_a_named_case(self):
        ran = Counter()
        for _, args, _, _ in PIECE_CASES:
            ran += traced_lines(self.CODE, lambda: solve_cubic(*args))[0]
        body = {line for _, _, line in self.CODE.co_lines() if line is not None and line != self.CODE.co_firstlineno}
        missed = {line: self.SOURCE[line - self.FIRST_LINE].strip() for line in sorted(body - set(ran))}
        assert not missed, missed

    @given(
        st.floats(-math.sqrt(0.5), math.sqrt(0.5)),
        st.sampled_from([(0.0, 0.26), (0.7, 0.97)]),
    )
    def test_curve_root_is_the_better_of_two_adjacent_floats(self, k, window):
        # T3(x) = k; the low window holds a root only for k <= 0
        if window[0] == 0.0:
            k = -abs(k)
        (x,) = solve_cubic(k, *window)
        assert window[0] <= x <= window[1]
        assert is_better_of_adjacent_pair(k, x), (k, window, x)
