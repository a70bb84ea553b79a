"""Tests for the plane-geometry kernel."""

import inspect
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from trisectrix import curve, geom
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


def t3_window(k):
    """[-B, B] with Cauchy's bound B = 1 + max(3/4, |k|/4) on the roots of x^3 - (3/4)x - k/4: it holds every x with T3(x) = k."""
    bound = 1.0 + max(0.75, abs(k) / 4.0)
    return -bound, bound


def roots_by_piece(k, lo, hi):
    """solve_cubic on each monotone piece of [lo, hi], ascending.

    The pieces end at -1/2 and 1/2, the zeros of T3's slope 12x^2 - 3,
    where they lie inside [lo, hi]; a root at one ends two pieces and
    comes back from both.
    """
    ends = [lo, *(x for x in (-0.5, 0.5) if lo < x < hi), hi]
    return [x for a, b in zip(ends, ends[1:]) for x in solve_cubic(k, a, b)]


def t3_residual(k, x):
    """T3(x) - k, rounded as the solver rounds it."""
    return (4.0 * x * x - 3.0) * x - k


class TestSolveCubic:
    """T3(x) = 4x^3 - 3x = k on a bracket where T3 is monotone."""

    def test_single_real_root(self):
        # |k| > 1: one real root, beyond both stationary points -1/2 and 1/2
        assert roots_by_piece(26.0, *t3_window(26.0)) == [2.0]
        assert roots_by_piece(-26.0, *t3_window(-26.0)) == [-2.0]
        (x,) = roots_by_piece(2.0, *t3_window(2.0))
        assert x == pytest.approx(math.cosh(math.acosh(2.0) / 3.0), rel=1e-15)

    def test_three_distinct_roots(self):
        # T3(x) = 0 at 0 and -+sqrt(3)/2, one on each monotone piece
        roots = roots_by_piece(0.0, *t3_window(0.0))
        assert roots == pytest.approx([-0.5 * SQRT3, 0.0, 0.5 * SQRT3], abs=1e-15)

    def test_window_keeps_only_its_roots(self):
        # monotone windows: one holding a root, one ending on a root, and one holding none
        assert solve_cubic(0.0, 0.6, 0.9) == pytest.approx([0.5 * SQRT3], abs=1e-15)
        assert solve_cubic(1.0, 0.5, 1.0) == [1.0]
        assert solve_cubic(0.0, 0.9, 1.5) == []

    def test_residuals_scale_with_root_size(self):
        for k in (0.3, -0.9, 26.5, 1e3, -1e12, 1e30):
            roots = roots_by_piece(k, *t3_window(k))
            assert roots, k
            for r in roots:
                assert abs(t3_residual(k, r)) <= 1e-9 * max(1.0, abs(r) ** 3), (k, r)

    def test_one_real_root_with_negative_depressed_p(self):
        # T3(x) = -40 is x^3 - (3/4)x + 10 = 0: two stationary points, one real root beyond both
        roots = roots_by_piece(-40.0, *t3_window(-40.0))
        assert len(roots) == 1
        r = roots[0]
        assert r < -0.5 and abs(4.0 * r**3 - 3.0 * r + 40.0) <= 1e-9 * abs(r) ** 3

    @given(st.floats(0.0, math.pi / 3.0))
    def test_recovers_constructed_roots(self, theta):
        # T3(cos a) = cos 3a, so cos(theta) and cos(theta -+ 2pi/3) all solve T3(x) = cos(3 theta)
        roots = sorted(math.cos(theta + j * math.tau / 3.0) for j in (-1, 0, 1))
        # a near-collision leaves no float with the right sign at the
        # stationary point between
        assume(roots[1] - roots[0] > 1e-3 and roots[2] - roots[1] > 1e-3)
        got = roots_by_piece(math.cos(3.0 * theta), *t3_window(1.0))
        assert len(got) == 3
        for a, b in zip(got, roots):
            assert abs(a - b) <= 1e-8

    @given(st.floats(1.0, 10.0), st.integers(-290, 32), st.sampled_from([1.0, -1.0]))
    def test_recovers_constructed_roots_at_any_scale(self, mantissa, exponent, sign):
        # the Cauchy window is ~1 wide for tiny roots and ~k/4 for huge
        # ones, so Newton from its secant point creeps toward the root by
        # a factor of about 2/3 a step
        x0 = sign * mantissa * 10.0**exponent
        # next to the stationary points a rounding of k moves the root by ~sqrt(ulp)
        assume(abs(abs(x0) - 0.5) > 1e-3)
        k = (4.0 * x0 * x0 - 3.0) * x0
        got = roots_by_piece(k, *t3_window(k))
        assert any(abs(x - x0) <= 1e-12 * abs(x0) for x in got), (x0, got)

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


def monotone(lo, hi):
    """T3 is monotone on [lo, hi]: neither zero of its slope, -1/2 or 1/2, lies strictly inside."""
    return not (lo < -0.5 < hi or lo < 0.5 < hi)


# One named case per branch of solve_cubic: (name, its arguments (k, lo,
# hi), check of the outcome, the line the branch runs as (its text, which
# occurrence)).  Each bracket is monotone.
PIECE_CASES = [
    ("root at the lower end", (1.0, -0.5, 0.5), lambda r: r == [-0.5], ("return [lo]", 0)),
    ("root at the upper end", (-1.0, 0.2, 0.5), lambda r: r == [0.5], ("return [hi]", 0)),
    ("end values of one sign", (0.5, 0.0, 0.26), lambda r: r == [], ("return []", 0)),
    # the fifth Newton step lands on a float where T3 - k rounds to exactly 0
    (
        "exact zero mid-bracket",
        (2066206264.0076056, 0.5, 1000.0),
        lambda r: r == [802.3639286375994] and t3_residual(2066206264.0076056, r[0]) == 0.0,
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
    # the secant point 1.82 lies far below the root 5.2, where T3 is flat
    # and its Newton step lands past 10
    (
        "split after a step out of the bracket",
        (548.9672289159056, 0.5, 10.0),
        lambda r: r == [5.206633327373439] and is_better_of_adjacent_pair(548.9672289159056, r[0]),
        ("x = _split(lo, hi)", 0),
    ),
    # from the secant point next to the stationary point -1/2, Newton
    # takes a long step and then one no shorter than half of it
    (
        "split after a slow step",
        (0.9952696412445595, -0.5, 0.5),
        lambda r: r == [-0.4716525234779932] and is_better_of_adjacent_pair(0.9952696412445595, r[0]),
        ("x = _split(lo, hi)", 1),
    ),
]


class TestNewtonPiece:
    """solve_cubic's bracketed Newton search: every line runs, and the stop rule holds."""

    CODE = solve_cubic.__code__

    @classmethod
    def line_of(cls, text, occurrence=0):
        """Line number of the ``occurrence``-th line of the solver reading ``text``."""
        source, first = inspect.getsourcelines(cls.CODE)
        return [first + i for i, line in enumerate(source) if line.strip() == text][occurrence]

    def evaluations(self, ran):
        return ran[self.line_of("f_x = (4.0 * x * x - 3.0) * x - k")]

    @pytest.mark.parametrize("name, args, check, branch", PIECE_CASES, ids=[case[0] for case in PIECE_CASES])
    def test_named_case_reaches_its_branch(self, name, args, check, branch):
        ran, outcome, _ = traced_lines(self.CODE, lambda: solve_cubic(*args))
        assert check(outcome), (name, outcome)
        assert ran[self.line_of(*branch)], name

    def test_named_cases_are_monotone_pieces(self):
        for name, (_, lo, hi), _, _ in PIECE_CASES:
            assert monotone(lo, hi), name

    def test_curve_windows_are_monotone_pieces(self):
        # T3' = 12x^2 - 3 is zero at -1/2 and 1/2, outside both windows
        assert [12.0 * x * x - 3.0 for x in (-0.5, 0.5)] == [0.0, 0.0]
        for lo, hi in (curve._LOW_WINDOW, curve._HIGH_WINDOW):
            assert monotone(lo, hi)

    def test_slope_is_nonzero_beside_its_zeros(self):
        # the solver divides by 12x^2 - 3 unguarded: as it rounds, the slope
        # is 0 only at -1/2 and 1/2 themselves, which no point strictly
        # inside a monotone bracket can be
        for zero in (-0.5, 0.5):
            for toward in (-math.inf, math.inf):
                x = zero
                for _ in range(64):
                    x = math.nextafter(x, toward)
                    assert 12.0 * x * x - 3.0 != 0.0, x

    def test_converged_steps_in_rounding_noise_are_kept(self):
        # at this k the last Newton steps are 1.5e-16 and then exactly half
        # that: rounding noise about the root, so no split follows
        k = -0.7014370866579387
        ran, roots, _ = traced_lines(self.CODE, lambda: solve_cubic(k, 0.7, 0.97))
        assert roots == [0.7089866748427832] and is_better_of_adjacent_pair(k, roots[0])
        assert self.evaluations(ran) <= 7

    def test_creeping_newton_splits_long_before_the_newton_points_run_out(self):
        # from 707 toward the root 1.098 Newton shrinks x by about 2/3 a
        # step; each such step is followed by a split at the geometric mean
        ran, roots, _ = traced_lines(self.CODE, lambda: solve_cubic(2.0, 0.5, 1e6))
        assert roots == [1.0979116727228235] and is_better_of_adjacent_pair(2.0, roots[0])
        assert ran[self.line_of("x = _split(lo, hi)", 1)] >= 3
        assert self.evaluations(ran) <= geom._NEWTON_POINTS // 2

    def test_newton_points_run_out_and_splitting_alone_ends_the_search(self):
        # close above the stationary point 1/2, T3 is flat and convex:
        # Newton from below the root overshoots a bracket end that sits
        # next to it, so the bracket closes by splits; past _NEWTON_POINTS
        # every point splits it
        k = -0.999074985432344
        ran, (x,), _ = traced_lines(self.CODE, lambda: solve_cubic(k, 0.5, 1e6))
        assert geom._NEWTON_POINTS < self.evaluations(ran) <= 98
        assert is_better_of_adjacent_pair(k, x)

    @pytest.mark.parametrize(
        "k, lo, hi",
        [
            (1e-300, -0.5, 0.5),
            (math.pi, 0.5, 1e100),
            (-1e300, -1e100, -0.5),
            (2.0, 0.5, 1e102),
        ],
    )
    def test_splitting_alone_closes_any_bracket_within_66_points(self, monkeypatch, k, lo, hi):
        # 1 split at 0, 12 halving the exponent range and 53 halving one
        # binade: the bound that ends the search loop
        monkeypatch.setattr(geom, "_NEWTON_POINTS", 1)
        ran, (x,), _ = traced_lines(self.CODE, lambda: solve_cubic(k, lo, hi))
        assert self.evaluations(ran) <= 1 + 66
        assert is_better_of_adjacent_pair(k, x)

    @pytest.mark.parametrize(
        "lo, hi, point",
        [
            (-1.0, 2.0, 0.0),  # straddling 0
            (1.0, 1.5, 1.25),  # within a factor 2: the midpoint
            (-1.5, -1.0, -1.25),
            (1e-10, 1e10, 1.0),  # the geometric mean
            (-1e10, -1e-10, -1.0),
            (0.0, 1e-300, math.sqrt(5e-324) * math.sqrt(1e-300)),  # 0 counts as the smallest subnormal
        ],
    )
    def test_split(self, lo, hi, point):
        assert geom._split(lo, hi) == pytest.approx(point, rel=1e-15)
        assert lo < geom._split(lo, hi) < hi

    def test_split_of_adjacent_floats_is_an_end(self):
        for lo in (0.0, 5e-324, 1.0, -2.0):
            hi = math.nextafter(lo, math.inf)
            assert geom._split(lo, hi) in (lo, hi)

    def test_every_line_is_reached_by_a_named_case(self):
        ran = Counter()
        for _, args, _, _ in PIECE_CASES:
            ran += traced_lines(self.CODE, lambda: solve_cubic(*args))[0]
        body = {line for _, _, line in self.CODE.co_lines() if line is not None and line != self.CODE.co_firstlineno}
        source = open(self.CODE.co_filename).read().splitlines()
        missed = {line: source[line - 1].strip() for line in sorted(body - set(ran))}
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
