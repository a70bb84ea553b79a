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

from helpers import angle_gap, direction

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
    def test_two_point_case(self):
        xs = intersect_circle_line(0.0, 2.0, 2.0, 1.0)
        assert len(xs) == 2
        assert xs[0] == pytest.approx(-SQRT3, abs=1e-12)
        assert xs[1] == pytest.approx(SQRT3, abs=1e-12)
        for x in xs:  # both on the circle at y = 1
            assert math.hypot(x - 0.0, 1.0 - 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_tangency_collapses_to_one_point(self):
        xs = intersect_circle_line(0.0, -1.0, 2.0, 1.0)
        assert len(xs) == 1
        assert xs[0] == pytest.approx(0.0, abs=1e-12)
        assert math.hypot(xs[0] - 0.0, 1.0 - (-1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_miss_is_empty(self):
        assert intersect_circle_line(0.0, 5.0, 2.0, 1.0) == []

    def test_points_satisfy_both_equations(self):
        # each x with y = y0 is on the circle
        rng = random.Random(11)
        for _ in range(300):
            cx, cy = rng.uniform(-4, 4), rng.uniform(-4, 4)
            radius, y0 = rng.uniform(0.1, 5.0), rng.uniform(-4, 4)
            xs = intersect_circle_line(cx, cy, radius, y0)
            for x in xs:
                assert abs(math.hypot(x - cx, y0 - cy) - radius) <= 1e-9
            assert xs == sorted(xs)

    def test_translation_invariance(self):
        # moving circle and line by (dx, dy) moves each x by dx
        rng = random.Random(13)
        base = intersect_circle_line(0.5, 1.5, 2.0, 1.0)
        for _ in range(100):
            dx, dy = rng.uniform(-20, 20), rng.uniform(-20, 20)
            moved = intersect_circle_line(0.5 + dx, 1.5 + dy, 2.0, 1.0 + dy)
            assert len(moved) == len(base)
            for x, x_moved in zip(base, moved):
                assert abs(x_moved - (x + dx)) <= 1e-9


class TestAngles:
    def test_ray_points_keep_the_ray_angle(self):
        for angle in [i * math.tau / 37 - math.pi for i in range(37)]:
            r = Ray(angle)
            for d in (1e-3, 0.7, 5.0, 1e4):
                assert angle_gap(direction(r.point_at(d)), r.angle) <= 1e-12


def cauchy_window(c3, c2, c1, c0):
    """[-B, B] with Cauchy's bound B = 1 + max |c_i / c3|: it holds every real root."""
    bound = 1.0 + max(abs(c2), abs(c1), abs(c0)) / abs(c3)
    return -bound, bound


def slope_zeros(c3, c2, c1):
    """Real zeros of the slope 3*c3*x^2 + 2*c2*x + c1, by the stable quadratic formula."""
    a, b = 3.0 * c3, 2.0 * c2
    if not a:
        return [-c1 / b] if b else []
    disc = b * b - 4.0 * a * c1
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c1 / q] if q else [0.0]


def roots_by_piece(c3, c2, c1, c0, lo, hi):
    """solve_cubic on each monotone piece of [lo, hi], ascending.

    The pieces end at the slope's zeros inside [lo, hi]; a root at one
    ends two pieces and comes back from both.
    """
    ends = [lo, *sorted(x for x in slope_zeros(c3, c2, c1) if lo < x < hi), hi]
    return [x for a, b in zip(ends, ends[1:]) for x in solve_cubic(c3, c2, c1, c0, a, b)]


class TestSolveCubic:
    def test_single_real_root(self):
        # monotone over the whole window: the slope 3x^2 only touches 0, and 3x^2 + 1 never does
        assert solve_cubic(1.0, 0.0, 0.0, -1.0, *cauchy_window(1.0, 0.0, 0.0, -1.0)) == [1.0]
        assert solve_cubic(1.0, 0.0, 1.0, -2.0, *cauchy_window(1.0, 0.0, 1.0, -2.0)) == [1.0]

    def test_three_distinct_roots(self):
        roots = roots_by_piece(1.0, -6.0, 11.0, -6.0, *cauchy_window(1.0, -6.0, 11.0, -6.0))
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_window_keeps_only_its_roots(self):
        # (x - 1)(x - 2)(x - 3), monotone on each window: one holding a
        # root, one ending on a root, and one holding none
        assert solve_cubic(1.0, -6.0, 11.0, -6.0, 1.5, 2.5) == pytest.approx([2.0], abs=1e-15)
        assert solve_cubic(1.0, -6.0, 11.0, -6.0, 2.6, 3.0) == [3.0]
        assert solve_cubic(1.0, -6.0, 11.0, -6.0, 3.5, 10.0) == []

    def test_linear_and_constant_degradation(self):
        assert solve_cubic(0.0, 0.0, 2.0, -4.0, -10.0, 10.0) == [2.0]
        assert solve_cubic(0.0, 0.0, 0.0, 5.0, -10.0, 10.0) == []

    def test_residuals_scale_with_root_size(self):
        for coeffs in [(1.0, -6.0, 11.0, -6.0), (-1.0, 3.0, 0.0, -4.0), (2.0, -40.0, 0.0, 1000.0)]:
            c3, c2, c1, c0 = coeffs
            for r in roots_by_piece(c3, c2, c1, c0, *cauchy_window(*coeffs)):
                val = ((c3 * r + c2) * r + c1) * r + c0
                assert abs(val) <= 1e-9 * max(1.0, abs(r) ** 3)

    def test_tiny_leading_coefficient_keeps_all_roots(self):
        # the third root sits near 3/|c3|, far beyond the moderate pair
        for s in (3.35e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            for c3 in (-s, s):
                roots = roots_by_piece(c3, 3.0, 0.0, -4.0, *cauchy_window(c3, 3.0, 0.0, -4.0))
                assert len(roots) == 3, (c3, roots)
                for r in roots:
                    val = ((c3 * r + 3.0) * r) * r - 4.0
                    assert abs(val) <= 1e-9 * max(1.0, abs(r) ** 3), (c3, r)
                moderate = sorted(roots, key=abs)[:2]
                for r in moderate:
                    assert abs(abs(r) - 2.0 / SQRT3) <= 0.3 * s + 1e-9, (c3, r)

    def test_one_real_root_with_negative_depressed_p(self):
        # x^3 - 3x + 10: two stationary points, one real root beyond both
        roots = roots_by_piece(1.0, 0.0, -3.0, 10.0, *cauchy_window(1.0, 0.0, -3.0, 10.0))
        assert len(roots) == 1
        r = roots[0]
        assert abs(r ** 3 - 3.0 * r + 10.0) <= 1e-9

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3))
    def test_recovers_constructed_roots(self, roots):
        roots = sorted(roots)
        # a near-collision leaves no float with the right sign at the
        # stationary point between
        assume(roots[1] - roots[0] > 1e-3 and roots[2] - roots[1] > 1e-3)
        c2 = -(roots[0] + roots[1] + roots[2])
        c1 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        c0 = -roots[0] * roots[1] * roots[2]
        got = roots_by_piece(1.0, c2, c1, c0, *cauchy_window(1.0, c2, c1, c0))
        assert len(got) == 3
        for a, b in zip(got, roots):
            assert abs(a - b) <= 1e-8

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), st.integers(-100, 100))
    def test_recovers_constructed_roots_at_any_scale(self, unit_roots, exponent):
        # the Cauchy window is ~1 wide for tiny roots and ~scale^3 for huge
        # ones, so Newton from its secant point creeps toward the roots by
        # a factor of about 2/3 a step
        unit_roots = sorted(unit_roots)
        assume(unit_roots[1] - unit_roots[0] > 1e-3 and unit_roots[2] - unit_roots[1] > 1e-3)
        scale = 10.0**exponent
        roots = [scale * r for r in unit_roots]
        c2 = -(roots[0] + roots[1] + roots[2])
        c1 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        c0 = -roots[0] * roots[1] * roots[2]
        got = roots_by_piece(1.0, c2, c1, c0, *cauchy_window(1.0, c2, c1, c0))
        assert len(got) == 3
        for a, b in zip(got, roots):
            assert abs(a - b) <= 1e-8 * scale

    def test_tiny_constants_keep_their_roots(self):
        # the low curve window at tiny angles, c0 = sin(phi) down to the
        # smallest subnormal: the first point rounds onto the end 0 (for
        # 5e-324), and bisecting from 0.26 would need ~1,000 halvings
        for c0, root in ((1e-200, 3.3333333333333335e-201), (1.5e-300, 5e-301), (5e-324, 0.0)):
            assert solve_cubic(4.0, 0.0, -3.0, c0, 0.0, 0.26) == [root]
        assert verify_trisection(trisect_via_curve(PHI_MIN), 1e-9).passed


def cubic_value(coeffs, x):
    """The cubic at x, rounded as the solver rounds it."""
    c3, c2, c1, c0 = coeffs
    return ((c3 * x + c2) * x + c1) * x + c0


def is_better_of_adjacent_pair(coeffs, x):
    """x is a zero, or one of two adjacent floats across which the cubic changes sign, with the smaller |f|.

    On a tie in |f| the lower float is the one returned.
    """
    f_x = cubic_value(coeffs, x)
    if f_x == 0.0:
        return True
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    f_below, f_above = cubic_value(coeffs, below), cubic_value(coeffs, above)
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


_T3 = (4.0, 0.0, -3.0)  # T3(x) = 4x^3 - 3x, the curve's cubic without its constant
_CUBE = (1.0, -3.0, 3.0, -1.0)  # (x - 1)^3

# One named case per branch of solve_cubic: (name, its arguments, check of
# the outcome, the line the branch runs as (its text, which occurrence)).
# Each interval holds no zero of the cubic's slope strictly inside.
PIECE_CASES = [
    ("root at the lower end", (1.0, -6.0, 11.0, -6.0, 1.0, 1.4), lambda r: r == [1.0], ("return [lo]", 0)),
    ("root at the upper end", (1.0, -6.0, 11.0, -6.0, 2.6, 3.0), lambda r: r == [3.0], ("return [hi]", 0)),
    ("end values of one sign", (*_T3, -0.5, 0.0, 0.26), lambda r: r == [], ("return []", 0)),
    # the secant point of a line is its root, and f there is exactly 0
    ("exact zero mid-bracket", (0.0, 0.0, 2.0, -4.0, -10.0, 10.0), lambda r: r == [2.0], ("return [x]", 0)),
    # converged Newton steps that round back onto the end just set
    (
        "step onto the lower end",
        (*_T3, 0.25, 0.7, 0.97),
        lambda r: r == [0.8208917637264629] and is_better_of_adjacent_pair((*_T3, 0.25), r[0]),
        ("x = math.nextafter(lo, hi)", 0),
    ),
    (
        "step onto the upper end",
        (*_T3, -0.5, 0.7, 0.97),
        lambda r: r == [0.9396926207859084] and is_better_of_adjacent_pair((*_T3, -0.5), r[0]),
        ("x = math.nextafter(hi, lo)", 0),
    ),
    (
        "bracket closed to adjacent floats",
        (*_T3, -0.5, 0.7, 0.97),
        lambda r: r == [0.9396926207859084],
        ("return [lo if abs(f_lo) <= abs(f_hi) else hi]", 0),
    ),
    # from the secant point 0.5 the Newton step of x^3 - 2 lands at 3.0
    (
        "split after a step out of the bracket",
        (1.0, 0.0, 0.0, -2.0, 0.0, 2.0),
        lambda r: r == [2.0 ** (1.0 / 3.0)] and is_better_of_adjacent_pair((1.0, 0.0, 0.0, -2.0), r[0]),
        ("x = _split(lo, hi)", 0),
    ),
    # Newton creeps toward 1e-10 from 1 by a factor 2/3 a step
    (
        "split after a slow step",
        (1.0, 0.0, 0.0, -1e-30, 0.0, 2.0),
        lambda r: r == [1e-10] and is_better_of_adjacent_pair((1.0, 0.0, 0.0, -1e-30), r[0]),
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
        return ran[self.line_of("f_x = ((c3 * x + c2) * x + c1) * x + c0")]

    @pytest.mark.parametrize("name, args, check, branch", PIECE_CASES, ids=[case[0] for case in PIECE_CASES])
    def test_named_case_reaches_its_branch(self, name, args, check, branch):
        ran, outcome, _ = traced_lines(self.CODE, lambda: solve_cubic(*args))
        assert check(outcome), (name, outcome)
        assert ran[self.line_of(*branch)], name

    def test_named_cases_are_monotone_pieces(self):
        for name, (c3, c2, c1, _, lo, hi), _, _ in PIECE_CASES:
            assert not [x for x in slope_zeros(c3, c2, c1) if lo < x < hi], name

    def test_curve_windows_are_monotone_pieces(self):
        # T3' = 12x^2 - 3 is zero only at -1/2 and 1/2, outside both windows
        assert sorted(slope_zeros(*_T3)) == [-0.5, 0.5]
        for lo, hi in (curve._LOW_WINDOW, curve._HIGH_WINDOW):
            assert not [x for x in slope_zeros(*_T3) if lo < x < hi]

    def test_zero_slope_splits(self):
        # a near-double root in a window 6e-15 wide: the slope rounds to 0
        # there, and the step it would give is infinite
        lo, hi = -2.3934892758625543, -2.393489275862548
        coeffs = (1.0, 4.298552614053178, 3.3907064259273003, -2.798090073735238)
        ran, roots, slopes = traced_lines(self.CODE, lambda: solve_cubic(*coeffs, lo, hi), "slope")
        assert 0.0 in slopes
        assert ran[self.line_of("x = _split(lo, hi)", 1)]
        (x,) = roots
        assert lo <= x <= hi and is_better_of_adjacent_pair(coeffs, x)

    def test_converged_steps_in_rounding_noise_are_kept(self):
        # at this k the last Newton steps are 1.5e-16 and then exactly half
        # that: rounding noise about the root, so no split follows
        ran, roots, _ = traced_lines(self.CODE, lambda: solve_cubic(*_T3, 0.7014370866579387, 0.7, 0.97))
        assert roots == [0.7089866748427832] and is_better_of_adjacent_pair((*_T3, 0.7014370866579387), roots[0])
        assert self.evaluations(ran) <= 7

    def test_creeping_newton_splits_long_before_the_newton_points_run_out(self):
        # from 1 toward 1e-10 Newton shrinks x by about 2/3 a step; each
        # such step is followed by a split at the geometric mean
        ran, roots, _ = traced_lines(self.CODE, lambda: solve_cubic(1.0, 0.0, 0.0, -1e-30, 0.0, 2.0))
        assert roots == [1e-10]
        assert self.evaluations(ran) <= geom._NEWTON_POINTS // 2

    def test_a_triple_root_ends_by_splitting_alone(self):
        # Newton creeps at a triple root and its steps there are rounding
        # noise; past _NEWTON_POINTS every point splits the bracket
        # (x - 1)^3 is monotone on [0, 4]: its slope only touches 0 at the root
        ran, (x,), _ = traced_lines(self.CODE, lambda: solve_cubic(*_CUBE, 0.0, 4.0))
        assert self.evaluations(ran) > geom._NEWTON_POINTS
        assert abs(x - 1.0) <= 1e-5 and is_better_of_adjacent_pair(_CUBE, x)

    @pytest.mark.parametrize(
        "coeffs, lo, hi",
        [
            ((1.0, 0.0, 0.0, -1e-300), -1e300, 1e300),
            ((0.0, 0.0, 1.0, -1e-300), -sys.float_info.max, sys.float_info.max),
            ((0.0, 0.0, 1.0, -1.0), -sys.float_info.max, sys.float_info.max),
            ((0.0, 0.0, 1.0, -math.pi), 0.0, sys.float_info.max),
        ],
    )
    def test_splitting_alone_closes_any_bracket_within_66_points(self, monkeypatch, coeffs, lo, hi):
        # 1 split at 0, 12 halving the exponent range and 53 halving one
        # binade: the bound that ends the search loop
        monkeypatch.setattr(geom, "_NEWTON_POINTS", 1)
        ran, (x,), _ = traced_lines(self.CODE, lambda: solve_cubic(*coeffs, lo, hi))
        assert self.evaluations(ran) <= 1 + 66
        assert is_better_of_adjacent_pair(coeffs, x)

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
        coeffs = (*_T3, -k)
        (x,) = solve_cubic(*coeffs, *window)
        assert window[0] <= x <= window[1]
        assert is_better_of_adjacent_pair(coeffs, x), (k, window, x)
