"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failed assertion in any test is that criterion's fail line.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from trisectrix.construct import (
    complete_curve_construction,
    sweep_verify,
    trisect_via_curve,
    trisect_via_scudder,
    verify_trisection,
)
from trisectrix.curve import (
    T_MAX,
    implicit_value,
    intersect_ray,
    on_trace,
    trace_point,
)
from trisectrix.geom import Point, solve_cubic
from trisectrix.linkage import scudder_place, state_from_leg_angle

from helpers import angle_gap, direction, distance
from mirror_branch import mirror_hit

FULL_GRID_DEG = range(1, 270)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def test_criterion_01_curve_method_sweep():
    rep = sweep_verify(1.0, 269.0, 1.0, "curve", tol=1e-9)
    assert rep["count"] == 269
    assert rep["max_error_rad"] <= 1e-9
    assert rep["failures"] == ()
    _report(1, f"curve sweep 1..269 deg, max error {rep['max_error_rad']:.3e} rad, no failures")


def test_criterion_02_scudder_method_sweep():
    rep = sweep_verify(1.0, 269.0, 1.0, "scudder", tol=1e-7)
    assert rep["count"] == 269
    assert rep["max_error_rad"] <= 1e-7
    assert rep["failures"] == ()
    worst_iterations = max(
        scudder_place(math.radians(deg)).iterations for deg in FULL_GRID_DEG
    )
    assert worst_iterations <= 1
    _report(
        2,
        f"scudder sweep 1..269 deg, max error {rep['max_error_rad']:.3e} rad, "
        f"{worst_iterations} secant step per placement",
    )


def test_criterion_03_method_agreement():
    worst = 0.0
    for deg in FULL_GRID_DEG:
        phi = math.radians(deg)
        c_curve = trisect_via_curve(phi).C
        c_scudder = trisect_via_scudder(phi).C
        worst = max(worst, distance(c_curve, c_scudder))
    assert worst <= 1e-6
    _report(3, f"per-angle C agreement over full grid, worst gap {worst:.3e}")


def test_criterion_04_implicit_parametric_consistency():
    n = 10_000
    worst_f = worst_y = 0.0
    for i in range(n):
        t = 0.005 + (T_MAX - 0.005) * i / (n - 1)
        p = trace_point(t)
        worst_f = max(worst_f, abs(implicit_value(p)) / (1.0 + abs(p.x) ** 3))
        worst_y = max(worst_y, abs(p.y - (3.0 - 4.0 * math.sin(t) ** 2)))
    assert worst_f <= 1e-9
    assert worst_y <= 1e-12
    _report(4, f"10^4 samples: relative |F| <= {worst_f:.3e}, height formula to {worst_y:.3e}")


def test_criterion_05_node():
    assert implicit_value(Point(0.0, 2.0)) == 0.0
    p = trace_point(math.pi / 6)
    assert abs(p.x) <= 1e-12
    assert abs(p.y - 2.0) <= 1e-12
    _report(5, "node at (0, 2): F = 0 exactly; trace hits it at t = pi/6")


def test_criterion_06_asymptote():
    p = trace_point(0.01)
    assert abs(p.y - 3.0) <= 4.1e-4
    assert abs(p.x) >= 99.0
    _report(6, f"at t = 0.01: |y - 3| = {abs(p.y - 3.0):.3e}, |x| = {abs(p.x):.2f}")


def test_criterion_08_congruence_certificates():
    # verify_trisection certifies the placement's rays and witnesses; the
    # two congruence conditions it does not cover, |OC| = |OD| and the
    # leg perpendicular to the top, are reference residuals of the state
    worst = worst_isosceles = worst_perpendicular = 0.0
    for deg in (30.0, 90.0, 120.0, 180.0, 260.0, 270.0):
        phi = math.radians(deg)
        cert = verify_trisection(trisect_via_scudder(phi), 1e-9)
        assert cert.passed, (deg, cert.residuals)
        worst = max(worst, cert.worst()[1])
        st = scudder_place(phi).state
        isosceles = abs(math.hypot(st.C.x, st.C.y) - math.hypot(st.D.x, st.D.y))
        top_x, top_y = st.D.x - st.C.x, st.D.y - st.C.y
        leg_dot_top = st.E.x * top_x + st.E.y * top_y
        perpendicular = abs(leg_dot_top) / (math.hypot(st.E.x, st.E.y) * math.hypot(top_x, top_y))
        assert isosceles <= 1e-9 and perpendicular <= 1e-9, (deg, isosceles, perpendicular)
        worst_isosceles = max(worst_isosceles, isosceles)
        worst_perpendicular = max(worst_perpendicular, perpendicular)
    _report(
        8,
        f"placement trisections pass at all six angles, worst residual {worst:.3e}; "
        f"|OC| - |OD| <= {worst_isosceles:.3e}, leg.top <= {worst_perpendicular:.3e}",
    )


def test_criterion_09_spurious_branch_rejection():
    for deg in (30.0, 120.0):
        phi = math.radians(deg)
        _, t = intersect_ray(phi)
        assert on_trace(t, phi)
        mirror = mirror_hit(phi)
        mirror_d, mirror_t = mirror
        assert angle_gap(direction(mirror_d), phi) <= 1e-12
        assert abs(implicit_value(mirror_d)) <= 1e-12
        assert not on_trace(mirror_t, phi)
        forced = complete_curve_construction(phi, mirror)
        assert not verify_trisection(forced, 1e-9).passed
    _report(9, "mirror-branch candidates at 30 and 120 deg rejected by verification")


def _solver_picks_the_better_float(k: float, x: float) -> bool:
    """x zeroes T3(x) - k as the solver rounds it, or has the smaller |T3 - k| of two adjacent floats across a sign change.

    On a tie the lower float is the one the solver returns.
    """
    def f(v):
        return (4.0 * v * v - 3.0) * v - k

    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    f_x, f_below, f_above = f(x), f(below), f(above)
    return (
        f_x == 0.0
        or (f_below < 0.0) != (f_x < 0.0) and f_below != 0.0 and abs(f_x) < abs(f_below)
        or (f_above < 0.0) != (f_x < 0.0) and f_above != 0.0 and abs(f_x) <= abs(f_above)
    )


def test_criterion_10_cubic_solver_oracle():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20260810)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(10_000):
            k = rng.uniform(-math.sqrt(0.5), math.sqrt(0.5))
            # the roots of T3(x) = k are cos((acos k + 2 pi j) / 3): the low
            # window holds the middle one (for k <= 0), the high window the largest
            for (lo, hi), kk in (((0.0, 0.26), -abs(k)), ((0.7, 0.97), k)):
                (x,) = solve_cubic(kk, lo, hi)
                third = mpmath.acos(kk) / 3
                exact = mpmath.cos(2 * mpmath.pi / 3 - third) if lo == 0.0 else mpmath.cos(third)
                assert abs(4 * exact**3 - 3 * exact - kk) <= mpmath.mpf(10) ** -45
                assert _solver_picks_the_better_float(kk, x), (kk, x)
                worst = max(worst, float(abs(x - exact) / math.ulp(float(exact))))
    # the rounding of T3(x) - k can put the pair's sign change an ulp or so off the root
    assert worst <= 2.0
    _report(10, f"10^4 seeded k on both curve windows: each root the better of two adjacent floats, worst {worst:.2f} ulp from 50 digits")


def test_criterion_11_tangency_degeneracy():
    res = trisect_via_curve(1.5 * math.pi)
    _, t = intersect_ray(1.5 * math.pi)
    assert on_trace(t, 1.5 * math.pi)
    assert abs(res.C.x) <= 1e-9
    assert abs(res.C.y - 1.0) <= 1e-9
    assert angle_gap(res.ray1.angle, math.radians(90.0)) <= 1e-9
    assert angle_gap(res.ray2.angle, math.radians(180.0)) <= 1e-9
    _report(11, "270 deg: single tangency point C = (0, 1), rays at 90 and 180 deg")


def test_criterion_12_simulator_equivalence():
    n = 1000
    worst_d = worst_c = 0.0
    for i in range(n):
        u = 0.001 + (math.pi - 0.002) * i / (n - 1)
        st = state_from_leg_angle(u)
        worst_d = max(worst_d, distance(st.D, trace_point(u / 2.0)))
        worst_c = max(worst_c, abs(st.C.y - 1.0))
    assert worst_d <= 1e-9
    assert worst_c <= 1e-12
    _report(12, f"compass tip vs trace gap {worst_d:.3e}; guide pencil off-line by {worst_c:.3e}")


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "trisectrix", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return proc.returncode, proc.stdout


def test_criterion_13_cli_determinism_and_exit_codes():
    invocations = [
        ("curve", "--t-min-deg", "2", "--t-max-deg", "88", "--samples", "100"),
        ("curve", "--format", "svg", "--samples", "100"),
        ("trisect", "--angle-deg", "77"),
        ("trisect", "--angle-deg", "77", "--format", "svg"),
        ("simulate", "--u-min-deg", "5", "--u-max-deg", "175", "--steps", "60"),
        ("sweep", "--from-deg", "40", "--to-deg", "50", "--step-deg", "5", "--method", "both"),
    ]
    for args in invocations:
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first == second, args
        assert first[0] == 0

    # 90 and its near-node neighbours, a tiny angle, and the closure sliver
    for angle in ("90", "90.000001", "89.9999999", "1e-10", "269.99999"):
        code, out = _run_cli("trisect", "--angle-deg", angle)
        assert code == 0 and json.loads(out)["pass"] is True, angle
    code, out = _run_cli("trisect", "--angle-deg", "90", "--tol", "1e-18")
    assert code == 1 and json.loads(out)["pass"] is False
    code, _ = _run_cli("trisect", "--angle-deg", "271")
    assert code == 2
    code, _ = _run_cli("trisect")  # missing required flag
    assert code == 2
    _report(13, "byte-identical reruns; exit codes 0/1/2 follow the contract")
