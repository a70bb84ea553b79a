"""Command-line front end: curve sampling, trisection reports, compass
simulation, and full-range verification sweeps.

Angles are degrees at this boundary and radians everywhere below it.
CSV uses fixed-point columns at --precision decimals; JSON numbers carry
12 significant digits.  Identical invocations produce byte-identical
output (no timestamps, fixed ordering, atomic file writes).

Exit status: 0 on success/pass, 1 on verification failure, 2 on usage
or I/O error.
"""

from __future__ import annotations

import math
import os
import sys

from . import construct, curve, linkage
from .errors import BadRange, OutOfDomain, OutOfRange, TrisectrixError
from .geom import Point, Ray, grid_step
from .svg import (
    COLOR_ASYMPTOTE,
    COLOR_AXIS,
    COLOR_BASE_RAY,
    COLOR_CIRCLE,
    COLOR_GUIDE,
    COLOR_TRACE,
    COLOR_TRISECTOR,
    HEIGHT_PX,
    SCALE,
    STROKE_BOLD,
    STROKE_THIN,
    X_MAX,
    X_MIN,
    Y_MAX,
    Y_MIN,
    Scene,
    fixed_blocks,
)

_ORIGIN = Point(0.0, 0.0)

# Long enough to cross the default window from the origin at any angle.
_RAY_REACH = 12.0
_TRISECT_TRACE_SAMPLES = 600


# --- formatting ------------------------------------------------------------


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonify(value):
    """The payload with every float rounded to 12 significant digits and tuples as lists."""
    if isinstance(value, float):
        return _sig(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _to_json(payload: dict) -> str:
    import json  # only JSON output needs it; kept out of the CLI's start-up

    return json.dumps(_jsonify(payload), indent=2) + "\n"


def _point_pair(p: Point) -> list[float]:
    return [p.x, p.y]


def _point_screen_xy(points: list[Point]) -> list[float]:
    """Block flattener for trisect_svg's trace: svg.to_screen in line, x and y alternating, of each Point."""
    height = float(HEIGHT_PX)  # a float - float subtraction, which the interpreter specialises
    flat = []
    for p in points:
        flat.append((p.x - X_MIN) * SCALE)
        flat.append(height - (p.y - Y_MIN) * SCALE)
    return flat


def _trace_screen_xy(lo: float, step: float, block: range) -> list[float]:
    """Row loop for curve_svg's trace: screen x and y, alternating, at t = lo + i * step for each i of ``block``.

    curve._trace_xy and svg.to_screen in line, without _trace_xy's checks:
    _drawable_trace_grid makes them on the one point that can fail them.
    """
    sin, cos = math.sin, math.cos
    height = float(HEIGHT_PX)
    flat = []
    for i in block:
        t = lo + i * step
        st = sin(t)
        t3 = 3.0 * t
        flat.append((cos(t3) / st - X_MIN) * SCALE)
        flat.append(height - (sin(t3) / st - Y_MIN) * SCALE)
    return flat


def _grid_rows(loop, lo: float, hi: float, n: int):
    """The rows of the n-value grid from lo to hi as indices, range(n), and their block flattener: no list of values.

    The flattener runs ``loop(lo, step, block)``, which computes each row
    from its index as lo + i * step, as curve.sample_trace does.  A block
    that holds the last row gives it to ``loop`` as a grid of its own that
    starts at hi, so that row is exactly hi.
    """
    step = grid_step(lo, hi, n)

    def flatten(block: range) -> list[float]:
        if block.stop < n:
            return loop(lo, step, block)
        return loop(lo, step, block[:-1]) + loop(hi, step, range(1))

    return range(n), flatten


# --- content builders ------------------------------------------------------


def _csv(header: str, kernel, loop, lo_deg: float, hi_deg: float, n: int, precision: int) -> str:
    """The CSV document: ``header``, then a row per angle of the n-value degree grid from lo_deg to hi_deg.

    ``loop`` computes each block's rows from their grid indices
    (_grid_rows), with ``kernel`` in line and without its checks.  The
    caller's range check keeps the grid's top in the kernel's domain, the
    grid is monotone, and the kernel's point is farthest out at its
    smallest angle: only the first row can fail, and it goes through
    ``kernel`` first.
    """
    rows, flatten = _grid_rows(loop, lo_deg, hi_deg, n)
    kernel(math.radians(lo_deg))
    blocks = fixed_blocks(rows, flatten, header.count(",") + 1, precision, "\n")
    return "\n".join([header, *blocks, ""])


def _curve_rows(lo: float, step: float, block: range) -> list[float]:
    """Each row's degrees, lo + i * step, then curve._trace_xy of its radians."""
    sin, cos, radians = math.sin, math.cos, math.radians
    flat = []
    for i in block:
        deg = lo + i * step
        t = radians(deg)
        st = sin(t)
        t3 = 3.0 * t
        flat.append(deg)
        flat.append(cos(t3) / st)
        flat.append(sin(t3) / st)
    return flat


def _simulate_rows(lo: float, step: float, block: range) -> list[float]:
    """Each row's degrees, lo + i * step, then linkage._pencils of its radians."""
    sin, cos, radians = math.sin, math.cos, math.radians
    flat = []
    for i in block:
        deg = lo + i * step
        u = radians(deg)
        half = 0.5 * u
        s = cos(half) / sin(half)
        cu = cos(u)
        su = sin(u)
        ex = s * cu
        ey = s * su
        flat += (deg, s, ex + su, ey - cu, ex - su, ey + cu, ex, ey)
    return flat


def _check_t_range(t_min_deg: float, t_max_deg: float) -> None:
    if not 0.0 < t_min_deg < t_max_deg <= 90.0:
        raise BadRange(f"need 0 < t-min < t-max <= 90 degrees, got [{t_min_deg}, {t_max_deg}]")


def curve_csv(t_min_deg: float, t_max_deg: float, samples: int, precision: int) -> str:
    _check_t_range(t_min_deg, t_max_deg)
    return _csv("t_deg,x,y", curve._trace_xy, _curve_rows, t_min_deg, t_max_deg, samples, precision)


def simulate_csv(u_min_deg: float, u_max_deg: float, steps: int, precision: int) -> str:
    if not 0.0 < u_min_deg < u_max_deg < 180.0:
        raise BadRange(f"need 0 < u-min < u-max < 180 degrees, got [{u_min_deg}, {u_max_deg}]")
    return _csv(
        "u_deg,s,Cx,Cy,Dx,Dy,Ex,Ey", linkage._pencils, _simulate_rows, u_min_deg, u_max_deg, steps, precision
    )


def trisect_report(res: construct.TrisectionResult, tol: float) -> dict:
    cert = construct.verify_trisection(res, tol)
    # worst residual over the whole certificate keeps `pass` exactly
    # equivalent to `error_rad <= tolerance`
    return {
        "angle_deg": math.degrees(res.phi),
        "method": res.method,
        "ray1_deg": math.degrees(res.ray1.angle),
        "ray2_deg": math.degrees(res.ray2.angle),
        "error_rad": cert.worst()[1],
        "points": {
            "c": _point_pair(res.C),
            "d": _point_pair(res.D),
            "e": _point_pair(res.midpoint_e()),
        },
        "tolerance": tol,
        "pass": cert.passed,
    }


def _paint_axes(scene: Scene) -> None:
    scene.line(Point(X_MIN, 0.0), Point(X_MAX, 0.0), COLOR_AXIS, STROKE_THIN, cls="axis")
    scene.line(Point(0.0, Y_MIN), Point(0.0, Y_MAX), COLOR_AXIS, STROKE_THIN, cls="axis")


def _drawable_trace_grid(t_min_deg: float, t_max_deg: float, samples: int):
    """_grid_rows of the trace's radian grid over a checked degree range, refused where its first t fails a check.

    That t goes through curve._trace_xy's checks, and is refused if its
    screen x runs past the largest double.  |x(t)| = |cos 3t / sin t|
    falls from t = 0 to the node and stays below 1.2 after it, and y stays
    in [-1, 3]: no point lies farther out than the first, so it alone is
    checked.  _trace_screen_xy, which checks nothing, relies on that.
    """
    t_min = math.radians(t_min_deg)
    rows, flatten = _grid_rows(_trace_screen_xy, t_min, math.radians(t_max_deg), samples)
    curve._trace_xy(t_min)
    sx, sy = flatten(rows[:1])
    if not math.isfinite(sx):
        raise OutOfDomain(f"non-finite screen point ({sx}, {sy}) at t = {t_min}")
    return rows, flatten


def curve_svg(t_min_deg: float, t_max_deg: float, samples: int, precision: int) -> str:
    _check_t_range(t_min_deg, t_max_deg)
    scene = Scene(precision)
    _paint_axes(scene)
    scene.line(
        Point(X_MIN, 3.0), Point(X_MAX, 3.0), COLOR_ASYMPTOTE, STROKE_THIN, dashed=True, cls="asymptote"
    )
    scene.polyline(*_drawable_trace_grid(t_min_deg, t_max_deg, samples), COLOR_TRACE, STROKE_BOLD, cls="trace")
    scene.witness(Point(0.0, 2.0), "(0,2)", cls="node")
    return scene.to_svg()


def trisect_svg(res: construct.TrisectionResult, precision: int) -> str:
    scene = Scene(precision)
    _paint_axes(scene)
    scene.line(Point(X_MIN, 1.0), Point(X_MAX, 1.0), COLOR_GUIDE, STROKE_THIN, cls="guide")
    # perfbench/tracing.py counts the calls of curve.trace_point and
    # curve.sample_trace, and its render run reaches them only here, so this
    # trace keeps its Points until the benchmark stops tracing internals.
    scene.polyline(
        curve.sample_trace(curve.DEFAULT_SAMPLE_T_MIN, curve.T_MAX, _TRISECT_TRACE_SAMPLES),
        _point_screen_xy,
        COLOR_TRACE,
        STROKE_THIN,
        cls="trace",
    )
    base = Ray(0.0)
    target = Ray(res.phi)
    scene.line(_ORIGIN, base.point_at(_RAY_REACH), COLOR_BASE_RAY, cls="base-ray")
    scene.line(_ORIGIN, target.point_at(_RAY_REACH), COLOR_BASE_RAY, cls="base-ray")
    if res.method == construct.METHOD_CURVE:
        scene.circle(res.D, construct.TOP_LENGTH, COLOR_CIRCLE, cls="construction-circle")
    scene.line(_ORIGIN, res.ray1.point_at(_RAY_REACH), COLOR_TRISECTOR, cls="trisector")
    scene.line(_ORIGIN, res.ray2.point_at(_RAY_REACH), COLOR_TRISECTOR, cls="trisector")
    e = res.midpoint_e()
    for point, label in ((res.C, "C"), (res.D, "D"), (e, "E")):
        scene.witness(point, label, cls="witness")
    scene.text(_ORIGIN, "O", dx_px=-16.0, dy_px=16.0)
    scene.text(base.point_at(X_MAX - 0.8), "A")
    scene.text(target.point_at(3.3), "B")
    return scene.to_svg()


# --- output ----------------------------------------------------------------


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        if sys.stdout is None:  # the interpreter started with file descriptor 1 closed
            raise OSError("standard output is closed")
        sys.stdout.write(text)
        return
    # A fresh file beside the target, created with the mode open(path, "w")
    # would give, then renamed over it.
    tmp_name = f"{out_path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_name, out_path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# --- commands --------------------------------------------------------------


def _check_precision(precision: int) -> None:
    if not 1 <= precision <= 15:
        raise BadRange(f"precision must lie in [1, 15], got {precision}")


def _run_curve(args: argparse.Namespace) -> int:
    _check_precision(args.precision)
    if args.format == "csv":
        text = curve_csv(args.t_min_deg, args.t_max_deg, args.samples, args.precision)
    else:
        text = curve_svg(args.t_min_deg, args.t_max_deg, args.samples, args.precision)
    _emit(text, args.out)
    return 0


def _run_trisect(args: argparse.Namespace) -> int:
    _check_precision(args.precision)
    if not 0.0 < args.angle_deg <= 270.0:
        raise OutOfRange(f"angle must lie in (0, 270] degrees, got {args.angle_deg}")
    res = construct._METHOD_FNS[args.method](math.radians(args.angle_deg))
    payload = trisect_report(res, args.tol)
    if args.format == "json":
        _emit(_to_json(payload), args.out)
    else:
        _emit(trisect_svg(res, args.precision), args.out)
    return 0 if payload["pass"] else 1


def _run_simulate(args: argparse.Namespace) -> int:
    _check_precision(args.precision)
    _emit(simulate_csv(args.u_min_deg, args.u_max_deg, args.steps, args.precision), args.out)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    methods = list(construct.METHODS) if args.method == "both" else [args.method]
    reports = [
        construct.sweep_verify(args.from_deg, args.to_deg, args.step_deg, m, args.tol)
        for m in methods
    ]
    payload = reports[0] if len(reports) == 1 else {r["method"]: r for r in reports}
    _emit(_to_json(payload), args.out)
    return 0 if all(not r["failures"] for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only a main call needs it; kept out of the CLI's start-up

    parser = argparse.ArgumentParser(
        prog="trisectrix",
        description="Trace the carpenter's-square trisectrix and trisect angles with it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="sample the traced branch to CSV or draw it to SVG")
    p.add_argument("--t-min-deg", type=float, default=math.degrees(curve.DEFAULT_SAMPLE_T_MIN))
    p.add_argument("--t-max-deg", type=float, default=90.0)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(run=_run_curve)

    p = sub.add_parser("trisect", help="trisect an angle and report or draw the construction")
    p.add_argument("--angle-deg", type=float, required=True)
    p.add_argument("--method", choices=construct.METHODS, default=construct.METHOD_CURVE)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(run=_run_trisect)

    p = sub.add_parser("simulate", help="sweep the compass and emit linkage states as CSV")
    p.add_argument("--u-min-deg", type=float, required=True)
    p.add_argument("--u-max-deg", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(run=_run_simulate)

    p = sub.add_parser("sweep", help="verify trisection over an angle grid, report as JSON")
    p.add_argument("--from-deg", type=float, default=1.0)
    p.add_argument("--to-deg", type=float, default=269.0)
    p.add_argument("--step-deg", type=float, default=1.0)
    p.add_argument("--method", choices=(*construct.METHODS, "both"), default="both")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(run=_run_sweep)

    return parser


# Built by the first main call, not at import, and reused by later in-process calls.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except TrisectrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
