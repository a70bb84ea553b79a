"""Output checks that do not rely on the program's own certificate.

Every check runs outside the timed region.  A failed op is any exception,
refusal, non-zero exit, failed certificate or oracle mismatch; the
benchmark counts each one and never drops its input from the draw.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import mpmath

TOL_RAD = 1e-9  # the CLI's default --tol, applied to angles and, relatively, to |OD|
MP_DIGITS = 50

# Failures measured at the commit that added this benchmark, by (method,
# region of the query angle).  A failure outside these cells is a new
# defect: the run then reports correct = false.
KNOWN_FAILURE_CELLS = frozenset({
    ("curve", "tiny"),       # OutOfRange below phi = 1e-6 rad
    ("curve", "near90"),     # NoTraceRoot at 90 deg +- ~6e-8..1e-5 deg
    ("curve", "below270"),   # certificate misses (and rare NoTraceRoot) just below 270 deg
    ("scudder", "tiny"),     # certificate passes but |OD| is off by up to 33% (relative)
    ("scudder", "below270"),  # certificate misses near 270 deg
})


def region(phi: float) -> str:
    """Conditioning region of a query angle in radians."""
    deg = math.degrees(phi)
    if phi < 1e-3:
        return "tiny"
    if abs(deg - 90.0) <= 0.01:
        return "near90"
    if abs(deg - 180.0) <= 0.01:
        return "near180"
    if 270.0 - deg <= 0.01:
        return "below270"
    return "bulk"


def _angle_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, math.tau))


def trisection_ok(phi: float, ray1: float, ray2: float, dx: float, dy: float) -> bool:
    """Rays at phi/3 and 2 phi/3 and |OD| = csc(phi/3), in double precision."""
    csc = 1.0 / math.sin(phi / 3.0)
    return (
        _angle_gap(ray1, phi / 3.0) <= TOL_RAD
        and _angle_gap(ray2, 2.0 * phi / 3.0) <= TOL_RAD
        and abs(math.hypot(dx, dy) - csc) <= TOL_RAD * csc
    )


def trisection_ok_mp(phi: float, ray1: float, ray2: float, dx: float, dy: float) -> bool:
    """The same checks at 50 significant digits, from the exact binary inputs."""
    with mpmath.workdps(MP_DIGITS):
        p = mpmath.mpf(phi)
        tau = 2 * mpmath.pi

        def gap(a, b):
            d = (mpmath.mpf(a) - b) % tau
            return min(d, tau - d)

        csc = mpmath.csc(p / 3)
        return bool(
            gap(ray1, p / 3) <= TOL_RAD
            and gap(ray2, 2 * p / 3) <= TOL_RAD
            and abs(mpmath.hypot(mpmath.mpf(dx), mpmath.mpf(dy)) - csc) <= TOL_RAD * csc
        )


def _csv_rows_ok(text: str, rows: int, header: str) -> bool:
    lines = text.splitlines()
    return len(lines) == rows + 1 and lines[0] == header and all(
        len(line.split(",")) == len(lines[0].split(",")) for line in lines[1:]
    )


def _svg_ok(text: str) -> bool:
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError:
        return False
    return root.tag == "{http://www.w3.org/2000/svg}svg"


def document_ok(spec: dict, code: int, text: str) -> bool:
    """Check one CLI document against what its invocation asked for.

    ``spec`` names the subcommand and format plus the parameters the check
    needs (angle, sample count, grid size); ``code`` is the exit status.
    """
    if code != 0:
        return False
    kind = spec["kind"]
    if kind == "trisect_json":
        try:
            report = json.loads(text)
            angle = spec["angle_deg"]
            return (
                report["pass"] is True
                and abs(report["ray1_deg"] - angle / 3.0) <= math.degrees(TOL_RAD)
                and abs(report["ray2_deg"] - 2.0 * angle / 3.0) <= math.degrees(TOL_RAD)
            )
        except (ValueError, KeyError, TypeError):  # malformed JSON or a missing field
            return False
    if kind in ("trisect_svg", "curve_svg"):
        return _svg_ok(text)
    if kind == "curve_csv":
        return _csv_rows_ok(text, spec["rows"], "t_deg,x,y")
    if kind == "simulate_csv":
        return _csv_rows_ok(text, spec["rows"], "u_deg,s,Cx,Cy,Dx,Dy,Ex,Ey")
    if kind == "sweep":
        try:
            report = json.loads(text)
            return all(report[m]["count"] == spec["rows"] and not report[m]["failures"] for m in ("curve", "scudder"))
        except (ValueError, KeyError, TypeError):
            return False
    raise ValueError(f"unknown document kind {kind!r}")
