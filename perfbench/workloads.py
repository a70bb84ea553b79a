"""Seeded inputs and op executors for the three workloads.

Each workload builds one *pass*: a fixed, seeded list of ops.  A run
repeats that pass in a closed loop (one client, one op at a time, no
threads) until its time is up, so every pass does identical work and its
outputs must repeat exactly.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from array import array

from oracle import document_ok, region, trisection_ok, trisection_ok_mp

LIB_ANGLES = 6000          # uniform angles per pass
LIB_WINDOW_ANGLES = 500    # angles per pass on each of the four conditioning windows' grid
RENDER_CURVE_SAMPLES = 4000
RENDER_SIMULATE_STEPS = 3000
CLI_TIMEOUT_S = 60.0
CLI_CURVE_SAMPLES = 512    # the CLI defaults, which cli_mix never overrides
CLI_SIMULATE_STEPS = 100
SWEEP_TO_DEG = 269.0
METHODS = ("curve", "scudder")
TOL = 1e-9


def _uniform_deg(rng) -> float:
    """Uniform in (0, 270]."""
    return 270.0 * (1.0 - rng.random())


def _window_phi(window: int, k: int) -> float:
    """Query angle ``k`` of ``LIB_WINDOW_ANGLES``, in radians, from one of the four conditioning windows.

    The windows are a fixed log-spaced grid, the same for every seed, so
    the known failures in them give the same failed-op count on every run.
    """
    frac = (k + 0.5) / LIB_WINDOW_ANGLES
    if window == 0:
        return 10.0 ** (-9.0 + 6.0 * frac)
    offset = 10.0 ** (-12.0 + 10.0 * frac)
    sign = 1.0 if (k // 2) % 2 == 0 else -1.0  # both signs reach both methods
    if window == 1:
        return math.radians(90.0 + sign * offset)
    if window == 2:
        return math.radians(180.0 + sign * offset)
    return math.radians(270.0 - offset)


class LibTrisect:
    """In-process trisection plus verification: the solver layers, no import or serialisation."""

    name = "lib_trisect"
    setup_module = "trisectrix"
    mode = "inprocess"
    expected_spans = (
        "construct.trisect_via_curve", "construct.trisect_via_scudder",
        "construct.complete_curve_construction", "construct.verify_trisection",
        "curve.intersect_ray", "curve.on_trace", "geom.solve_cubic", "geom.intersect_circle_line",
        "linkage.scudder_place", "linkage.state_from_leg_angle", "certificate.from_residuals",
    )

    def __init__(self, rng) -> None:
        strata = [[math.radians(_uniform_deg(rng)) for _ in range(LIB_ANGLES)]]
        strata += [[_window_phi(w, k) for k in range(LIB_WINDOW_ANGLES)] for w in range(4)]
        # Every angle runs the curve method, the CLI's default; every second
        # angle of each stratum also runs the placement.  At 1:1 the two
        # methods' latency modes would meet at p50 and make it jump.
        self.ops = [(m, phi) for stratum in strata for j, phi in enumerate(stratum)
                    for m in ((0, 1) if j % 2 == 0 else (0,))]
        rng.shuffle(self.ops)

    def run_pass(self, recorder=None):
        import trisectrix

        solvers = (trisectrix.trisect_via_curve, trisectrix.trisect_via_scudder)
        verify = trisectrix.verify_trisection
        clock = time.perf_counter_ns
        lat = array("q")
        outs = []
        for i, (m, phi) in enumerate(self.ops):
            if recorder is not None:
                recorder.op = i
            t0 = clock()
            try:
                res = solvers[m](phi)
                out = (verify(res, TOL).passed, res.ray1.angle, res.ray2.angle, res.D.x, res.D.y)
            except Exception as exc:  # any exception is a failed op, recorded by type
                out = type(exc).__name__
            lat.append(clock() - t0)
            outs.append(out)
        return lat, outs

    def check(self, outs):
        """One verdict per op: None when correct, else (method, region, kind).

        Every op is checked in double precision and at 50 digits, so the
        verdicts do not depend on which ops a seed would sample.
        """
        verdicts = []
        for (m, phi), out in zip(self.ops, outs):
            method = METHODS[m]
            if isinstance(out, str):
                kind = out
            elif not out[0]:
                kind = "certificate"
            elif not trisection_ok(phi, *out[1:]) or not trisection_ok_mp(phi, *out[1:]):
                kind = "oracle"
            else:
                kind = None
            verdicts.append(None if kind is None else (method, region(phi), kind))
        return verdicts


def _cli_mix_pass(rng) -> list[dict]:
    """One of each CLI invocation kind at default sizes, with seeded angles and ranges."""
    ops = []
    for fmt in ("json", "svg"):
        for method in METHODS:
            angle = _uniform_deg(rng)
            argv = ["trisect", "--angle-deg", repr(angle), "--method", method]
            if fmt == "svg":
                argv += ["--format", "svg"]
            ops.append({"kind": f"trisect_{fmt}", "argv": argv, "angle_deg": angle})
    for fmt in ("csv", "svg"):
        t_range = ["--t-min-deg", repr(rng.uniform(0.3, 5.0)), "--t-max-deg", repr(rng.uniform(60.0, 90.0))]
        ops.append({"kind": f"curve_{fmt}", "argv": ["curve", "--format", fmt, *t_range], "rows": CLI_CURVE_SAMPLES})
    u_range = ["--u-min-deg", repr(rng.uniform(1.0, 10.0)), "--u-max-deg", repr(rng.uniform(150.0, 179.0))]
    ops.append({"kind": "simulate_csv", "argv": ["simulate", *u_range], "rows": CLI_SIMULATE_STEPS})
    start = rng.uniform(1.0, 2.0)
    ops.append({"kind": "sweep", "argv": ["sweep", "--from-deg", repr(start)],
                "rows": math.floor(SWEEP_TO_DEG - start + 1e-9) + 1})
    return ops


def _render_pass(rng) -> list[dict]:
    """Large documents, two of each kind, written through ``cli.main(..., "--out", path)``."""
    ops = []
    for _ in range(2):
        for fmt in ("svg", "csv"):
            argv = ["curve", "--format", fmt, "--samples", str(RENDER_CURVE_SAMPLES),
                    "--t-min-deg", repr(rng.uniform(0.3, 5.0)), "--t-max-deg", repr(rng.uniform(60.0, 90.0))]
            ops.append({"kind": f"curve_{fmt}", "argv": argv, "rows": RENDER_CURVE_SAMPLES})
        argv = ["simulate", "--steps", str(RENDER_SIMULATE_STEPS),
                "--u-min-deg", repr(rng.uniform(1.0, 10.0)), "--u-max-deg", repr(rng.uniform(150.0, 179.0))]
        ops.append({"kind": "simulate_csv", "argv": argv, "rows": RENDER_SIMULATE_STEPS})
        for method in METHODS:
            argv = ["trisect", "--angle-deg", repr(_uniform_deg(rng)), "--method", method, "--format", "svg"]
            ops.append({"kind": "trisect_svg", "argv": argv})
    return ops


class _Documents:
    """Shared executor for workloads whose ops are CLI argument vectors."""

    expected_spans = None  # every traced function

    def __init__(self, ops, out_dir) -> None:
        self.ops = ops
        self.out_dir = out_dir
        self.mode = "inprocess"

    def _run_inprocess(self, i, argv):
        from trisectrix import cli

        path = os.path.join(self.out_dir, f"{self.name}-{i}.out")
        if os.path.exists(path):
            os.unlink(path)  # a failed op must not leave the previous pass's document to be checked
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv + ["--out", path])
        except Exception as exc:  # an escaped exception is a failed op, as a traceback from the CLI would be
            return time.perf_counter_ns() - t0, -1, repr(exc)
        elapsed = time.perf_counter_ns() - t0
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            text = ""
        return elapsed, code, text

    def _run_subprocess(self, argv, extra_flags=()):
        cmd = [sys.executable, *extra_flags, "-m", "trisectrix", *argv]
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.out_dir, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter_ns() - t0, -1, ""
        return time.perf_counter_ns() - t0, proc.returncode, proc.stdout.decode("utf-8", "replace")

    def run_pass(self, recorder=None, extra_flags=()):
        lat = array("q")
        outs = []
        for i, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op = i
            if self.mode == "subprocess":
                elapsed, code, text = self._run_subprocess(op["argv"], extra_flags)
            else:
                elapsed, code, text = self._run_inprocess(i, op["argv"])
            lat.append(elapsed)
            outs.append((code, text))
        return lat, outs

    def check(self, outs):
        return [None if document_ok(op, code, text) else (op["argv"][0], op["kind"], f"exit {code}")
                for op, (code, text) in zip(self.ops, outs)]


class CliMix(_Documents):
    """`python -m trisectrix ...` as a subprocess: interpreter start and import dominate."""

    name = "cli_mix"
    setup_module = "trisectrix.cli"

    def __init__(self, rng, out_dir, env) -> None:
        super().__init__(_cli_mix_pass(rng), out_dir)
        self.env = env
        self.mode = "subprocess"


class Render(_Documents):
    """Large SVG and CSV documents in-process: forward geometry plus serialisation."""

    name = "render"
    setup_module = "trisectrix.cli"

    def __init__(self, rng, out_dir) -> None:
        super().__init__(_render_pass(rng), out_dir)
