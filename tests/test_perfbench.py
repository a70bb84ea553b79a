"""Smoke tests of the benchmark harness: short runs must pass their own output oracle."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_render_run_is_correct():
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "render", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


# Failed ops of a lib_trisect run: the curve method's known windows (250
# tiny, 117 near 90 degrees, 174 below 270 degrees).  The placement fails
# none, so a change that brings its failures back fails this test.
LIB_TRISECT_MAX_FAILED = 541


def test_lib_trisect_failures_do_not_grow():
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib_trisect", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] <= LIB_TRISECT_MAX_FAILED
