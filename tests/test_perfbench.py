"""Smoke test of the benchmark harness: one short `render` run must pass its own output oracle."""

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
