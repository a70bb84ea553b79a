"""Smoke tests of the benchmark harness: short runs must pass their own output oracle."""

import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_traced_functions_resolve():
    # the traced runs cover only the spans their workload reaches; this
    # catches a deleted or renamed traced function in any layer, at once
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, (module, attr_path) in tracing.TRACED.items():
        obj = importlib.import_module(module)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), span


def test_public_names_resolve():
    import trisectrix

    assert [name for name in trisectrix.__all__ if not hasattr(trisectrix, name)] == []


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


# Failed ops of a lib_trisect run.  Neither method fails any, so a change
# that brings a failure back fails this test.
LIB_TRISECT_MAX_FAILED = 0


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
    # the benchmark's oracle still excuses some cells, so the cells are
    # checked here: lines "failed <method> <window> <kind> <n> ..."
    cells = Counter()
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "failed":
            cells[fields[1], fields[2]] += int(fields[4])
    assert cells == {}


def test_render_traced_run_reaches_every_layer():
    # render expects a span from every traced function, the curve solver
    # layers included (through `trisect --method curve --format svg`)
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "render", "--seed", "1", "--seconds", "2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True


def test_lib_trisect_traced_run_reaches_every_layer():
    # the traced run exits 1 if a traced function is no longer bound or
    # records no calls, so a refactor cannot route around a layer unseen
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib_trisect", "--seed", "1", "--seconds", "2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["linkage.state_from_leg_angle.calls_per_op"]["value"] == 1.0  # one state per placement
    assert metrics["linkage.scudder_place.iterations"]["value"] == 1.0
    # one cubic root and one membership test per ray query: the trace hit alone
    assert metrics["curve.intersect_ray.roots_per_call"]["value"] == 1.0
    assert metrics["curve.intersect_ray.on_trace_ratio"]["value"] == 1.0
