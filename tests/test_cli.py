"""CLI tests: golden rows, report shapes, SVG structure, determinism, exit codes."""

import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from xml.etree import ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

from trisectrix import cli
from trisectrix.cli import curve_csv, curve_svg, simulate_csv
from trisectrix.curve import _trace_xy, sample_trace, trace_point
from trisectrix.errors import OutOfDomain, TrisectrixError
from trisectrix.geom import Point, uniform_grid
from trisectrix.linkage import _pencils
from trisectrix.svg import BLOCK_ROWS, SCALE, X_MIN, Y_MAX, Scene, fixed_field, to_screen

SVG_NS = "{http://www.w3.org/2000/svg}"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A runaway grid loop fails its test under these limits instead of hanging
# the suite or exhausting the machine's memory.
_CLI_TIMEOUT_S = 60
_CLI_MEMORY_BYTES = 512 * 2**20


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_CLI_MEMORY_BYTES, _CLI_MEMORY_BYTES))


def run_cli(*args, umask=-1):
    proc = subprocess.run(
        [sys.executable, "-m", "trisectrix", *args],
        capture_output=True,
        text=True,
        timeout=_CLI_TIMEOUT_S,
        preexec_fn=_cap_memory,
        umask=umask,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCurveCommand:
    def test_csv_golden_rows(self):
        code, out, _ = run_cli("curve", "--t-min-deg", "10", "--t-max-deg", "90", "--samples", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t_deg,x,y"
        assert lines[1] == "10.000000,4.987242,2.879385"
        assert lines[2] == "50.000000,-1.130516,0.652704"
        assert lines[3] == "90.000000,0.000000,-1.000000"
        assert len(lines) == 4
        assert not out.endswith(",")

    def test_csv_round_trip_to_emitted_precision(self):
        code, out, _ = run_cli(
            "curve", "--t-min-deg", "5", "--t-max-deg", "85", "--samples", "17", "--precision", "9"
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            t_deg, x, y = (float(v) for v in line.split(","))
            p = trace_point(math.radians(t_deg))
            assert abs(x - p.x) <= 0.5e-9 + 1e-12
            assert abs(y - p.y) <= 0.5e-9 + 1e-12

    def test_degenerate_range_is_usage_error(self):
        code, _, err = run_cli("curve", "--t-min-deg", "30", "--t-max-deg", "30", "--samples", "2")
        assert code == 2
        assert "error" in err

    def test_svg_structure(self):
        code, out, _ = run_cli("curve", "--format", "svg", "--samples", "200")
        assert code == 0
        root = ET.fromstring(out)  # well-formed XML or this raises
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 1
        assert polylines[0].get("class") == "trace"
        assert len(root.findall(f"{SVG_NS}circle")) == 0
        dashed = [el for el in root.iter(f"{SVG_NS}line") if el.get("stroke-dasharray")]
        assert len(dashed) == 1  # the asymptote


class TestTrisectCommand:
    def test_report_fields_and_values(self):
        code, out, _ = run_cli("trisect", "--angle-deg", "90")
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "angle_deg",
            "method",
            "ray1_deg",
            "ray2_deg",
            "error_rad",
            "points",
            "tolerance",
            "pass",
        ]
        assert report["method"] == "curve"
        assert report["ray1_deg"] == 30.0
        assert report["ray2_deg"] == 60.0
        assert report["pass"] is True
        assert set(report["points"]) == {"c", "d", "e"}
        assert report["points"]["c"][0] == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_tangency_report(self):
        code, out, _ = run_cli("trisect", "--angle-deg", "270")
        assert code == 0
        report = json.loads(out)
        assert report["ray1_deg"] == 90.0
        assert report["ray2_deg"] == 180.0
        assert report["pass"] is True

    def test_scudder_report(self):
        code, out, _ = run_cli("trisect", "--angle-deg", "120", "--method", "scudder")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "scudder"
        assert report["ray1_deg"] == pytest.approx(40.0, abs=1e-7)

    @pytest.mark.parametrize("angle, ray1_deg", [("270", 90.0), ("1e-12", 1e-12 / 3.0)])
    def test_scudder_passes_at_both_ends_of_the_domain(self, angle, ray1_deg):
        code, out, _ = run_cli("trisect", "--angle-deg", angle, "--method", "scudder")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["ray1_deg"] == pytest.approx(ray1_deg, rel=1e-9)

    def test_out_of_range_is_usage_error(self):
        code, _, err = run_cli("trisect", "--angle-deg", "271")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("method", ["curve", "scudder"])
    def test_angle_below_the_shared_limit_is_usage_error(self, method):
        # 1e-320 degrees is a positive double, below either method's reach
        code, out, err = run_cli("trisect", "--angle-deg", "1e-320", "--method", method)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_impossible_tolerance_is_verification_failure(self):
        code, out, _ = run_cli("trisect", "--angle-deg", "90", "--tol", "1e-18")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_svg_structure_curve_method(self):
        code, out, _ = run_cli("trisect", "--angle-deg", "90", "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert len(root.findall(f"{SVG_NS}polyline")) == 1
        assert len(root.findall(f"{SVG_NS}circle")) == 1
        trisectors = [el for el in root.iter(f"{SVG_NS}line") if el.get("class") == "trisector"]
        assert len(trisectors) == 2
        labels = {el.text for el in root.iter(f"{SVG_NS}text")}
        assert {"O", "A", "B", "C", "D", "E"} <= labels

    def test_svg_structure_scudder_method(self):
        code, out, _ = run_cli("trisect", "--angle-deg", "90", "--format", "svg", "--method", "scudder")
        assert code == 0
        root = ET.fromstring(out)
        assert len(root.findall(f"{SVG_NS}circle")) == 0
        assert len(root.findall(f"{SVG_NS}polyline")) == 1


class TestOffCanvasShapes:
    """A witness or construction circle far outside the canvas is not drawn."""

    @pytest.mark.parametrize("method", ["curve", "scudder"])
    @pytest.mark.parametrize("angle", ["1e-298", "1e-9", "10"])
    def test_no_coordinate_runs_far_off_canvas(self, angle, method):
        # D lies up to ~1.7e300 units out; the trace polyline reaches ~2.03e4 px
        code, out, _ = run_cli("trisect", "--angle-deg", angle, "--method", method, "--format", "svg")
        assert code == 0
        numbers = re.findall(r"(?<![#\w.])-?\d+(?:\.\d+)?", out)  # not the #rrggbb colours
        assert max(abs(float(v)) for v in numbers) <= 1e5

    def _witness_shapes(self, p):
        scene = Scene(6)
        scene.witness(p, "D", cls="witness")
        root = ET.fromstring(scene.to_svg())
        return len(root.findall(f"{SVG_NS}path")), len(root.findall(f"{SVG_NS}text"))

    def test_a_witness_one_pixel_off_an_edge_keeps_its_marker(self):
        one_px = 1.0 / SCALE
        # left of the left edge: the label, starting 6 px right, is drawn too
        assert self._witness_shapes(Point(X_MIN - one_px, 1.0)) == (1, 1)
        # above the top edge: the label, 6 px higher still, is not
        assert self._witness_shapes(Point(0.0, Y_MAX + one_px)) == (1, 0)

    def test_each_shape_is_kept_by_its_own_extent(self):
        # the cross reaches 5 px, the label starts 6 px to the right
        assert self._witness_shapes(Point(X_MIN - 5.5 / SCALE, 1.0)) == (0, 1)
        assert self._witness_shapes(Point(X_MIN - 1e3, 1.0)) == (0, 0)


class TestSimulateCommand:
    def test_golden_rows(self):
        code, out, _ = run_cli("simulate", "--u-min-deg", "60", "--u-max-deg", "90", "--steps", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u_deg,s,Cx,Cy,Dx,Dy,Ex,Ey"
        assert lines[1] == "60.000000,1.732051,1.732051,1.000000,0.000000,2.000000,0.866025,1.500000"
        assert lines[2] == "90.000000,1.000000,1.000000,1.000000,-1.000000,1.000000,0.000000,1.000000"

    def test_guide_pencil_stays_on_the_line(self):
        code, out, _ = run_cli(
            "simulate", "--u-min-deg", "1", "--u-max-deg", "179", "--steps", "1000",
            "--precision", "14",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            cy = float(line.split(",")[3])
            assert abs(cy - 1.0) <= 1e-12

    def test_bad_range_is_usage_error(self):
        code, _, _ = run_cli("simulate", "--u-min-deg", "60", "--u-max-deg", "60", "--steps", "2")
        assert code == 2

    def test_largest_double_below_the_upper_limit(self):
        # 179.99999999999997 degrees is the last leg below pi radians
        code, out, err = run_cli("simulate", "--u-min-deg", "1", "--u-max-deg", "179.99999999999997", "--steps", "3")
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "180.000000,0.000000,0.000000,1.000000,0.000000,-1.000000,0.000000,0.000000"


SWEEP_KEYS = [
    "phi_min_deg",
    "phi_max_deg",
    "step_deg",
    "method",
    "count",
    "max_error_rad",
    "mean_error_rad",
    "argmax_phi_deg",
    "failures",
]


class TestSweepCommand:
    def test_single_method_report(self):
        code, out, _ = run_cli(
            "sweep", "--from-deg", "1", "--to-deg", "30", "--step-deg", "1", "--method", "curve"
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == SWEEP_KEYS
        assert report["method"] == "curve"
        assert report["count"] == 30
        assert report["max_error_rad"] <= 1e-9
        assert report["failures"] == []

    def test_both_methods_in_one_report(self):
        code, out, _ = run_cli(
            "sweep", "--from-deg", "10", "--to-deg", "12", "--step-deg", "1", "--method", "both"
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["curve", "scudder"]
        assert all(list(r) == SWEEP_KEYS for r in report.values())
        assert report["scudder"]["max_error_rad"] <= 1e-7

    def test_step_below_the_float_spacing_gives_one_angle(self):
        # the grid is counted, so a step that cannot move the angle still ends
        code, out, err = run_cli(
            "sweep", "--from-deg", "1", "--to-deg", "1", "--step-deg", "1e-300", "--method", "scudder"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 1

    def test_each_representable_angle_is_evaluated_once(self):
        # a step between half and one float spacing: 1 + step and 1 + 2*step
        # both round to the float after 1, so the grid names three angles, not four
        code, out, err = run_cli(
            "sweep", "--from-deg", "1", "--to-deg", "1.0000000000000004", "--step-deg", "1.4802973661668753e-16",
            "--method", "scudder",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["count"] == 3
        assert report["failures"] == []

    @pytest.mark.parametrize("method", ["curve", "scudder"])
    def test_last_angle_is_clamped_to_the_upper_end(self, method):
        # 1 + 269.0000000345 lies past 270 degrees, where the query is out of range
        code, out, err = run_cli(
            "sweep", "--from-deg", "1", "--to-deg", "269.9999999", "--step-deg", "269.0000000345", "--method", method
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["count"] == 2
        assert report["failures"] == []

    def test_bad_range_is_usage_error(self):
        code, _, _ = run_cli("sweep", "--from-deg", "0", "--to-deg", "30", "--step-deg", "1")
        assert code == 2

    def test_impossible_tolerance_is_verification_failure(self):
        code, out, err = run_cli(
            "sweep", "--method", "scudder", "--from-deg", "1", "--to-deg", "3", "--step-deg", "1",
            "--tol", "1e-300",
        )
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["count"] == 3
        assert report["failures"] == [1.0, 2.0, 3.0]


class TestGridSizeBound:
    @pytest.mark.parametrize(
        "args",
        [
            ("sweep", "--step-deg", "1e-9"),
            ("curve", "--samples", "100000000"),
            ("simulate", "--u-min-deg", "1", "--u-max-deg", "179", "--steps", "100000000"),
        ],
    )
    def test_oversized_grid_is_usage_error_with_one_line_message(self, args):
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("curve", "--t-min-deg", "1", "--t-max-deg", "89", "--samples", "50"),
            ("curve", "--format", "svg", "--samples", "64"),
            ("trisect", "--angle-deg", "137.5"),
            ("trisect", "--angle-deg", "137.5", "--format", "svg"),
            ("simulate", "--u-min-deg", "10", "--u-max-deg", "170", "--steps", "40"),
            ("sweep", "--from-deg", "5", "--to-deg", "15", "--step-deg", "5"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[1]  # produced something

    def test_file_output_matches_stdout(self, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, stdout, _ = run_cli("curve", "--samples", "20")
        assert code == 0
        code2, _, _ = run_cli("curve", "--samples", "20", "--out", str(out_file))
        assert code2 == 0
        assert out_file.read_text() == stdout

    def test_dash_out_writes_to_stdout(self, tmp_path, capsys, monkeypatch):
        from trisectrix import cli

        monkeypatch.chdir(tmp_path)
        assert cli.main(["curve", "--samples", "20"]) == 0
        stdout = capsys.readouterr().out
        assert cli.main(["curve", "--samples", "20", "--out", "-"]) == 0
        assert capsys.readouterr().out == stdout
        assert list(tmp_path.iterdir()) == []  # no file named "-", and no temp file


class TestInProcessMain:
    def test_repeated_calls_match_the_subprocess(self, capsys, monkeypatch):
        # one parser serves every call, a usage error included
        from trisectrix import cli

        builds = []

        def counting_build():
            builds.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        calls = [
            ("trisect", "--angle-deg", "137.5"),
            ("trisect", "--angle-deg", "137.5", "--bogus"),
            ("curve", "--samples", "5", "--format", "svg"),
            ("trisect", "--angle-deg", "0"),
            ("sweep", "--from-deg", "5", "--to-deg", "15", "--step-deg", "5"),
            ("trisect", "--angle-deg", "137.5"),
        ]
        for args in calls:
            code = cli.main(list(args))
            out, err = capsys.readouterr()
            assert (code, out, err) == run_cli(*args), args
        assert builds == [1]


class TestSvgBytes:
    """The SVG documents are pinned by the sha256 of their bytes."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("curve", "--format", "svg", "--samples", "64"),
                "69cd829bdabc0cad5fbbdf9314713a3bb2f7ebdaab8a7e8366ec01c7910e06e1",
            ),
            (
                ("trisect", "--angle-deg", "137.5", "--format", "svg"),
                "ed074cfba5bf33980149900bf8ce17fb58ba9ca49ae24bce9e2c611f98fa71f3",
            ),
            (
                ("trisect", "--angle-deg", "137.5", "--format", "svg", "--method", "scudder"),
                "39726e1e4cdd5514dd7cea795f4a7339d1020bd33a8970e5b7af3c8b70578aac",
            ),
            (
                ("trisect", "--angle-deg", "1e-9", "--format", "svg", "--precision", "15"),
                "86d9a0cf087e15fe40aa3777e6ed54c3a96be0bea02936b1001009f1950e6beb",
            ),
            (
                ("trisect", "--angle-deg", "1e-298", "--format", "svg"),
                "1ce131b0a8e3602abeca473a7a8d8493116c4f1871519bfa08dd0c8419e0da9e",
            ),
            (
                ("trisect", "--angle-deg", "270", "--format", "svg", "--method", "scudder"),
                "ed4f1692ba6ef3f07382e586b32b91d741f9d9dcc8067ae888d590010bb95796",
            ),
        ],
        ids=[
            "curve-64",
            "trisect-137.5-curve",
            "trisect-137.5-scudder",
            "trisect-1e-9-p15",
            "trisect-1e-298",
            "trisect-270-scudder",
        ],
    )
    def test_document_digest(self, args, digest):
        code, out, _ = run_cli(*args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestJsonAndCsvBytes:
    """The JSON reports and CSV tables are pinned by the sha256 of their bytes."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("trisect", "--angle-deg", "137.5"),
                "ed23b20f4ceccd76ba06ad11ff24864e0fb220ef40419cbc7a8a5182b0877425",
            ),
            (
                ("trisect", "--angle-deg", "137.5", "--method", "scudder"),
                "2d2b302feaecc88dcb89428f51d4f7e0451b3f581e08460203bbca23031d39a0",
            ),
            (("sweep",), "c327784c64742cb8046cf963e49668fa68b6fe9ef68cae234369e6bda17d6ca7"),
            (("curve",), "e5b9ef7ebd6f687df81150399c103071a6637b3d1f32d6e7c4cbfd05397619df"),
            (
                ("simulate", "--u-min-deg", "1", "--u-max-deg", "179", "--steps", "500"),
                "5ba82d7734f0437c0581933814bed1b9d974e956294cf99a18abff30a8dfb9d6",
            ),
            (
                ("curve", "--precision", "1"),
                "8fcff68d2d68840551d5c2390e7dc2e41ce8b4121dbb943253c6762e9d3597a5",
            ),
            (
                ("curve", "--precision", "15"),
                "ae91ada21057e045e5f5693f7d681dcb789d54f2c775a15b0875ce2b17972b42",
            ),
            # tiny negative coordinates here print without a minus sign
            (
                ("simulate", "--u-min-deg", "1", "--u-max-deg", "179", "--steps", "500", "--precision", "1"),
                "335f9317c571176897f1bb9d909124d82ef51a26f5f4c3fc54e0a7b1c0dee7e9",
            ),
            (
                ("simulate", "--u-min-deg", "1", "--u-max-deg", "179", "--steps", "500", "--precision", "15"),
                "3b6c512c274d362f54989f9f7cd9d74a9896cabfbb6f1ebf714829c94983f9e6",
            ),
        ],
        ids=[
            "trisect-137.5-curve",
            "trisect-137.5-scudder",
            "sweep",
            "curve-csv",
            "simulate-500",
            "curve-csv-precision-1",
            "curve-csv-precision-15",
            "simulate-500-precision-1",
            "simulate-500-precision-15",
        ],
    )
    def test_document_digest(self, args, digest):
        code, out, _ = run_cli(*args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOutFile:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask022", "umask027"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        # the mode open(path, "w") would give, both new and replacing a file
        out_file = tmp_path / "curve.csv"
        for _ in range(2):
            code, _, _ = run_cli("curve", "--samples", "5", "--out", str(out_file), umask=umask)
            assert code == 0
            assert stat.S_IMODE(out_file.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_missing_directory_is_an_io_error(self, tmp_path):
        out_file = tmp_path / "missing" / "curve.csv"
        code, out, err = run_cli("curve", "--samples", "5", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_target_is_left_untouched(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        (target / "keep.txt").write_text("kept")
        code, out, err = run_cli("curve", "--samples", "5", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert [p.name for p in target.iterdir()] == ["keep.txt"]
        assert (target / "keep.txt").read_text() == "kept"

    def test_a_failed_replace_keeps_the_old_file_and_removes_the_temp_file(self, tmp_path, capsys, monkeypatch):
        from trisectrix import cli

        out_file = tmp_path / "curve.csv"
        out_file.write_bytes(b"previous\n")

        def failing_replace(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        code = cli.main(["curve", "--samples", "5", "--out", str(out_file)])
        _, err = capsys.readouterr()
        assert code == 2
        assert err == "i/o error: replace refused\n"
        assert out_file.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_a_failed_cleanup_reports_the_replace_error(self, tmp_path, capsys, monkeypatch):
        from trisectrix import cli

        out_file = tmp_path / "curve.csv"
        out_file.write_bytes(b"previous\n")

        def failing(message):
            def fail(*args):
                raise OSError(message)

            return fail

        monkeypatch.setattr(os, "replace", failing("replace refused"))
        monkeypatch.setattr(os, "unlink", failing("unlink refused"))
        code = cli.main(["curve", "--samples", "5", "--out", str(out_file)])
        _, err = capsys.readouterr()
        assert code == 2
        assert err == "i/o error: replace refused\n"
        assert out_file.read_bytes() == b"previous\n"


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "args",
        [
            ("sweep", "--step-deg", "inf"),
            ("sweep", "--step-deg", "nan"),
            ("sweep", "--step-deg=-inf"),
            ("sweep", "--from-deg", "nan"),
            ("sweep", "--to-deg", "inf"),
            ("sweep", "--tol", "nan"),
            ("sweep", "--tol", "inf"),
            ("trisect", "--angle-deg", "90", "--tol", "nan"),
            ("trisect", "--angle-deg", "90", "--tol", "inf"),
            ("trisect", "--angle-deg", "nan"),
            ("curve", "--t-min-deg", "nan"),
            ("simulate", "--u-min-deg", "10", "--u-max-deg", "nan"),
            ("curve", "--samples", "1"),
            ("curve", "--samples", "1", "--format", "svg"),
            ("simulate", "--u-min-deg", "10", "--u-max-deg", "20", "--steps", "1"),
            ("curve", "--precision", "0"),
            ("trisect", "--angle-deg", "90", "--precision", "16"),
            ("simulate", "--u-min-deg", "1", "--u-max-deg", "2", "--precision", "0"),
        ],
    )
    def test_is_usage_error_with_one_line_message(self, args):
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("curve", "--t-min-deg", "1e-320", "--samples", "2"),
            ("curve", "--t-min-deg", "1e-320", "--samples", "2", "--format", "svg"),
            ("simulate", "--u-min-deg", "1e-320", "--u-max-deg", "10", "--steps", "2"),
        ],
    )
    def test_finite_input_with_a_non_finite_point_is_usage_error(self, args):
        # a positive angle this small puts the pencil past the largest double
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: non-finite point (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (("curve", "--t-min-deg", "5e-324", "--samples", "2"), "trace parameter must lie in (0, pi/2], got 0.0"),
            (
                ("curve", "--t-min-deg", "5e-324", "--samples", "2", "--format", "svg"),
                "need 0 < t_min < t_max <= pi/2, got [0.0, 1.5707963267948966]",
            ),
            (("simulate", "--u-min-deg", "5e-324", "--u-max-deg", "10", "--steps", "2"), "leg angle must lie in (0, pi), got 0.0"),
            (
                ("simulate", "--u-min-deg", "3e-322", "--u-max-deg", "10", "--steps", "2"),
                "leg angle must lie in (0, pi), got 5e-324",
            ),
        ],
        ids=["curve", "curve-svg", "simulate", "simulate-half-rounds-to-zero"],
    )
    def test_positive_degrees_that_round_to_zero_radians_are_usage_errors(self, args, message):
        # the degree check passes, and the first row's own range check refuses
        # the angle: 0.0 radians, or the smallest double, whose half is 0.0
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestTraceScreenOverflow:
    """A trace point far enough out is a finite double whose screen x is not."""

    ARGS = ("curve", "--format", "svg", "--t-min-deg", "1e-306", "--t-max-deg", "1e-305", "--samples", "3")
    MESSAGE = "error: non-finite screen point (inf, 100.0) at t = 1.74532925199433e-308\n"

    def test_is_usage_error_in_process(self, capsys):
        assert cli.main(list(self.ARGS)) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)

    def test_exit_status(self):
        assert run_cli(*self.ARGS) == (2, "", self.MESSAGE)

    @settings(max_examples=300)
    @given(st.floats(1e-309, 1e-300))
    @example(1e-306)
    @example(1e-304)
    def test_a_drawn_trace_has_only_finite_coordinates(self, t_min_deg):
        # the first point is the farthest out, so it alone decides
        try:
            doc = curve_svg(t_min_deg, 90.0, 3, 1)
        except OutOfDomain as exc:
            assert str(exc).startswith(("non-finite screen point (inf, ", "non-finite point (inf, "))
        else:
            assert "inf" not in doc and "nan" not in doc


class TestTraceGrid:
    @pytest.mark.parametrize(
        "t_min_deg, t_max_deg, samples",
        [
            (0.3, 90.0, 1),
            (60.0, 30.0, 1),  # the sample count is checked first
            (60.0, 30.0, 10),
            (30.0, 30.0, 2),
            (0.3, 91.0, 5),
            (5e-324, 90.0, 2),
            (1e-320, 90.0, 2),
        ],
    )
    def test_curve_svg_refuses_what_sample_trace_refuses(self, t_min_deg, t_max_deg, samples):
        with pytest.raises(TrisectrixError) as expected:
            sample_trace(math.radians(t_min_deg), math.radians(t_max_deg), samples)
        with pytest.raises(TrisectrixError) as refused:
            curve_svg(t_min_deg, t_max_deg, samples, 6)
        assert (type(refused.value), str(refused.value)) == (type(expected.value), str(expected.value))

    def test_peak_memory_is_bounded_by_the_document(self):
        # the formatted blocks are the scene's parts, joined once; the grid
        # is freed before the join
        tracemalloc.start()
        try:
            doc = curve_svg(0.3, 90.0, 10**5, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(doc)


def _reference_fixed(x, precision):
    """The fixed-point rule spelled out: round, print, and drop the sign of a zero."""
    r = round(x, precision)
    if r == 0.0:
        r = 0.0
    return f"{r:.{precision}f}"


@st.composite
def _value_and_precision(draw):
    precision = draw(st.integers(1, 15))
    unit = 10.0**-precision
    ties = st.builds(
        lambda k, sign: k * unit + sign * 0.5 * unit,
        st.integers(-(10 ** (8 + precision)), 10 ** (8 + precision)),
        st.sampled_from((-1.0, 1.0)),
    )
    value = draw(
        st.one_of(
            ties,
            st.floats(-1e8, 1e8),
            st.floats(-unit, 0.0),
            st.sampled_from((0.0, -0.0, -5e-324, -1e-300, 1e-300)),
        )
    )
    return value, precision


class TestFixedPointFormat:
    @settings(max_examples=2000)
    @given(_value_and_precision())
    @example((-0.0, 6))
    @example((-0.0000005, 6))
    @example((0.5, 1))
    @example((2.675, 2))
    @example((-99999999.99999999, 15))
    def test_matches_round_then_format(self, case):
        value, precision = case
        assert fixed_field(precision).format(value) == _reference_fixed(value, precision)

    @pytest.mark.parametrize("precision", range(1, 16))
    def test_negative_values_that_round_to_zero_print_unsigned(self, precision):
        tiny = -0.4 * 10.0**-precision
        assert fixed_field(precision).format(tiny) == "0." + "0" * precision


def _row_by_row(rows, precision, sep):
    """The rows formatted one str.format call each and joined by ``sep``."""
    row = ",".join([fixed_field(precision)] * len(rows[0]))
    return sep.join([row.format(*values) for values in rows])


def _csv_reference(header, kernel, lo_deg, hi_deg, n, precision):
    rows = [(deg, *kernel(math.radians(deg))) for deg in uniform_grid(lo_deg, hi_deg, n)]
    return header + "\n" + _row_by_row(rows, precision, "\n") + "\n"


class TestBlockFormatting:
    """The tables are formatted a block of rows at a time; the bytes match a
    row-by-row reference on both sides of each block edge, the last
    partial block included."""

    ROWS = (2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
    PRECISIONS = (1, 6, 15)

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_curve_csv(self, rows, precision):
        expected = _csv_reference("t_deg,x,y", _trace_xy, 0.3, 90.0, rows, precision)
        assert curve_csv(0.3, 90.0, rows, precision) == expected

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_simulate_csv(self, rows, precision):
        expected = _csv_reference("u_deg,s,Cx,Cy,Dx,Dy,Ex,Ey", _pencils, 1.0, 179.0, rows, precision)
        assert simulate_csv(1.0, 179.0, rows, precision) == expected

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_curve_svg_points(self, rows, precision):
        points = sample_trace(math.radians(0.3), math.radians(90.0), rows)
        expected = _row_by_row([to_screen(p) for p in points], precision, " ")
        doc = curve_svg(0.3, 90.0, rows, precision)
        assert re.search(r'<polyline points="([^"]*)"', doc).group(1) == expected

    @pytest.mark.parametrize("rows", ROWS)
    def test_tiny_negative_ex_prints_unsigned(self, rows):
        # near u = 180 degrees E's x is a tiny negative: -cot(u/2) to first order
        lo, hi = 179.99, 179.99999999999997
        assert all(_pencils(math.radians(u))[5] < 0.0 for u in uniform_grid(lo, hi, rows))
        doc = simulate_csv(lo, hi, rows, 1)
        assert doc == _csv_reference("u_deg,s,Cx,Cy,Dx,Dy,Ex,Ey", _pencils, lo, hi, rows, 1)
        assert {line.split(",")[6] for line in doc.splitlines()[1:]} == {"0.0"}
