"""Tests for the frozen value records, the certificate's verdict, the import footprint they allow, and the public names."""

import copy
import math
import os
import pickle
import random
import subprocess
import sys

import pytest

import trisectrix
from trisectrix.certificate import Certificate
from trisectrix.construct import TrisectionResult, trisect_via_curve, trisect_via_scudder, verify_trisection
from trisectrix.geom import Point, Ray, _Record
from trisectrix.linkage import LinkageState, PlacementSolution, scudder_place, state_from_leg_angle

from helpers import angle_gap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# One builder per record class; every call builds a new record equal to the last.
BUILDERS = {
    Point: lambda: Point(1.0, 2.0),
    Ray: lambda: Ray(1.0),
    LinkageState: lambda: state_from_leg_angle(1.0),
    PlacementSolution: lambda: scudder_place(1.0),
    TrisectionResult: lambda: trisect_via_curve(1.0),
    Certificate: lambda: verify_trisection(trisect_via_curve(1.0), 1e-9),
}


def _records(*classes):
    return [BUILDERS[cls]() for cls in classes]


def _scudder_records():
    # The linkage path fills the same records as the curve path; it is checked too.
    res = trisect_via_scudder(1.0)
    return [res, verify_trisection(res, 1e-9)]


def _subclasses(cls):
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


class TestRecordContract:
    def test_builders_cover_every_record_class(self):
        assert set(BUILDERS) == _subclasses(_Record)

    @pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
    def test_equal_records_hash_equal(self, cls):
        a, b = BUILDERS[cls](), BUILDERS[cls]()
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_equal_points_are_equal_and_hash_equal(self):
        a, b = Point(1.0, 2.0), Point(1.0, 2.0)
        assert a == b and hash(a) == hash(b)
        assert a != Point(1.0, 2.5)

    def test_point_is_not_its_tuple(self):
        assert Point(1.0, 2.0) != (1.0, 2.0)

    def test_repr_lists_fields_in_declaration_order(self):
        assert repr(Point(1.0, 2.0)) == "Point(x=1.0, y=2.0)"
        res = trisect_via_curve(math.pi / 2)
        fields = ["phi", "method", "ray1", "ray2", "C", "D"]
        listed = ", ".join(f"{name}={getattr(res, name)!r}" for name in fields)
        assert repr(res) == f"TrisectionResult({listed})"

    @pytest.mark.parametrize(
        "record",
        _records(
            Point, TrisectionResult, PlacementSolution,
            Ray, LinkageState, Certificate,
        ) + _scudder_records(),
    )
    def test_fields_cannot_be_assigned_or_deleted(self, record):
        before = record._values()
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record._values() == before

    @pytest.mark.parametrize(
        "record",
        _records(
            TrisectionResult, PlacementSolution, Certificate,
            Point, Ray, LinkageState,
        ) + _scudder_records(),
    )
    def test_pickle_and_deepcopy_round_trip(self, record):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record

    def test_certificate_cannot_disagree_with_itself(self):
        cert = verify_trisection(trisect_via_curve(1.0), 1e-9)
        assert cert.passed
        for name in cert.residuals:
            cert.residuals[name] = 1.0
        assert cert.passed and all(v <= cert.tolerance for v in cert.residuals.values())
        assert hash(cert) == hash(verify_trisection(trisect_via_curve(1.0), 1e-9))


class TestCertificateVerdict:
    NAN_PAIRS = (("a", 1e-12), ("b", math.nan), ("c", 2e-12))

    def test_nan_residual_fails(self):
        assert not Certificate(self.NAN_PAIRS, 1e-9).passed
        assert Certificate((("a", 1e-12), ("c", 2e-12)), 1e-9).passed

    def test_worst_is_the_first_nan_residual(self):
        name, value = Certificate(self.NAN_PAIRS + (("d", math.nan),), 1e-9).worst()
        assert name == "b" and math.isnan(value)
        assert Certificate((("a", 3e-12), ("b", 5e-12), ("c", 2e-12)), 1e-9).worst() == ("b", 5e-12)

    @pytest.mark.parametrize("tol", [0.0, -0.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # at an infinite tolerance a residual of 0.5 would pass
        with pytest.raises(ValueError, match="tolerance"):
            Certificate((("a", 0.5),), tol)

    def test_residuals_are_required(self):
        # with no pairs passed would be vacuously true and worst() undefined
        with pytest.raises(ValueError, match="residual"):
            Certificate((), 1e-9)
        with pytest.raises(ValueError, match="residual"):
            Certificate.from_residuals({}, 1e-9)

    @pytest.mark.parametrize("value", [0.0, 5e-10, 1e-9, 1.5e-9, 1.0, math.inf, math.nan])
    def test_worst_within_tolerance_iff_passed(self, value):
        cert = Certificate((("a", 1e-12), ("b", value), ("c", 2e-12)), 1e-9)
        assert (cert.worst()[1] <= cert.tolerance) == cert.passed


class TestAngleDistance:
    """The angle residuals fold the remainder with abs alone, in line.

    That must equal the size of Ray's wrap of a - b to (-pi, pi] bit for
    bit, so these edges also pin Ray's wrap, which is in line too.
    """

    EDGES = [
        (math.pi, 0.0), (0.0, math.pi), (-math.pi, 0.0), (0.0, -math.pi),
        (math.pi, -math.pi), (3.0 * math.pi, 0.0), (-3.0 * math.pi, 0.0),
        (math.tau, 0.0), (0.0, 0.0), (-0.0, 0.0), (1e-300, -1e-300),
        (math.nextafter(math.pi, 4.0), 0.0), (math.nextafter(math.pi, 0.0), 0.0),
        (1e16, 0.0), (-1e16, 3.0), (4.71238898038469, 1.5707963267948966),
    ]

    @pytest.mark.parametrize("a, b", EDGES)
    def test_edges(self, a, b):
        assert angle_gap(a, b).hex() == abs(Ray(a - b).angle).hex()

    def test_difference_of_plus_or_minus_pi_exactly(self):
        for a, b in [(math.pi, 0.0), (0.0, math.pi), (2.5, 2.5 - math.pi), (2.5 - math.pi, 2.5)]:
            assert abs(a - b) == math.pi
            assert angle_gap(a, b) == math.pi
            assert Ray(a - b).angle == math.pi

    def test_random_pairs(self):
        rng = random.Random(15)
        for _ in range(20000):
            a = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-3, 3)
            b = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-3, 3)
            assert angle_gap(a, b).hex() == abs(Ray(a - b).angle).hex(), (a, b)


def _new_modules(statement: str) -> list[str]:
    """Modules that ``statement`` adds to sys.modules in a fresh ``python -S``."""
    code = (
        "import sys; before = set(sys.modules); "
        f"{statement}; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    return proc.stdout.split()


class TestLeanImport:
    def test_package_import_loads_only_math(self):
        extra = [
            m for m in _new_modules("import trisectrix")
            if m != "trisectrix" and not m.startswith("trisectrix.")
        ]
        assert set(extra) <= {"math", "__future__"}, extra

    def test_cli_import_skips_dataclasses_inspect_json_xml_and_file_helpers(self):
        loaded = _new_modules("import trisectrix.cli")
        assert "trisectrix.cli" in loaded
        forbidden = {
            "dataclasses", "inspect", "json", "xml.etree.ElementTree", "pyexpat",
            "tempfile", "pathlib", "shutil", "random",
        }
        assert not forbidden & set(loaded)

    def test_cli_import_defers_argparse(self):
        # build_parser imports it at the first main call
        assert "argparse" not in _new_modules("import trisectrix.cli")


class TestPublicApi:
    # the paper's operations (trace the curve, meet a ray, place the
    # square, trisect, verify, sweep) and the records they return
    NAMES = [
        "Certificate", "LinkageState", "METHOD_CURVE", "METHOD_SCUDDER", "PlacementSolution", "Point", "Ray",
        "TrisectionResult", "implicit_value", "intersect_ray", "sample_trace", "scudder_place",
        "state_from_leg_angle", "sweep_verify", "trace_point", "trisect_via_curve", "trisect_via_scudder",
        "verify_trisection",
    ]

    def test_all_is_the_operations_and_their_records(self):
        assert sorted(trisectrix.__all__) == self.NAMES
        for name in self.NAMES:
            assert hasattr(trisectrix, name), name

    def test_geometry_helpers_are_not_exported(self):
        for name in ("ORIGIN", "polar_angle", "intersect_circle_line", "on_trace", "solve_cubic"):
            assert not hasattr(trisectrix, name), name
