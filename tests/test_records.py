"""Tests for the frozen value records and the import footprint they allow."""

import copy
import math
import os
import pickle
import subprocess
import sys

import pytest

from trisectrix.construct import trisect_via_curve, verify_trisection
from trisectrix.geom import Point
from trisectrix.linkage import scudder_place

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestRecordContract:
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

    @pytest.mark.parametrize("record", [Point(1.0, 2.0), trisect_via_curve(1.0), scudder_place(1.0)])
    def test_fields_cannot_be_assigned_or_deleted(self, record):
        name = record.__slots__[0]  # x, phi, state
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)

    @pytest.mark.parametrize(
        "record", [trisect_via_curve(1.0), scudder_place(1.0), verify_trisection(trisect_via_curve(1.0), 1e-9)]
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
