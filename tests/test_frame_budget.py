"""A deterministic ratchet on the per-op cost of both trisection methods.

Timing on a shared host cannot resolve a 10% change, but the Python
frames an op enters and the bytecode instructions it runs can be
counted exactly.  Each op is one ``trisect_via_*`` plus
``verify_trisection(...).passed``.  Frames are counted with
``sys.setprofile``: every Python function entered, and every generator
resumption, is one "call" event; builtins are "c_call" events and do not
count.  Instructions are counted with ``sys.settrace`` and
``frame.f_trace_opcodes``, one "opcode" event each; time spent in C
(``math``, ``str.format``) does not show in them.  The budgets are the
counts of the current code, so a change that puts back a call layer, or
a single instruction, on this path fails here.

The CSV documents get the same ratchet per row, and the curve's SVG per
point of its trace.  Their numbers are formatted a block of BLOCK_ROWS rows
at a time, so a row's cost is the count for a grid of ROWS_HI rows less the
count for ROWS_LO rows, divided by the difference: both grids are two full
blocks and a partial one, so the document's fixed setup and its blocks'
cost cancel.  A block's own cost is the count for one more full block less
its rows'.  A trisection's SVG document has its frames pinned whole.

The records an op builds are counted the same way, as the calls of a
``_Record`` subclass's ``__init__``: each op builds only the records it
returns, and none to compute with.  A document builds none per row.
"""

import gc
import math
import sys

import pytest

from trisectrix.cli import curve_csv, curve_svg, simulate_csv, trisect_svg
from trisectrix.construct import trisect_via_curve, trisect_via_scudder, verify_trisection
from trisectrix.geom import _Record
from trisectrix.svg import BLOCK_ROWS

METHODS = (trisect_via_curve, trisect_via_scudder)
CSV_DOCUMENTS = (simulate_csv, curve_csv)
DOCUMENTS = (*CSV_DOCUMENTS, curve_svg)

# The pins below are keyed by function name, so a failed comparison
# prints readable keys.

# Upper bounds on the frames per op.  At every angle below the curve
# method enters 15 and the placement 17 (16 at 270 degrees, where the
# range end is the placement and no tip angle is evaluated).
BUDGETS = {"trisect_via_curve": 15, "trisect_via_scudder": 17}

# Instructions per op, which depend on the interpreter's minor version:
# (the count at 1 rad, the most at any angle below).
INSTRUCTIONS = {
    (3, 11): {"trisect_via_curve": (879, 1015), "trisect_via_scudder": (741, 744)},
}

# Records built per op, at every angle below.  The curve method builds D,
# C, both rays, the result and the certificate; the placement builds its
# state (with C, D and E) and the solution, then both rays, the result
# and the certificate.
RECORDS = {"trisect_via_curve": 6, "trisect_via_scudder": 9}

ANGLES_DEG = (1e-7, 1.0, 30.0, 60.0, 89.9, 90.0, 137.5, 180.0, 200.0, 269.9, 270.0)

# Frames and instructions per row, by the interpreter's minor version.
# Every row is written from floats, in its block's one loop, which
# computes linkage._pencils (simulate_csv) or curve._trace_xy (curve_csv,
# and each point of curve_svg's trace) in line: a row enters no frame,
# and no record is built (test_no_records_per_row).  Those kernels run
# once a document, on the grid's first row, for their checks.
ROW_COSTS = {
    (3, 11): {"simulate_csv": (0, 74), "curve_csv": (0, 58), "curve_svg": (0, 56)},
}

# Frames and instructions per full block, on top of its rows': the call
# of the loop that flattens the block's numbers, with its locals bound,
# the tuple of them that one printf template formats, and the replace
# that drops the sign of a zero.
BLOCK_COSTS = {
    (3, 11): {"simulate_csv": (1, 59), "curve_csv": (1, 62), "curve_svg": (1, 59)},
}

# Frames one trisect_svg document enters at precision 6, by the
# interpreter's minor version, for the curve method's trisection of 137.5
# degrees (built beforehand).  Its 600-point trace still goes through
# curve.sample_trace, three frames a point (trace_point, _trace_xy and
# Point's __init__), since perfbench times that route; the screen transform
# runs in one loop a block.  The pin stops a per-point call from coming back.
TRISECT_SVG_FRAMES = {(3, 11): 1894}

# The documents, with the grid size left out: (low end, high end) in degrees.
# curve_svg's range lies wholly on the canvas, so its clip's bisection
# (svg._first_drawn) takes the same 10 steps at each grid size below and
# cancels with the setup.
ROW_RANGES = {"simulate_csv": (1.0, 179.0), "curve_csv": (0.3, 90.0), "curve_svg": (10.0, 90.0)}
ROWS_LO, ROWS_HI = 2 * BLOCK_ROWS + 100, 2 * BLOCK_ROWS + 400


def _hooked(call, set_hook, hook) -> None:
    """``call()`` with ``hook`` installed through ``set_hook`` (sys.setprofile or sys.settrace).

    The collector is off meanwhile: a gc callback written in Python
    (hypothesis registers one) would otherwise now and then run inside
    the call and be counted with it.
    """
    enabled = gc.isenabled()
    gc.disable()
    set_hook(hook)
    try:
        call()
    finally:
        set_hook(None)
        if enabled:
            gc.enable()


def _op(trisect, phi: float):
    """One op: the trisection of phi and its verification."""
    return lambda: verify_trisection(trisect(phi), 1e-9).passed


def _document(document, rows: int):
    """One document of ``rows`` rows at precision 6."""
    lo, hi = ROW_RANGES[document.__name__]
    return lambda: document(lo, hi, rows, 6)


def _frames(call) -> int:
    """The Python frames ``call()`` enters below its own."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is not call.__code__:
            calls += 1

    _hooked(call, sys.setprofile, count)
    return calls


def _instructions(call) -> int:
    """The bytecode instructions ``call()`` runs below its own frame."""
    executed = 0

    def trace(frame, event, arg):
        nonlocal executed
        if event == "call":
            if frame.f_code is call.__code__:
                return None
            frame.f_trace_opcodes = True
        elif event == "opcode":
            executed += 1
        return trace

    _hooked(call, sys.settrace, trace)
    return executed


def _record_inits() -> set:
    """The code of every ``__init__`` a ``_Record`` subclass defines."""
    codes, classes = set(), [_Record]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if "__init__" in vars(cls):
            codes.add(vars(cls)["__init__"].__code__)
    return codes


def _records(call) -> int:
    """The records ``call()`` builds: the calls of a ``_Record`` subclass's ``__init__``."""
    inits = _record_inits()
    built = 0

    def count(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in inits:
            built += 1

    _hooked(call, sys.setprofile, count)
    return built


def _per_row(count, document) -> int:
    """``count``'s events per row of ``document``, with the document's setup cancelled."""
    per_grid = {rows: count(_document(document, rows)) for rows in (ROWS_LO, ROWS_HI)}
    per_row, rest = divmod(per_grid[ROWS_HI] - per_grid[ROWS_LO], ROWS_HI - ROWS_LO)
    assert rest == 0, per_grid  # every row costs the same
    return per_row


def _per_block(count, document) -> int:
    """``count``'s events per full block of ``document``, less its rows'."""
    more = count(_document(document, ROWS_LO + BLOCK_ROWS)) - count(_document(document, ROWS_LO))
    return more - BLOCK_ROWS * _per_row(count, document)


def _costs(per, document) -> tuple[int, int]:
    """(frames, instructions) of ``document`` by ``per`` (_per_row or _per_block)."""
    return per(_frames, document), per(_instructions, document)


@pytest.fixture
def instructions():
    """The pinned (count at 1 rad, most at any angle) by method, for this interpreter."""
    pinned = INSTRUCTIONS.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip(f"no instruction counts recorded for Python {sys.version_info[0]}.{sys.version_info[1]}")
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage or a debugger) is already set")
    return pinned


@pytest.mark.parametrize("trisect", METHODS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("deg", ANGLES_DEG)
def test_frames_per_op_within_budget(trisect, deg):
    assert _frames(_op(trisect, math.radians(deg))) <= BUDGETS[trisect.__name__]


def test_budget_is_tight():
    # the counter sees the whole op: the budgets are reached, not just bounded
    assert {trisect.__name__: _frames(_op(trisect, 1.0)) for trisect in METHODS} == BUDGETS


@pytest.mark.parametrize("trisect", METHODS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("deg", ANGLES_DEG)
def test_records_per_op_are_pinned(trisect, deg):
    assert _records(_op(trisect, math.radians(deg))) == RECORDS[trisect.__name__]


@pytest.mark.parametrize("trisect", METHODS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("deg", ANGLES_DEG)
def test_instructions_per_op_within_budget(instructions, trisect, deg):
    assert _instructions(_op(trisect, math.radians(deg))) <= instructions[trisect.__name__][1]


def test_instruction_budget_is_tight(instructions):
    # both numbers are reached: the count at 1 rad exactly, the bound at some angle
    counts = {
        trisect.__name__: (
            _instructions(_op(trisect, 1.0)),
            max(_instructions(_op(trisect, math.radians(deg))) for deg in ANGLES_DEG),
        )
        for trisect in METHODS
    }
    assert counts == instructions


def _pinned(costs: dict) -> dict:
    """``costs`` for this interpreter, by document; skips where none are recorded or a tracer is set."""
    pinned = costs.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip(f"no document costs recorded for Python {sys.version_info[0]}.{sys.version_info[1]}")
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage or a debugger) is already set")
    return pinned


@pytest.fixture
def row_costs():
    """The pinned (frames, instructions) per row by document, for this interpreter."""
    return _pinned(ROW_COSTS)


@pytest.fixture
def block_costs():
    """The pinned (frames, instructions) per full block by document, for this interpreter."""
    return _pinned(BLOCK_COSTS)


@pytest.mark.parametrize("document", CSV_DOCUMENTS, ids=lambda fn: fn.__name__)
def test_csv_row_cost_is_pinned(row_costs, document):
    assert _costs(_per_row, document) == row_costs[document.__name__]


def test_svg_point_cost_is_pinned(row_costs):
    assert _costs(_per_row, curve_svg) == row_costs["curve_svg"]


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda fn: fn.__name__)
def test_no_records_per_row(document):
    assert _per_row(_records, document) == 0


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda fn: fn.__name__)
def test_block_cost_is_pinned(block_costs, document):
    assert _costs(_per_block, document) == block_costs[document.__name__]


def test_trisect_svg_frames_are_pinned():
    pinned = _pinned(TRISECT_SVG_FRAMES)
    res = trisect_via_curve(math.radians(137.5))
    assert _frames(lambda: trisect_svg(res, 6)) == pinned
