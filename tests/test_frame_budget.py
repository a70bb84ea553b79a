"""A deterministic ratchet on the per-op call depth of both trisection methods.

Timing on a shared host cannot resolve a 10% change, but the Python
frames an op enters can be counted exactly.  Each op is one
``trisect_via_*`` plus ``verify_trisection(...).passed``, counted with
``sys.setprofile``: every Python function entered, and every generator
resumption, is one "call" event; builtins are "c_call" events and do not
count.  The budgets are the counts of the current code, so a change that
puts back a call layer on this path fails here.
"""

import math
import sys

import pytest

from trisectrix.construct import trisect_via_curve, trisect_via_scudder, verify_trisection

# Upper bounds on the frames per op.  At every angle below the curve
# method enters 34 and the placement 32 (29 at 270 degrees, where the
# bracket end is the root and the secant step is skipped).
BUDGETS = {trisect_via_curve: 34, trisect_via_scudder: 32}

ANGLES_DEG = (1e-7, 1.0, 30.0, 60.0, 89.9, 90.0, 137.5, 180.0, 200.0, 269.9, 270.0)


def _frames(trisect, phi: float) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        verify_trisection(trisect(phi), 1e-9).passed
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("trisect", list(BUDGETS), ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("deg", ANGLES_DEG)
def test_frames_per_op_within_budget(trisect, deg):
    assert _frames(trisect, math.radians(deg)) <= BUDGETS[trisect]


def test_budget_is_tight():
    # the counter sees the whole op: the budgets are reached, not just bounded
    assert {trisect: _frames(trisect, 1.0) for trisect in BUDGETS} == BUDGETS
