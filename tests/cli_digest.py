"""Print one line per argv of a seeded set: what the CLI does with it.

    PYTHONPATH=src python tests/cli_digest.py [count] [seed]

Runs ``trisectrix.cli.main`` in this process on each of ``count`` argvs
(default 2500) drawn from ``seed`` (default 0), and prints for each the
argv, the exit code, the sha256 of stdout and the stderr text.  The argvs
cover every subcommand and format, bad precisions and sample counts, and
the edge ranges of the degree flags: the smallest doubles, adjacent
doubles, ends that round to one radian value, and the tops of the ranges.

To compare two trees, run it against each through PYTHONPATH and diff:

    PYTHONPATH=../parent/src python tests/cli_digest.py > parent.txt
    PYTHONPATH=src python tests/cli_digest.py > change.txt
    diff parent.txt change.txt

Standard library only; no file is written.  The file name keeps pytest
from collecting it.
"""

import contextlib
import hashlib
import io
import math
import os
import random
import shlex
import sys

# Degree values at the edges of the curve's (0, 90] and the compass's
# (0, 180): the smallest doubles, values whose radians round to 0 or to
# the smallest double, a trace point past the screen, and the tops.
EDGES = (
    5e-324, 1e-322, 3e-322, 3.06e-322, 1e-320, 1.0005e-320, 1e-306, 1e-305, 1e-300,
    0.005, 0.2864788975654116, 1.0, 30.0, 58.64371595207594, 89.99999999999999, 90.0,
    90.00000000000001, 91.0, 179.0, 179.99999999999997, 180.0,
    0.0, -0.0, -1.0, math.inf, -math.inf, math.nan,
)
PRECISIONS = (6, 6, 6, 1, 15, 0, 16, -1)
COUNTS = (2, 3, 3, 17, 512, 1, 0, -5)


def _number(rng: random.Random, top: float) -> float:
    """An edge value, a log-uniform value up to ``top``, or a uniform one."""
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(EDGES)
    if pick < 0.6:
        return min(10.0 ** rng.uniform(-324.0, math.log10(top)), top)
    return rng.uniform(0.0, top)


def _range(rng: random.Random, top: float) -> tuple[float, float]:
    """A (low, high) degree pair: adjacent doubles, two draws, or a draw and the top."""
    lo = _number(rng, top)
    pick = rng.random()
    if pick < 0.3:
        return lo, math.nextafter(lo, math.inf)
    if pick < 0.7:
        return lo, _number(rng, top)
    return lo, top


def _precision(rng: random.Random) -> list[str]:
    """A --precision option, most often left out."""
    return ["--precision", str(rng.choice(PRECISIONS))] if rng.random() < 0.5 else []


def _curve(rng: random.Random) -> list[str]:
    lo, hi = _range(rng, 90.0)
    count = rng.choice(COUNTS) if rng.random() < 0.7 else rng.randint(2, 3000)
    argv = ["curve", "--format", rng.choice(("csv", "svg")), "--t-min-deg", repr(lo), "--t-max-deg", repr(hi)]
    return argv + ["--samples", str(count), *_precision(rng)]


def _simulate(rng: random.Random) -> list[str]:
    lo, hi = _range(rng, 179.99999999999997)
    count = rng.choice(COUNTS) if rng.random() < 0.7 else rng.randint(2, 3000)
    return ["simulate", "--u-min-deg", repr(lo), "--u-max-deg", repr(hi), "--steps", str(count), *_precision(rng)]


def _trisect(rng: random.Random) -> list[str]:
    edges = (*EDGES, 137.5, 269.9, 270.0, 270.00000000000006)
    angle = rng.choice(edges) if rng.random() < 0.3 else rng.uniform(0, 280)
    argv = ["trisect", "--angle-deg", repr(angle), "--method", rng.choice(("curve", "scudder"))]
    argv += ["--format", rng.choice(("json", "svg"))]
    if rng.random() < 0.2:
        argv += ["--tol", repr(rng.choice((0.0, 1e-15, 1e-12, math.nan, math.inf, -1.0)))]
    return argv + _precision(rng)


def _sweep(rng: random.Random) -> list[str]:
    lo = rng.choice((*EDGES, 1.0, 269.0)) if rng.random() < 0.3 else rng.uniform(0, 270)
    hi = rng.choice((lo, math.nextafter(lo, math.inf), lo + rng.uniform(0, 30), 270.0))
    step = rng.choice((1.0, 0.5, max((hi - lo) / rng.randint(1, 200), 1e-300), 0.0, -1.0, math.inf, 1e-300))
    argv = ["sweep", "--from-deg", repr(lo), "--to-deg", repr(hi), "--step-deg", repr(step)]
    return argv + ["--method", rng.choice(("curve", "scudder", "both"))]


def _usage(rng: random.Random) -> list[str]:
    """An argv that argparse refuses or answers itself."""
    return rng.choice(
        (
            [],
            ["--help"],
            ["curve", "--help"],
            ["nope"],
            ["curve", "--format", "png"],
            ["curve", "--samples", "1.5"],
            ["trisect"],
            ["trisect", "--angle-deg", "x"],
            ["simulate", "--u-min-deg", "1"],
            ["sweep", "--method", "neither"],
            ["curve", "--t-min-deg"],
        )
    )


# Each kind of argv and its share of the set.  Most exercise the table
# documents, whose edge ranges are the most varied; the usage argvs are
# few and fixed.
KINDS = {_curve: 6, _simulate: 4, _trisect: 2, _sweep: 2, _usage: 1}


def argvs(count: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [rng.choices(list(KINDS), list(KINDS.values()))[0](rng) for _ in range(count)]


def digest(argv: list[str]) -> str:
    """``argv``, the exit code, the sha256 of stdout and the stderr text, on one line."""
    from trisectrix import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return f"{shlex.join(argv)}\t{code}\t{sha}\t{err.getvalue()!r}"


def main(args: list[str]) -> int:
    count = int(args[0]) if args else 2500
    seed = int(args[1]) if len(args) > 1 else 0
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal's width
    for argv in argvs(count, seed):
        print(digest(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
