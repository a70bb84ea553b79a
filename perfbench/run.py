"""Benchmark for the trisectrix library and CLI.

    python3 perfbench/run.py --workload {cli_mix,lib_trisect,render} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, and scratch files go to ``.bench_build/perfbench``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# The machine's speed drifts by up to ~1.7x, on scales from sub-second to
# minutes.  Every pass repeats the same ops, so the timed statistics are
# taken over each op's fastest repeat, or its fastest few when a pass holds
# fewer than MIN_TIMED_OPS ops, so that p90 has ten samples beyond it.
MIN_TIMED_OPS = 100
SETUP_REPEATS = 15
IMPORT_REPEATS = 5
TRACED_PASSES = 2
SUBPROCESS_TIMEOUT_S = 60.0


def _python(args, env, **kw):
    return subprocess.run([sys.executable, *args], env=env, cwd=OUT_DIR, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, check=True, **kw)


class SetupSampler:
    """Wall time of importing ``module`` in a fresh interpreter, sampled evenly over a run.

    One untimed import first compiles the bytecode.  Spreading the samples
    over the run keeps one disturbed second from setting the median.
    """

    def __init__(self, module: str, env, seconds: float) -> None:
        self.code = f"import time; t0 = time.perf_counter(); import {module}; print(time.perf_counter() - t0)"
        self.env = env
        self.every = seconds / SETUP_REPEATS
        self.samples: list[float] = []
        _python(["-c", self.code], env)
        self.due = time.monotonic()

    def _sample(self) -> None:
        self.samples.append(float(_python(["-c", self.code], self.env).stdout))

    def tick(self) -> None:
        if len(self.samples) < SETUP_REPEATS and time.monotonic() >= self.due:
            self._sample()
            self.due += self.every

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self._sample()
        return statistics.median(self.samples)


def import_profile(env):
    """Import-layer metrics from `-X importtime`, interleaved with bare interpreter starts."""
    from tracing import IMPORT_CODE, IMPORT_MODULES, parse_importtime

    tables, starts = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter_ns()
        _python(["-c", "pass"], env)
        starts.append(time.perf_counter_ns() - t0)
        tables.append(parse_importtime(_python(["-X", "importtime", "-c", IMPORT_CODE], env).stderr))
    metrics = {
        "import.trisectrix.cli.cum_ms": (statistics.median(t["trisectrix.cli"][1] for t in tables) / 1e3, "ms"),
        "import.modules_loaded": (len(tables[0]), "count"),
        "interp_start_ms": (statistics.median(starts) / 1e6, "ms"),
    }
    for mod in IMPORT_MODULES:
        metrics[f"import.{mod}.self_ms"] = (statistics.median(t.get(mod, (0, 0))[0] for t in tables) / 1e3, "ms")
    repeat_ok = len({tuple(sorted(t)) for t in tables}) == 1
    return metrics, repeat_ok


class Tally:
    """Failed ops by cell, counted once per distinct op, and whether outputs repeated exactly.

    Every pass repeats the same ops, so ``attempted`` is the number of
    distinct ops and does not depend on how many passes the time allowed.
    An op fails if it failed in any pass.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ref_outs = None
        self.ref_verdicts = None
        self.attempted = len(workload.ops)
        self.failed_ops = {}
        self.repeat_ok = True

    def add(self, outs) -> int:
        """Check one pass's outputs (outside any timed region); return its failed-op count."""
        if self.ref_outs is None:
            self.ref_outs, verdicts = outs, self.workload.check(outs)
            self.ref_verdicts = verdicts
        elif outs == self.ref_outs:
            verdicts = self.ref_verdicts
        else:
            self.repeat_ok = False
            verdicts = self.workload.check(outs)
        failed = {i: v for i, v in enumerate(verdicts) if v is not None}
        for i, cell in failed.items():
            self.failed_ops.setdefault(i, cell)
        return len(failed)

    @property
    def failures(self) -> Counter:
        return Counter(self.failed_ops.values())

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def run_passes(workload, tally, seconds, between=None):
    """Closed loop of whole passes until ``seconds`` of wall time have passed; per-pass latencies.

    ``between`` runs after each pass, outside any timed region.
    """
    deadline = time.monotonic() + seconds
    passes = []
    while not passes or time.monotonic() < deadline:
        lat, outs = workload.run_pass()
        passes.append(lat)
        tally.add(outs)
        if between is not None:
            between()
    return passes


def timing_metrics(passes):
    """Throughput and latency percentiles over each op's fastest repeats."""
    keep = min(len(passes), math.ceil(MIN_TIMED_OPS / len(passes[0])))
    lat = sorted(x for repeats in zip(*passes) for x in sorted(repeats)[:keep])
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] / 1e6, "ms"),
    }, keep


def best_rate(passes) -> float:
    return len(passes[0]) / (min(sum(p) for p in passes) / 1e9)


def traced_run(workload, tally, seconds, env):
    """Per-layer metrics: import profile, an untraced reference, then span-recorded passes."""
    from tracing import TRACED, SpanRecorder, exact_counts, layer_metrics, summarize

    start = time.monotonic()
    metrics, import_repeat_ok = import_profile(env)
    untraced = run_passes(workload, tally, max(0.0, seconds / 2 - (time.monotonic() - start)))
    cli_traced_rate = None
    if workload.mode == "subprocess":
        # the CLI's own trace is `-X importtime`; the layers below it are traced in-process
        cli_traced_rate = best_rate([workload.run_pass(extra_flags=("-X", "importtime"))[0]
                                     for _ in range(TRACED_PASSES)])
        workload.mode = "inprocess"
    rec = SpanRecorder()
    rec.install()
    marks, lats, fails = [0], [], []
    try:
        for _ in range(TRACED_PASSES):
            lat, outs = workload.run_pass(recorder=rec)
            marks.append(len(rec.spans))
            lats.append(lat)
            fails.append(tally.add(outs))
    finally:
        rec.uninstall()
    traced_rate = cli_traced_rate or best_rate(lats)
    rec.dump(OUT_DIR / f"spans-{workload.name}.tsv")

    per_pass = [exact_counts(summarize(rec.spans, marks[i], marks[i + 1]), fails[i]) for i in range(TRACED_PASSES)]
    summary = summarize(rec.spans, 0, marks[-1])
    expected = workload.expected_spans or tuple(TRACED)
    unbound = [n for n in TRACED if not rec.sites.get(n)]
    silent = [n for n in expected if summary[n]["calls"] == 0]
    if unbound or silent:
        sys.stderr.write(f"error: traced functions never bound: {unbound}; recorded no calls: {silent}\n")
        sys.exit(1)
    for name, sites in sorted(rec.sites.items()):
        sys.stderr.write(f"traced {name} at {', '.join(sites)}\n")

    metrics.update(layer_metrics(summary, TRACED_PASSES * len(workload.ops)))
    # against the untraced passes just before, so both sides see the same machine state
    metrics["trace.overhead_ratio"] = (1.0 - traced_rate / best_rate(untraced[-TRACED_PASSES:]), "ratio")
    counts_ok = all(c == per_pass[0] for c in per_pass)
    if not counts_ok:
        sys.stderr.write(f"error: exact counts differ between traced passes: {per_pass}\n")
    if not import_repeat_ok:
        sys.stderr.write("error: the set of modules loaded by `import trisectrix.cli` differs between runs\n")
    return metrics, import_repeat_ok and counts_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trisectrix benchmark")
    parser.add_argument("--workload", required=True, choices=("cli_mix", "lib_trisect", "render"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "trisectrix" / "__init__.py").is_file():
        sys.stderr.write(f"error: no trisectrix sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import trisectrix

    if Path(trisectrix.__file__).resolve().parent != SRC / "trisectrix":
        sys.stderr.write(f"error: imported trisectrix from {trisectrix.__file__}, not {SRC}\n")
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPROFILEIMPORTTIME", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env["TMPDIR"] = str(OUT_DIR)

    import workloads

    rng = random.Random(f"{args.workload}:{args.seed}")
    if args.workload == "lib_trisect":
        workload = workloads.LibTrisect(rng)
    elif args.workload == "render":
        workload = workloads.Render(rng, str(OUT_DIR))
    else:
        workload = workloads.CliMix(rng, str(OUT_DIR), env)
    tally = Tally(workload)

    if args.trace:
        metrics, repeat_ok = traced_run(workload, tally, args.seconds, env)
        timing = None
    else:
        setup = SetupSampler(workload.setup_module, env, args.seconds)
        passes = run_passes(workload, tally, args.seconds, between=setup.tick)
        metrics, keep = timing_metrics(passes)
        timing = f"timing over {keep * len(workload.ops)} samples: each op's fastest {keep} of {len(passes)} repeats"
        metrics["pass_ratio"] = (1.0 - tally.failed / tally.attempted, "ratio")
        metrics["setup_s"] = (setup.median(), "s")
        repeat_ok = True

    from oracle import KNOWN_FAILURE_CELLS

    new_failures = any(cell[:2] not in KNOWN_FAILURE_CELLS for cell in tally.failures)
    correct = tally.repeat_ok and repeat_ok and not new_failures
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  python {sys.version.split()[0]}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6f}  ({tally.failed} failed / {tally.attempted} attempted)")
    for (a, b, kind), n in sorted(tally.failures.items()):
        known = "known" if (a, b) in KNOWN_FAILURE_CELLS else "NEW"
        print(f"  failed {a:8s} {b:12s} {kind:14s} {n:7d}  {known}")
    if not tally.repeat_ok:
        print("  outputs differed between passes of identical ops")
    if timing is not None:
        print(timing)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
