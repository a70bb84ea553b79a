"""Span recording around the package's public functions, and `-X importtime` parsing.

The recorder wraps each traced function at every place the package binds
it: a ``from .geom import solve_cubic`` in ``curve`` is a second binding
of the same function object, so patching ``geom.solve_cubic`` alone would
miss every call ``curve`` makes.  Bindings are found by identity over the
loaded ``trisectrix`` modules (module attributes and module-level dicts,
such as the method table in ``construct``), so a later refactor that
rebinds a name is picked up; a traced function that records no calls
where calls are expected is reported as an error by the caller.

Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import importlib
import re
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path).  Metric names use the span name.
TRACED = {
    "construct.trisect_via_curve": ("trisectrix.construct", "trisect_via_curve"),
    "construct.trisect_via_scudder": ("trisectrix.construct", "trisect_via_scudder"),
    "construct.complete_curve_construction": ("trisectrix.construct", "complete_curve_construction"),
    "construct.verify_trisection": ("trisectrix.construct", "verify_trisection"),
    "curve.intersect_ray": ("trisectrix.curve", "intersect_ray"),
    "curve.on_trace": ("trisectrix.curve", "on_trace"),
    "curve.sample_trace": ("trisectrix.curve", "sample_trace"),
    "curve.trace_point": ("trisectrix.curve", "trace_point"),
    "geom.solve_cubic": ("trisectrix.geom", "solve_cubic"),
    "geom.intersect_circle_line": ("trisectrix.geom", "intersect_circle_line"),
    "linkage.scudder_place": ("trisectrix.linkage", "scudder_place"),
    "linkage.state_from_leg_angle": ("trisectrix.linkage", "state_from_leg_angle"),
    "certificate.from_residuals": ("trisectrix.certificate", "Certificate.from_residuals"),
    "svg.Scene.to_svg": ("trisectrix.svg", "Scene.to_svg"),
    "svg.Scene.polyline": ("trisectrix.svg", "Scene.polyline"),
    "cli.curve_svg": ("trisectrix.cli", "curve_svg"),
    "cli.curve_csv": ("trisectrix.cli", "curve_csv"),
    "cli.simulate_csv": ("trisectrix.cli", "simulate_csv"),
    "cli.trisect_svg": ("trisectrix.cli", "trisect_svg"),
    "cli.main": ("trisectrix.cli", "main"),
}

# What each span keeps from its function's result, for the count metrics.
_INFO = {
    "geom.solve_cubic": len,
    "curve.on_trace": bool,
    "linkage.scudder_place": lambda sol: sol.iterations,
    "certificate.from_residuals": lambda cert: cert.passed,
    "svg.Scene.to_svg": lambda text: len(text.encode("utf-8")),
}


class SpanRecorder:
    """Collects (name, start_ns, end_ns, parent, op, info) spans in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter_ns, _INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, self.op, None)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, clock(), parent, self.op, info(result) if info else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every binding of every traced function with a span-recording wrapper."""
        for mod_name, _ in TRACED.values():
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "trisectrix" or n.startswith("trisectrix.")]
        for name, (mod_name, attr) in TRACED.items():
            owner = sys.modules[mod_name]
            sites = self.sites.setdefault(name, [])
            if "." in attr:  # a method: the class attribute is its only binding
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._undo.append((setattr, cls, meth, raw))
                setattr(cls, meth, new)
                sites.append(f"{mod_name}.{attr}")
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((setattr, mod, key, orig))
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._undo.append((dict.__setitem__, val, k, orig))
                                val[k] = wrapper
                                sites.append(f"{mod.__name__}.{key}[{k!r}]")

    def uninstall(self) -> None:
        for setter, target, key, orig in reversed(self._undo):
            setter(target, key, orig)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tinfo\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def summarize(spans, first: int, last: int) -> dict:
    """Per-name call counts, total and self time (ns), and result counts over spans[first:last].

    ``under`` and ``under_info`` split calls and result counts by the
    caller's span name.  Names never called read as all-zero records.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it.
    """
    child_ns = defaultdict(int)
    for s in spans[first:last]:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "info_sum": 0,
                               "under": defaultdict(int), "under_info": defaultdict(int)})
    for i in range(first, last):
        name, start, end, parent, _op, info = spans[i]
        rec = out[name]
        rec["calls"] += 1
        rec["total_ns"] += end - start
        rec["self_ns"] += end - start - child_ns[i]
        if info is not None:
            rec["info_sum"] += int(info)
        if parent >= 0:
            pname = spans[parent][0]
            rec["under"][pname] += 1
            if info is not None:
                rec["under_info"][pname] += int(info)
    return out


def exact_counts(summary: dict, failed: int) -> dict:
    """The counts that must repeat exactly for a fixed seed."""
    counts = {"failed_ops": failed}
    for name, rec in sorted(summary.items()):
        if rec["calls"]:
            counts[f"{name}.calls"] = rec["calls"]
            counts[f"{name}.info"] = rec["info_sum"]
    return counts


def layer_metrics(summary: dict, ops: int) -> dict:
    """Per-layer metrics from a span summary over ``ops`` operations.

    A layer that no op called reports 0 for its times and counts.
    """
    rec = summary.__getitem__

    def per_call(name, key, scale):
        r = rec(name)
        return r[key] / r["calls"] / scale if r["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    us, ms = 1e3, 1e6
    ray, trace, cubic = rec("curve.intersect_ray"), rec("curve.on_trace"), rec("geom.solve_cubic")
    place, state = rec("linkage.scudder_place"), rec("linkage.state_from_leg_angle")
    cert, svg_doc = rec("certificate.from_residuals"), rec("svg.Scene.to_svg")
    m = {
        "construct.trisect_via_curve.self_us": (per_call("construct.trisect_via_curve", "self_ns", us), "us"),
        "construct.trisect_via_scudder.self_us": (per_call("construct.trisect_via_scudder", "self_ns", us), "us"),
        "construct.complete_curve_construction.self_us":
            (per_call("construct.complete_curve_construction", "self_ns", us), "us"),
        "construct.verify_trisection.time_us": (per_call("construct.verify_trisection", "total_ns", us), "us"),
        "curve.intersect_ray.self_us": (per_call("curve.intersect_ray", "self_ns", us), "us"),
        "curve.intersect_ray.roots_per_call":
            (ratio(cubic["under_info"].get("curve.intersect_ray", 0), ray["calls"]), "1/call"),
        "curve.intersect_ray.on_trace_ratio":
            (ratio(trace["under_info"].get("curve.intersect_ray", 0), trace["under"].get("curve.intersect_ray", 0)),
             "ratio"),
        "curve.on_trace.time_us": (per_call("curve.on_trace", "total_ns", us), "us"),
        "curve.on_trace.calls_per_op": (ratio(trace["calls"], ops), "1/op"),
        "curve.sample_trace.time_ms": (per_call("curve.sample_trace", "total_ns", ms), "ms"),
        "curve.trace_point.calls_per_doc": (ratio(rec("curve.trace_point")["calls"], ops), "1/doc"),
        "geom.solve_cubic.time_us": (per_call("geom.solve_cubic", "total_ns", us), "us"),
        "geom.solve_cubic.calls_per_op": (ratio(cubic["calls"], ops), "1/op"),
        "geom.intersect_circle_line.time_us": (per_call("geom.intersect_circle_line", "total_ns", us), "us"),
        "linkage.scudder_place.self_us": (per_call("linkage.scudder_place", "self_ns", us), "us"),
        "linkage.scudder_place.iterations": (ratio(place["info_sum"], place["calls"]), "1/call"),
        "linkage.state_from_leg_angle.calls_per_op":
            (ratio(state["under"].get("linkage.scudder_place", 0), place["calls"]), "1/placement"),
        "linkage.state_from_leg_angle.time_us": (per_call("linkage.state_from_leg_angle", "total_ns", us), "us"),
        "certificate.pass_ratio": (ratio(cert["info_sum"], cert["calls"]), "ratio"),
        "certificate.from_residuals.calls": (cert["calls"], "count"),
        "certificate.from_residuals.time_us": (per_call("certificate.from_residuals", "total_ns", us), "us"),
        "svg.Scene.to_svg.time_ms": (per_call("svg.Scene.to_svg", "total_ns", ms), "ms"),
        "svg.Scene.polyline.time_ms": (per_call("svg.Scene.polyline", "total_ns", ms), "ms"),
        "svg.bytes_per_doc": (ratio(svg_doc["info_sum"], svg_doc["calls"]), "B"),
    }
    for name in ("curve_svg", "curve_csv", "simulate_csv", "trisect_svg", "main"):
        m[f"cli.{name}.self_ms"] = (per_call(f"cli.{name}", "self_ns", ms), "ms")
    return m


# Modules whose import self time is reported, as `import.<module>.self_ms`.
IMPORT_MODULES = (
    "trisectrix", "trisectrix.geom", "trisectrix.curve", "trisectrix.linkage", "trisectrix.construct",
    "trisectrix.certificate", "trisectrix.svg", "trisectrix.cli", "argparse", "json", "tempfile",
    "pathlib", "xml.etree.ElementTree", "dataclasses",
)
IMPORT_MARK = "@@perfbench-import-start@@"
IMPORT_CODE = f"import sys; sys.stderr.write('{IMPORT_MARK}\\n'); sys.stderr.flush(); import trisectrix.cli"
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """Module -> (self_us, cumulative_us) for the imports after the marker line."""
    _, sep, tail = stderr.partition(IMPORT_MARK)
    if not sep:
        raise ValueError("import marker missing from -X importtime output")
    table = {}
    for line in tail.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            table[match.group(3)] = (int(match.group(1)), int(match.group(2)))
    return table
