"""Tiny deterministic SVG scene builder for construction diagrams.

World coordinates are y-up; the renderer flips to SVG's y-down screen
space.  All numbers are emitted at a fixed decimal precision so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.etree import ElementTree as ET

from .geom import Point

COLOR_AXIS = "#888888"
COLOR_GUIDE = "#bbbbbb"
COLOR_ASYMPTOTE = "#c0392b"
COLOR_TRACE = "#1f6feb"
COLOR_BASE_RAY = "#333333"
COLOR_TRISECTOR = "#d97706"
COLOR_CIRCLE = "#7c3aed"
COLOR_MARKER = "#111111"

STROKE_THIN = 1.0
STROKE_MAIN = 1.5
STROKE_BOLD = 2.0

MARKER_HALF_PX = 4.0
FONT_SIZE_PX = 14


def fixed_field(precision: int) -> str:
    """Format field for every SVG and CSV number, at ``precision`` decimals.

    The ``z`` flag prints a value that rounds to zero unsigned, never "-0.000".
    """
    return f"{{:z.{precision}f}}"


@dataclass(frozen=True)
class RenderSpec:
    """Canvas size, world window, and coordinate precision for a diagram."""

    width_px: int = 900
    height_px: int = 600
    x_min: float = -3.0
    x_max: float = 6.0
    y_min: float = -2.0
    y_max: float = 4.0
    precision: int = 6

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("canvas size must be positive")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("world window is degenerate")
        if not 1 <= self.precision <= 15:
            raise ValueError(f"precision must lie in [1, 15], got {self.precision}")

    @property
    def x_scale(self) -> float:
        return self.width_px / (self.x_max - self.x_min)

    @property
    def y_scale(self) -> float:
        return self.height_px / (self.y_max - self.y_min)

    def to_screen(self, p: Point) -> tuple[float, float]:
        sx = (p.x - self.x_min) * self.x_scale
        sy = self.height_px - (p.y - self.y_min) * self.y_scale
        return sx, sy


class Scene:
    """Accumulates shapes in draw order and serializes to an SVG document."""

    def __init__(self, spec: RenderSpec):
        self.spec = spec
        self._fmt = fixed_field(spec.precision).format
        self.root = ET.Element(
            "svg",
            {
                "xmlns": "http://www.w3.org/2000/svg",
                "width": str(spec.width_px),
                "height": str(spec.height_px),
                "viewBox": f"0 0 {spec.width_px} {spec.height_px}",
            },
        )
        ET.SubElement(
            self.root,
            "rect",
            {"x": "0", "y": "0", "width": str(spec.width_px), "height": str(spec.height_px), "fill": "#ffffff"},
        )

    def line(
        self,
        p1: Point,
        p2: Point,
        color: str,
        width: float = STROKE_MAIN,
        dashed: bool = False,
        cls: str | None = None,
    ) -> None:
        x1, y1 = self.spec.to_screen(p1)
        x2, y2 = self.spec.to_screen(p2)
        attrs = {
            "x1": self._fmt(x1),
            "y1": self._fmt(y1),
            "x2": self._fmt(x2),
            "y2": self._fmt(y2),
            "stroke": color,
            "stroke-width": str(width),
        }
        if dashed:
            attrs["stroke-dasharray"] = "6 4"
        if cls:
            attrs["class"] = cls
        ET.SubElement(self.root, "line", attrs)

    def polyline(self, points: list[Point], color: str, width: float = STROKE_MAIN, cls: str | None = None) -> None:
        spec = self.spec
        pair = ",".join([fixed_field(spec.precision)] * 2).format
        # to_screen, inlined with the window read once per polyline
        x_min, x_scale, y_min, y_scale, height = spec.x_min, spec.x_scale, spec.y_min, spec.y_scale, spec.height_px
        coords = " ".join([pair((p.x - x_min) * x_scale, height - (p.y - y_min) * y_scale) for p in points])
        attrs = {"points": coords, "fill": "none", "stroke": color, "stroke-width": str(width)}
        if cls:
            attrs["class"] = cls
        ET.SubElement(self.root, "polyline", attrs)

    def circle(self, center: Point, radius: float, color: str, cls: str | None = None) -> None:
        cx, cy = self.spec.to_screen(center)
        rx = radius * self.spec.x_scale
        ry = radius * self.spec.y_scale
        if math.isclose(rx, ry, rel_tol=1e-9):
            attrs = {
                "cx": self._fmt(cx),
                "cy": self._fmt(cy),
                "r": self._fmt(rx),
                "fill": "none",
                "stroke": color,
                "stroke-width": str(STROKE_MAIN),
            }
            tag = "circle"
        else:
            attrs = {
                "cx": self._fmt(cx),
                "cy": self._fmt(cy),
                "rx": self._fmt(rx),
                "ry": self._fmt(ry),
                "fill": "none",
                "stroke": color,
                "stroke-width": str(STROKE_MAIN),
            }
            tag = "ellipse"
        if cls:
            attrs["class"] = cls
        ET.SubElement(self.root, tag, attrs)

    def marker(self, p: Point, cls: str | None = None) -> None:
        """Cross marker; drawn as a path so circle counts stay meaningful."""
        cx, cy = self.spec.to_screen(p)
        h = MARKER_HALF_PX
        d = (
            f"M {self._fmt(cx - h)} {self._fmt(cy - h)} L {self._fmt(cx + h)} {self._fmt(cy + h)} "
            f"M {self._fmt(cx - h)} {self._fmt(cy + h)} L {self._fmt(cx + h)} {self._fmt(cy - h)}"
        )
        attrs = {"d": d, "stroke": COLOR_MARKER, "stroke-width": str(STROKE_BOLD), "fill": "none"}
        if cls:
            attrs["class"] = cls
        ET.SubElement(self.root, "path", attrs)

    def text(self, p: Point, label: str, dx_px: float = 6.0, dy_px: float = -6.0) -> None:
        cx, cy = self.spec.to_screen(p)
        ET.SubElement(
            self.root,
            "text",
            {
                "x": self._fmt(cx + dx_px),
                "y": self._fmt(cy + dy_px),
                "font-family": "monospace",
                "font-size": str(FONT_SIZE_PX),
                "fill": COLOR_MARKER,
            },
        ).text = label

    def to_svg(self) -> str:
        body = ET.tostring(self.root, encoding="unicode")
        return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
