"""Tiny deterministic SVG scene builder for construction diagrams.

World coordinates are y-up; the renderer flips to SVG's y-down screen
space.  All numbers are emitted at a fixed decimal precision so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

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

# Every diagram shows the world window [X_MIN, X_MAX] x [Y_MIN, Y_MAX] on a
# WIDTH_PX x HEIGHT_PX canvas, at SCALE pixels per unit on both axes.
WIDTH_PX = 900
HEIGHT_PX = 600
X_MIN, X_MAX = -3.0, 6.0
Y_MIN, Y_MAX = -2.0, 4.0
SCALE = 100.0


def fixed_field(precision: int) -> str:
    """Format field for every SVG and CSV number, at ``precision`` decimals.

    The ``z`` flag prints a value that rounds to zero unsigned, never "-0.000".
    """
    return f"{{:z.{precision}f}}"


def to_screen(p: Point) -> tuple[float, float]:
    """Screen position of a world point: x to the right, y flipped downward."""
    return (p.x - X_MIN) * SCALE, HEIGHT_PX - (p.y - Y_MIN) * SCALE


class Scene:
    """Accumulates shapes in draw order and serializes to an SVG document."""

    def __init__(self, precision: int):
        if not 1 <= precision <= 15:
            raise ValueError(f"precision must lie in [1, 15], got {precision}")
        field = fixed_field(precision)
        self._fmt = field.format
        self._pair = f"{field},{field}".format
        self.root = ET.Element(
            "svg",
            {
                "xmlns": "http://www.w3.org/2000/svg",
                "width": str(WIDTH_PX),
                "height": str(HEIGHT_PX),
                "viewBox": f"0 0 {WIDTH_PX} {HEIGHT_PX}",
            },
        )
        ET.SubElement(
            self.root,
            "rect",
            {"x": "0", "y": "0", "width": str(WIDTH_PX), "height": str(HEIGHT_PX), "fill": "#ffffff"},
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
        x1, y1 = to_screen(p1)
        x2, y2 = to_screen(p2)
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
        # to_screen inlined: one call fewer per point of a long trace
        pair = self._pair
        coords = " ".join([pair((p.x - X_MIN) * SCALE, HEIGHT_PX - (p.y - Y_MIN) * SCALE) for p in points])
        attrs = {"points": coords, "fill": "none", "stroke": color, "stroke-width": str(width)}
        if cls:
            attrs["class"] = cls
        ET.SubElement(self.root, "polyline", attrs)

    def circle(self, center: Point, radius: float, color: str, cls: str | None = None) -> None:
        cx, cy = to_screen(center)
        attrs = {
            "cx": self._fmt(cx),
            "cy": self._fmt(cy),
            "r": self._fmt(radius * SCALE),
            "fill": "none",
            "stroke": color,
            "stroke-width": str(STROKE_MAIN),
        }
        if cls:
            attrs["class"] = cls
        ET.SubElement(self.root, "circle", attrs)

    def marker(self, p: Point, cls: str | None = None) -> None:
        """Cross marker; drawn as a path so circle counts stay meaningful."""
        cx, cy = to_screen(p)
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
        cx, cy = to_screen(p)
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
