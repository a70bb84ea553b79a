"""Tiny deterministic SVG scene builder for construction diagrams.

World coordinates are y-up; the renderer flips to SVG's y-down screen
space.  All numbers are emitted at a fixed decimal precision so repeated
runs produce byte-identical files.  Each shape is written as element
text, with no XML library; a polyline's points stay in their formatted
blocks, and the document is joined once.  Nothing is escaped because
nothing needs it: every attribute value and every label is a formatted
number or a constant of this package.
"""

from __future__ import annotations

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
# A label's baseline starts this far right of and above (negative y) its point.
LABEL_DX_PX, LABEL_DY_PX = 6.0, -6.0

# Every diagram shows the world window [X_MIN, X_MAX] x [Y_MIN, Y_MAX] on a
# WIDTH_PX x HEIGHT_PX canvas, at SCALE pixels per unit on both axes.
WIDTH_PX = 900
HEIGHT_PX = 600
X_MIN, X_MAX = -3.0, 6.0
Y_MIN, Y_MAX = -2.0, 4.0
SCALE = 100.0


# The most rows of a table that one str.format call writes.  Past ~128
# rows a bigger block is no faster; a block, not the whole table, bounds
# the memory its arguments take.
BLOCK_ROWS = 512


def fixed_field(precision: int) -> str:
    """Format field for every SVG and CSV number, at ``precision`` decimals.

    The ``z`` flag prints a value that rounds to zero unsigned, never "-0.000".
    fixed_blocks repeats this field in one template per block of rows.
    """
    return f"{{:z.{precision}f}}"


def fixed_blocks(rows: list, flatten, fields: int, precision: int, sep: str) -> list[str]:
    """``rows`` as text, ``fields`` comma-separated fixed_field numbers a row, rows joined by ``sep``.

    ``flatten(block)`` gives a slice of at most BLOCK_ROWS rows as one flat
    list of its numbers, row by row; each block is formatted by one
    str.format call.  The blocks, joined by ``sep``, are the whole table.
    """
    row = ",".join([fixed_field(precision)] * fields)
    blocks = []
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        blocks.append(sep.join([row] * len(block)).format(*flatten(block)))
    return blocks


_PROLOGUE = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH_PX}" height="{HEIGHT_PX}"'
    f' viewBox="0 0 {WIDTH_PX} {HEIGHT_PX}">'
    f'<rect x="0" y="0" width="{WIDTH_PX}" height="{HEIGHT_PX}" fill="#ffffff" />'
)


def to_screen(p: Point) -> tuple[float, float]:
    """Screen position of a world point: x to the right, y flipped downward."""
    return (p.x - X_MIN) * SCALE, HEIGHT_PX - (p.y - Y_MIN) * SCALE


def screen_xy(world_xy):
    """Block flattener for Scene.polyline: screen positions, x and y alternating, of rows at world_xy(row)."""

    def flatten(block: list) -> list[float]:
        # to_screen in line: one call fewer per point of a long trace
        flat = []
        append = flat.append
        for row in block:
            x, y = world_xy(row)
            append((x - X_MIN) * SCALE)
            append(HEIGHT_PX - (y - Y_MIN) * SCALE)
        return flat

    return flatten


def _meets_canvas(left: float, top: float, right: float, bottom: float) -> bool:
    """Whether the screen box [left, right] x [top, bottom] meets the canvas."""
    return right >= 0.0 and left <= WIDTH_PX and bottom >= 0.0 and top <= HEIGHT_PX


class Scene:
    """Accumulates shapes in draw order and serializes to an SVG document."""

    def __init__(self, precision: int):
        self._precision = precision
        self._fmt = fixed_field(precision).format
        self._parts = [_PROLOGUE]

    def line(
        self, p1: Point, p2: Point, color: str, width: float = STROKE_MAIN, dashed: bool = False, *, cls: str
    ) -> None:
        fmt = self._fmt
        (x1, y1), (x2, y2) = to_screen(p1), to_screen(p2)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self._parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}"'
            f' stroke="{color}" stroke-width="{width}"{dash} class="{cls}" />'
        )

    def polyline(self, rows: list, flatten, color: str, width: float, *, cls: str) -> None:
        """Polyline through the screen positions ``flatten`` (see screen_xy) gives ``rows``.

        Its formatted blocks (fixed_blocks) stay parts of the scene, joined once by to_svg.
        """
        blocks = fixed_blocks(rows, flatten, 2, self._precision, " ")
        points = [" "] * (2 * len(blocks) - 1)
        points[::2] = blocks
        tail = f'" fill="none" stroke="{color}" stroke-width="{width}" class="{cls}" />'
        self._parts += ['<polyline points="', *points, tail]

    def circle(self, center: Point, radius: float, color: str, *, cls: str) -> None:
        """Circle outline, drawn only if its pixel extent can meet the canvas."""
        fmt = self._fmt
        cx, cy = to_screen(center)
        reach = radius * SCALE + STROKE_MAIN / 2.0
        if not _meets_canvas(cx - reach, cy - reach, cx + reach, cy + reach):
            return
        self._parts.append(
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(radius * SCALE)}"'
            f' fill="none" stroke="{color}" stroke-width="{STROKE_MAIN}" class="{cls}" />'
        )

    def witness(self, p: Point, label: str, *, cls: str) -> None:
        """Cross marker (a path, so circle counts stay meaningful) labelled to
        its upper right; each is drawn only if its pixel extent can meet the canvas."""
        cx, cy = to_screen(p)
        h = MARKER_HALF_PX
        reach = h + STROKE_BOLD / 2.0
        if _meets_canvas(cx - reach, cy - reach, cx + reach, cy + reach):
            left, top, right, bottom = map(self._fmt, (cx - h, cy - h, cx + h, cy + h))
            self._parts.append(
                f'<path d="M {left} {top} L {right} {bottom} M {left} {bottom} L {right} {top}"'
                f' stroke="{COLOR_MARKER}" stroke-width="{STROKE_BOLD}" fill="none" class="{cls}" />'
            )
        # the label's baseline starts at (x, y); each glyph fits in one em square
        x, y = cx + LABEL_DX_PX, cy + LABEL_DY_PX
        if _meets_canvas(x, y - FONT_SIZE_PX, x + FONT_SIZE_PX * len(label), y):
            self.text(p, label)

    def text(self, p: Point, label: str, dx_px: float = LABEL_DX_PX, dy_px: float = LABEL_DY_PX) -> None:
        cx, cy = to_screen(p)
        self._parts.append(
            f'<text x="{self._fmt(cx + dx_px)}" y="{self._fmt(cy + dy_px)}" font-family="monospace"'
            f' font-size="{FONT_SIZE_PX}" fill="{COLOR_MARKER}">{label}</text>'
        )

    def to_svg(self) -> str:
        return "".join([*self._parts, "</svg>\n"])
