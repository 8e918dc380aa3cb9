"""SVG rendering of brick patterns.

Each brick is one rect filled with its type's color from the rule, at a
fixed scale of CELL_SIZE units per lattice cell, stroked with MORTAR_COLOR
at MORTAR_WIDTH; the document is padded by MORTAR_WIDTH on every side.
Lattice row 0 renders at the bottom (y axis flipped).  Output is
byte-deterministic: bricks are emitted in the (y, x, type_id) order every
Pattern keeps, in one pass that formats a fixed-size slice of bricks at a
time, and numbers use fixed formatting with at most three decimals.
"""

from __future__ import annotations

from typing import Iterator

from .generate import _SLICE_ROWS, Pattern, _Memo
from .rules import SubstitutionRule

CELL_SIZE = 20
MORTAR_WIDTH = 1.5
MORTAR_COLOR = "#808080"


def _fmt(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return s if s and s != "-0" else "0"


def _svg_slices(pattern: Pattern, rule: SubstitutionRule) -> Iterator[str]:
    """to_svg's document: the <svg> line, then _SLICE_ROWS rects a string,
    then the closing </svg> line."""
    if not pattern.rows:
        raise ValueError("cannot render an empty pattern")

    min_x, min_y, max_x, max_y = pattern.bbox()
    cs, pad = CELL_SIZE, MORTAR_WIDTH
    width = _fmt((max_x - min_x) * cs + 2 * pad)
    height = _fmt((max_y - min_y) * cs + 2 * pad)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
           f' height="{height}" viewBox="0 0 {width} {height}">\n')

    def top_size_and_paint(key):
        top, tid, w, h = key  # flip so row 0 is at the bottom
        return (f'{_fmt((max_y - top) * cs + pad)}" width="{_fmt(w * cs)}"'
                f' height="{_fmt(h * cs)}" fill="{rule.get_type(tid).color}"'
                f' stroke="{MORTAR_COLOR}" stroke-width="{_fmt(pad)}"/>')

    # each distinct x and (top edge, type, size) is formatted once
    head = _Memo(lambda x: f'<rect x="{_fmt((x - min_x) * cs + pad)}" y="')
    tail = _Memo(top_size_and_paint)
    for i in range(0, len(pattern.rows), _SLICE_ROWS):
        yield "\n".join([head[x] + tail[y + h, tid, w, h]
                         for tid, x, y, w, h in pattern.rows[i:i + _SLICE_ROWS]]) + "\n"
    yield "</svg>\n"


def to_svg(pattern: Pattern, rule: SubstitutionRule) -> str:
    """Render a pattern as an SVG document string, each brick in the color
    of its type in ``rule`` (RuleError for a type the rule lacks).  Nothing
    checks the wall: of two overlapping bricks the later in wall order is
    drawn on top, and a hole is left bare."""
    return "".join(_svg_slices(pattern, rule))
