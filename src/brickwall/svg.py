"""SVG rendering of brick patterns.

Lattice row 0 renders at the bottom (y axis flipped), one rect per brick,
stroked with the mortar color.  Output is byte-deterministic: bricks are
emitted in the (y, x, type_id) order every Pattern keeps, in one pass, and
numbers use fixed formatting with at most three decimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .generate import Pattern
from .rules import PALETTE, SubstitutionRule


@dataclass(frozen=True)
class RenderStyle:
    cell_size: float = 20.0
    mortar_width: float = 1.5
    mortar_color: str = "#808080"
    background: Optional[str] = None
    palette: Tuple[str, ...] = PALETTE


def _fmt(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return s if s and s != "-0" else "0"


class _Memo(dict):
    """fn(key), computed on the first lookup of each key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def to_svg(pattern: Pattern, style: Optional[RenderStyle] = None,
           rule: Optional[SubstitutionRule] = None) -> str:
    """Render a pattern as an SVG document string.

    Colors come from the rule's brick types when the rule is given,
    otherwise from the style palette in sorted type order.
    """
    if not pattern.bricks:
        raise ValueError("cannot render an empty pattern")
    style = style or RenderStyle()
    if style.cell_size <= 0:
        raise ValueError(f"cell_size must be positive, got {style.cell_size}")

    if rule is not None:
        colors = {t.id: t.color for t in rule.types}
        order = rule.type_ids
    else:
        colors = {}
        order = tuple(sorted({b.type_id for b in pattern.bricks}))
    for i, tid in enumerate(order):
        colors.setdefault(tid, style.palette[i % len(style.palette)])

    min_x, min_y, max_x, max_y = pattern.bbox()
    cs, pad = style.cell_size, style.mortar_width
    width = (max_x - min_x) * cs + 2 * pad
    height = (max_y - min_y) * cs + 2 * pad

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}"'
             f' height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">']
    if style.background:
        lines.append(f'<rect x="0" y="0" width="{_fmt(width)}"'
                     f' height="{_fmt(height)}" fill="{style.background}"/>')

    def size_and_paint(key):
        tid, w, h = key
        return (f' width="{_fmt(w * cs)}" height="{_fmt(h * cs)}"'
                f' fill="{colors[tid]}" stroke="{style.mortar_color}"'
                f' stroke-width="{_fmt(style.mortar_width)}"/>')

    # each distinct x, top edge and (type, size) is formatted once
    head = _Memo(lambda x: f'<rect x="{_fmt((x - min_x) * cs + pad)}" y="')
    # flip so row 0 is at the bottom
    mid = _Memo(lambda top: f'{_fmt((max_y - top) * cs + pad)}"')
    tail = _Memo(size_and_paint)
    for tid, x, y, w, h in pattern.bricks:
        lines.append(head[x] + mid[y + h] + tail[tid, w, h])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
