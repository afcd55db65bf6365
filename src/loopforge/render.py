"""Deterministic SVG renderings of puzzle boards and loops."""

from __future__ import annotations

from itertools import compress
from operator import add, itemgetter, ne

from . import aon, waterwalk
from .model import LoopPath

CELL = 20  # SVG units per cell


def render_svg(inst, loop: LoopPath | None = None) -> str:
    """Board with heavy region borders (or terrain fills) and the loop as a
    polyline through cell centers; byte-identical output for equal input.

    Nothing is formatted per cell: a board row joins the elements, each
    made once per column with the row's height left open, that a mask over
    the row selects, and fills in its height once.  Both boards are in
    board order, so row ``y`` is every ``height``-th cell from ``y``: the
    mask is where a Water Walk row's ``cells`` are water, or where an All
    or Nothing row's region ``ids`` differ from their east or north
    neighbours'."""
    w, h = inst.width * CELL, inst.height * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    if isinstance(inst, waterwalk.WwInstance):
        # per column, the start of a water cell's rect, which the row's
        # tail, its height and the rest, completes
        heads = [f'<rect x="{x * CELL}" y="' for x in range(inst.width)]
        for y in range(inst.height):
            tail = f'{h - (y + 1) * CELL}" width="{CELL}" height="{CELL}" fill="#bfe4f2"/>'
            wet = map("~".__eq__, inst.cells[y::inst.height])
            rects = (tail + "\n").join(compress(heads, wet))
            parts += [rects + tail] if rects else []
        for (x, y), n in inst.numbers.items():
            cx, cy = x * CELL + CELL // 2, (inst.height - y) * CELL - CELL // 2 + 5
            parts.append(f'<text x="{cx}" y="{cy}" font-size="14" text-anchor="middle">{n}</text>')
        parts.append(_svg_grid_lines(inst))
    elif isinstance(inst, aon.AonInstance):
        parts.append(_svg_grid_lines(inst))
        parts.append(_svg_region_borders(inst))
    else:
        raise TypeError(f"cannot render {type(inst).__name__}")

    if loop is not None:
        ring = loop.cells + loop.cells[:1]
        xs, ys = list(map(itemgetter(0), ring)), list(map(itemgetter(1), ring))
        cx = {x: f"{x * CELL + CELL // 2}," for x in set(xs)}
        cy = {y: f"{(inst.height - y) * CELL - CELL // 2:.0f}" for y in set(ys)}
        pts = " ".join(map(add, map(cx.__getitem__, xs), map(cy.__getitem__, ys)))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#2a8f2a" stroke-width="4"/>')
    parts += ["</svg>", ""]  # the empty last part ends the text with a newline
    return "\n".join(parts)


def _svg_grid_lines(inst) -> str:
    w, h = inst.width * CELL, inst.height * CELL
    lines = []
    for x in range(inst.width + 1):
        lines.append(f'<line x1="{x * CELL}" y1="0" x2="{x * CELL}" y2="{h}" '
                     f'stroke="#cccccc" stroke-width="1"/>')
    for y in range(inst.height + 1):
        lines.append(f'<line x1="0" y1="{y * CELL}" x2="{w}" y2="{y * CELL}" '
                     f'stroke="#cccccc" stroke-width="1"/>')
    return "\n".join(lines)


_BORDER = '<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="#aa2222" stroke-width="3"/>'


def _svg_region_borders(inst: aon.AonInstance) -> str:
    """Heavy strokes wherever two cells belong to different regions, plus
    the outer border: row by row from the bottom, and in a row cell by
    cell, each cell's east side before its north side."""
    width, height = inst.width, inst.height
    ids = inst.regions.ids  # cell (x, y) at x * height + y
    # per cell in board order, whether its east and its north side part
    # two regions
    east = list(map(ne, ids, ids[height:])) + [False] * height
    north = list(map(ne, ids, ids[1:])) + [False]
    north[height - 1::height] = [False] * width
    # per cell of a row, its east side, then its north side, with the
    # heights of the row's bottom and top left open
    sides, mask = [], [False] * (2 * width)
    for x in range(width):
        sides += (_BORDER.format((x + 1) * CELL, "%(bottom)s", (x + 1) * CELL, "%(top)s"),
                  _BORDER.format(x * CELL, "%(top)s", (x + 1) * CELL, "%(top)s"))
    segs = []
    for y in range(height):
        mask[::2], mask[1::2] = east[y::height], north[y::height]
        text = "\n".join(compress(sides, mask))
        heights = {"bottom": str((height - y) * CELL), "top": str((height - y - 1) * CELL)}
        segs += [text % heights] if text else []
    w, h = width * CELL, height * CELL
    segs += (_BORDER.format(0, h, w, h), _BORDER.format(0, 0, w, 0),
             _BORDER.format(0, h, 0, 0), _BORDER.format(w, h, w, 0))
    return "\n".join(segs)
