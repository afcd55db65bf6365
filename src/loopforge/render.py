"""Deterministic ASCII and SVG renderings of puzzle boards and loops."""

from __future__ import annotations

from . import aon, waterwalk
from .model import LoopPath

CELL = 20  # SVG units per cell


def render_ascii(inst, loop: LoopPath | None = None) -> str:
    """The instance file's board rows, with ``#`` on the loop's cells."""
    marked = frozenset(loop.cells) if loop else frozenset()
    if isinstance(inst, waterwalk.WwInstance):
        return waterwalk.board_text(inst, marked)
    if isinstance(inst, aon.AonInstance):
        return aon.board_text(inst, marked)
    raise TypeError(f"cannot render {type(inst).__name__}")


def _svg_y(inst, y: float) -> float:
    return (inst.height - y) * CELL


def render_svg(inst, loop: LoopPath | None = None) -> str:
    """Board with heavy region borders (or terrain fills) and the loop as a
    polyline through cell centers; byte-identical output for equal input."""
    w, h = inst.width * CELL, inst.height * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    if isinstance(inst, waterwalk.WwInstance):
        for y in range(inst.height):
            for x in range(inst.width):
                if (x, y) not in inst.ground:
                    parts.append(
                        f'<rect x="{x * CELL}" y="{_svg_y(inst, y + 1):.0f}" '
                        f'width="{CELL}" height="{CELL}" fill="#bfe4f2"/>')
        for c in sorted(inst.numbers):
            cx = c[0] * CELL + CELL // 2
            cy = _svg_y(inst, c[1]) - CELL // 2
            parts.append(
                f'<text x="{cx:.0f}" y="{cy + 5:.0f}" font-size="14" '
                f'text-anchor="middle">{inst.numbers[c]}</text>')
        parts.append(_svg_grid_lines(inst))
    elif isinstance(inst, aon.AonInstance):
        parts.append(_svg_grid_lines(inst))
        parts.append(_svg_region_borders(inst))
    else:
        raise TypeError(f"cannot render {type(inst).__name__}")

    if loop is not None:
        pts = " ".join(
            f"{c[0] * CELL + CELL // 2},{_svg_y(inst, c[1]) - CELL // 2:.0f}"
            for c in loop.cells + (loop.cells[0],)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#2a8f2a" stroke-width="4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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


def _svg_region_borders(inst: aon.AonInstance) -> str:
    """Heavy strokes wherever two cells belong to different regions, plus
    the outer border."""
    segs = []

    def seg(x1, y1, x2, y2):
        segs.append(
            f'<line x1="{x1 * CELL}" y1="{_svg_y(inst, y1):.0f}" '
            f'x2="{x2 * CELL}" y2="{_svg_y(inst, y2):.0f}" '
            f'stroke="#aa2222" stroke-width="3"/>')

    region_of = inst.regions.region_of
    for y in range(inst.height):
        for x in range(inst.width):
            if x + 1 < inst.width and region_of[(x, y)] != region_of[(x + 1, y)]:
                seg(x + 1, y, x + 1, y + 1)
            if y + 1 < inst.height and region_of[(x, y)] != region_of[(x, y + 1)]:
                seg(x, y + 1, x + 1, y + 1)
    seg(0, 0, inst.width, 0)
    seg(0, inst.height, inst.width, inst.height)
    seg(0, 0, 0, inst.height)
    seg(inst.width, 0, inst.width, inst.height)
    return "\n".join(segs)
