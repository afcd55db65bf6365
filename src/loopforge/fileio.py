"""Line-based text formats for graphs and loops.

Graph file::

    grid <cols> <rows>
    edge <x1> <y1> <x2> <y2>
    # comment lines start with '#'

Loop file::

    loop <n>
    <x> <y>        (n lines, cells in cyclic order)

Puzzle board files share a ``<kind> <width> <height>`` header followed by
one line per board row, top row first (:func:`board_rows`).

All parsers reject anything they do not understand, naming the offending
line; emitters write the canonical form, so emit(parse(text)) == text for
canonical input.
"""

from __future__ import annotations

from .errors import ParseError
from .model import GridGraph, LoopPath, canonical_edge, grid_graph


def _content_lines(text: str):
    """Yield (line_number, stripped_line), skipping blanks and comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def _ints(parts: list[str], lineno: int) -> list[int]:
    """ASCII decimal integers, an optional leading minus allowed; ``int``
    alone would also take ``+2``, ``1_0`` and non-ASCII digits."""
    out = []
    for p in parts:
        if not (p.isdigit() and p.isascii()) and \
                not (p[:1] == "-" and p[1:].isdigit() and p.isascii()):
            raise ParseError(f"expected an integer, got {p!r}", lineno)
        out.append(int(p))
    return out


def board_rows(text: str, kind: str) -> tuple[int, int, list[tuple[int, str]]]:
    """Split a puzzle board file, headed ``<kind> <width> <height>``, into
    its size and its rows as (line_number, stripped_line), top row first."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty instance file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != kind:
        raise ParseError(f"expected '{kind} <width> <height>', got {header!r}", lineno)
    width, height = _ints(parts[1:], lineno)
    if width < 1 or height < 1:
        raise ParseError(f"board dimensions must be positive, got {width}x{height}", lineno)
    rows = lines[1:]
    if len(rows) != height:
        raise ParseError(f"expected {height} rows, got {len(rows)}")
    return width, height, rows


def parse_graph(text: str) -> GridGraph:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "grid":
        raise ParseError(f"expected 'grid <cols> <rows>', got {header!r}", lineno)
    cols, rows = _ints(parts[1:], lineno)
    if cols < 1 or rows < 1:
        raise ParseError(f"grid dimensions must be positive, got {cols}x{rows}", lineno)

    edges = []
    seen = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] != "edge" or len(parts) != 5:
            raise ParseError(f"expected 'edge <x1> <y1> <x2> <y2>', got {line!r}", lineno)
        x1, y1, x2, y2 = _ints(parts[1:], lineno)
        u, v = (x1, y1), (x2, y2)
        for w in (u, v):
            if not (0 <= w[0] < cols and 0 <= w[1] < rows):
                raise ParseError(f"vertex {w} outside {cols}x{rows} grid", lineno)
        if abs(x1 - x2) + abs(y1 - y2) != 1:
            raise ParseError(f"edge {u}-{v} is not a unit grid edge", lineno)
        e = canonical_edge(u, v)
        if e in seen:
            raise ParseError(f"duplicate edge {u}-{v}", lineno)
        seen.add(e)
        edges.append(e)
    return grid_graph(cols, rows, edges)


def emit_graph(g: GridGraph) -> str:
    lines = [f"grid {g.cols} {g.rows}"]
    for (x1, y1), (x2, y2) in sorted(g.edges):
        lines.append(f"edge {x1} {y1} {x2} {y2}")
    return "\n".join(lines) + "\n"


def parse_loop(text: str) -> LoopPath:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty loop file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "loop":
        raise ParseError(f"expected 'loop <n>', got {header!r}", lineno)
    (n,) = _ints(parts[1:], lineno)
    body = lines[1:]
    if len(body) != n:
        lineno = body[-1][0] if body else lineno
        raise ParseError(f"expected {n} cell lines, got {len(body)}", lineno)
    cells = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<x> <y>', got {line!r}", lineno)
        x, y = _ints(parts, lineno)
        cells.append((x, y))
    return LoopPath(tuple(cells))


def emit_loop(loop: LoopPath) -> str:
    lines = [f"loop {len(loop.cells)}"]
    lines.extend(f"{x} {y}" for x, y in loop.cells)
    return "\n".join(lines) + "\n"
