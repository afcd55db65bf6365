"""Line-based text formats for graphs, loops and puzzle boards.

Graph file::

    grid <cols> <rows>
    edge <x1> <y1> <x2> <y2>
    # comment lines start with '#'

Loop file::

    loop <n>
    <x> <y>        (n lines, cells in cyclic order)

Puzzle board files share a ``<kind> <width> <height>`` header followed by
one line per board row, top row first, holding one token per cell
(:class:`BoardFormat`).  An All or Nothing row holds whitespace-separated
alphanumeric region ids; a Water Walk row holds one character per cell,
``~`` water, ``.`` ground or a clue ``1``-``9`` on ground.

All parsers reject anything they do not understand, naming the offending
line; emitters write the canonical form, so emit(parse(text)) == text for
canonical input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count, filterfalse
from operator import itemgetter, not_
from typing import Callable, Iterable

from .errors import ParseError
from .model import Cell, GridGraph, LoopPath, canonical_edge, grid_graph


def _content_lines(text: str) -> tuple[list[int], list[str]]:
    """The line numbers and stripped text of every line but blanks and
    comments, as two lists; a blank line's first character, "", is in "#"
    as a comment's is."""
    lines = list(map(str.strip, text.splitlines()))
    keep = list(map(not_, map("#".__contains__, map(itemgetter(slice(1)), lines))))
    return list(compress(count(1), keep)), list(compress(lines, keep))


# an ASCII decimal integer (``int`` alone would also take ``+2``, ``1_0``
# and non-ASCII digits), and the start of a line, in lines joined by
# newlines, that is not a cell line (``[^\S\n]`` is what ``split`` splits at)
_INT = "-?[0-9]+"
_NOT_A_CELL_LINE = re.compile(rf"^(?!{_INT}[^\S\n]+{_INT}$)", re.MULTILINE)


def _ints(parts: list[str], lineno: int) -> list[int]:
    """The integers ``parts`` spell, each an ASCII decimal integer."""
    for p in parts:
        if not re.fullmatch(_INT, p):
            raise ParseError(f"expected an integer, got {p!r}", lineno)
    return list(map(int, parts))


def _fields(lineno: int, line: str, form: str) -> list[int]:
    """The integers of a line that must read ``form``, a keyword and then
    integer fields, such as ``grid <cols> <rows>``."""
    parts, words = line.split(), form.split()
    if len(parts) != len(words) or parts[0] != words[0]:
        raise ParseError(f"expected '{form}', got {line!r}", lineno)
    return _ints(parts[1:], lineno)


def _headed(text: str, what: str, form: str) -> tuple[int, list[int], list[int], list[str]]:
    """The header's line number and integers, and the line numbers and
    text of the other content lines, of a ``what`` file whose first
    content line reads ``form``."""
    numbers, lines = _content_lines(text)
    if not lines:
        raise ParseError(f"empty {what} file")
    return numbers[0], _fields(numbers[0], lines[0], form), numbers[1:], lines[1:]


@dataclass(frozen=True)
class BoardFormat:
    """One puzzle's board file.  A ``spaced`` row separates its tokens by
    whitespace and pads each to the board's longest token; otherwise each
    character is a cell's token.  A token that fails ``valid`` is reported
    with the ``invalid`` message, formatted with the token."""

    kind: str
    spaced: bool
    valid: Callable[[str], bool]
    invalid: str

    def read_rows(self, text: str) -> tuple[int, int, list]:
        """The width and height of a board file and its rows, top row
        first, each the sequence of its cells' tokens."""
        lineno, (width, height), numbers, lines = _headed(
            text, "instance", f"{self.kind} <width> <height>")
        if width < 1 or height < 1:
            raise ParseError(f"board dimensions must be positive, got {width}x{height}", lineno)
        if len(lines) != height:
            raise ParseError(f"expected {height} rows, got {len(lines)}")
        unit = "tokens" if self.spaced else "cells"
        rows = []
        for lineno, line in zip(numbers, lines):
            tokens = line.split() if self.spaced else line
            if len(tokens) != width:
                raise ParseError(f"row has {len(tokens)} {unit}, expected {width}", lineno)
            bad = next(filterfalse(self.valid, tokens), None)
            if bad is not None:
                raise ParseError(self.invalid.format(bad), lineno)
            rows.append(tokens)
        return width, height, rows

    def write(self, width: int, height: int, tokens: Iterable[str], marked=frozenset()) -> str:
        """Board rows, top row first, of the cells' ``tokens`` in board
        order (row ``y`` is ``tokens[y::height]``), with ``#`` on each
        ``marked`` cell."""
        tokens = list(tokens)
        wide = max(map(len, tokens)) if self.spaced else 1
        for x, y in marked:
            if 0 <= x < width and 0 <= y < height:
                tokens[x * height + y] = "#"
        if wide > 1:
            tokens = [tok.ljust(wide) for tok in tokens]
        sep = " " if self.spaced else ""
        return "".join(sep.join(tokens[y::height]).rstrip() + "\n"
                       for y in range(height - 1, -1, -1))


AON_BOARD = BoardFormat("aon", True, str.isalnum, "region id {!r} is not alphanumeric")
WW_BOARD = BoardFormat("ww", False, frozenset("~.123456789").__contains__,
                       "unknown terrain character {!r}")


def parse_graph(text: str) -> GridGraph:
    lineno, (cols, rows), numbers, body = _headed(text, "graph", "grid <cols> <rows>")
    if cols < 1 or rows < 1:
        raise ParseError(f"grid dimensions must be positive, got {cols}x{rows}", lineno)

    edges = []
    seen = set()
    for lineno, line in zip(numbers, body):
        x1, y1, x2, y2 = _fields(lineno, line, "edge <x1> <y1> <x2> <y2>")
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
    """The loop of a loop file.  One search checks every cell line; only if
    it finds a bad one are the lines read one by one, to name the first."""
    lineno, (n,), numbers, body = _headed(text, "loop", "loop <n>")
    if len(body) != n:
        lineno = numbers[-1] if numbers else lineno
        raise ParseError(f"expected {n} cell lines, got {len(body)}", lineno)
    if _NOT_A_CELL_LINE.search("\n".join(body)):
        for lineno, line in zip(numbers, body):
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(f"expected '<x> <y>', got {line!r}", lineno)
            _ints(fields, lineno)
    # a chunk of lines at a time, so as to hold one chunk's field strings
    cells: list[Cell] = []
    for i in range(0, n, 2048):
        ints = map(int, " ".join(body[i:i + 2048]).split())
        cells += zip(ints, ints)
    return LoopPath(tuple(cells))


def emit_loop(loop: LoopPath) -> str:
    lines = [f"loop {len(loop.cells)}"]
    lines.extend(f"{x} {y}" for x, y in loop.cells)
    return "\n".join(lines) + "\n"
