"""Complement-graph orientation and per-vertex exit plans for metacell tilings.

Every vertex of a degree-{2,3} grid graph becomes a square metacell with
exits on exactly three sides.  Sides carrying graph edges are always exits;
a degree-2 vertex gets its third exit from the orientation of the
complement structure H, whose edges join grid-adjacent vertex pairs that
are *not* graph edges (plus a half-edge for every board-border side).
Orienting each H component consistently gives every vertex at most one
incoming and one outgoing incidence, and the third exit faces the
outgoing one.  Sides are 4-bit masks, bit ``d.bit`` for side ``d`` in
``DIRECTION_ORDER``, kept per vertex in board order from graph to exit
plan: the graph's edge sides, H's incidence and half-edge sides, and the
orientation's one out side, ``d.bit`` or -1 for none.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .errors import CompileError
from .fileio import BoardFormat
from .model import ORTHO_STEPS, Cell, GridGraph, Vertex, turn


class Direction(Enum):
    N = (0, 1)
    E = (1, 0)
    S = (0, -1)
    W = (-1, 0)

    # members are singletons, equal only to themselves: hash by identity in
    # C rather than through Enum.__hash__, a Python call per dict or set use
    __hash__ = object.__hash__

    def __init__(self, dx: int, dy: int):
        self.dx = dx
        self.dy = dy
        self.bit = ORTHO_STEPS.index((dx, dy))  # its place in DIRECTION_ORDER

    def opposite(self) -> "Direction":
        return DIRECTION_ORDER[self.bit ^ 2]

    def rotated(self, quarter_turns: int) -> "Direction":
        """Counterclockwise rotation: one quarter turn maps N->W->S->E->N."""
        return _ROTATIONS[self.dx, self.dy][quarter_turns % 4]


# clockwise, so a counterclockwise quarter turn steps one place back
DIRECTION_ORDER = (Direction.N, Direction.E, Direction.S, Direction.W)
# per step, its direction, and its direction at 0-3 quarter turns
_STEPS = {d.value: d for d in DIRECTION_ORDER}
_ROTATIONS = {d.value: tuple(Direction(turn(d.value, k)) for k in range(4))
              for d in DIRECTION_ORDER}
# per side mask, its sides in DIRECTION_ORDER, and the masks of two or three sides
_SIDES = [tuple(d for d in DIRECTION_ORDER if m >> d.bit & 1) for m in range(16)]
_TWO_OR_THREE = frozenset(m for m, sides in enumerate(_SIDES) if len(sides) in (2, 3))


def direction_between(u: Vertex, v: Vertex) -> Direction:
    try:
        return _STEPS[v[0] - u[0], v[1] - u[1]]
    except KeyError:
        raise ValueError(f"{u} and {v} are not grid-adjacent") from None


def directions_between(us: Sequence[Vertex], vs: Sequence[Vertex]) -> list[Direction]:
    """:func:`direction_between` of each vertex of ``us`` and the one at the
    same place in ``vs``, each read from the step table."""
    try:
        return [_STEPS[x1 - x0, y1 - y0] for (x0, y0), (x1, y1) in zip(us, vs)]
    except KeyError:  # name the first pair that is not grid-adjacent
        return list(map(direction_between, us, vs))


def turns_between(src: Direction, dst: Direction) -> int:
    """Quarter turns (counterclockwise) mapping ``src`` onto ``dst``."""
    return (src.bit - dst.bit) % 4


def rotate_cell(size: int, quarter_turns: int, cell: tuple[int, int]) -> tuple[int, int]:
    """Rotate a cell counterclockwise within a size x size frame: turn its
    offset from the frame's centre, doubled to stay whole, about the origin."""
    x, y = cell
    if not (0 <= x < size and 0 <= y < size):
        raise ValueError(f"cell {cell} outside {size}x{size} frame")
    m = size - 1
    x, y = turn((2 * x - m, 2 * y - m), quarter_turns)
    return (x + m) // 2, (y + m) // 2


@dataclass(frozen=True)
class ComplementGraph:
    """H as two side masks per vertex, in board order (``(x, y)`` at
    ``x * rows + y``): ``masks`` holds each vertex's incidences, the sides
    its graph side mask lacks, and ``halves`` the board-border sides among
    them, H's half-edges.  Every other incidence is an internal edge of H,
    seen from each of its two ends."""

    cols: int
    rows: int
    masks: tuple[int, ...]
    halves: tuple[int, ...]


def build_complement(g: GridGraph) -> ComplementGraph:
    """H has an internal edge for every grid-adjacent non-edge of g and a
    half-edge for every board-border side, giving each vertex 4 - deg(v)
    incidences: the sides its side mask lacks.  Requires every degree in
    {2, 3}, else names the first vertex in board order that breaks it."""
    masks, cols, rows = g.side_masks, g.cols, g.rows
    if not _TWO_OR_THREE.issuperset(masks):
        v, m = next((v, m) for v, m in zip(g.vertices(), masks) if m not in _TWO_OR_THREE)
        raise ValueError(f"vertex {v} has degree {len(_SIDES[m])}, expected 2 or 3")
    n, e, s, w = (1 << d.bit for d in DIRECTION_ORDER)
    # every column's south and north border sides, then the west and east columns'
    column = [s * (y == 0) | n * (y == rows - 1) for y in range(rows)]
    halves = column * cols
    halves[:rows] = [m | w for m in column]
    halves[-rows:] = [m | e for m in halves[-rows:]]
    return ComplementGraph(cols, rows, tuple([15 ^ m for m in masks]), tuple(halves))


@dataclass(frozen=True)
class Orientation:
    """Each vertex's outgoing side in board order, as its ``d.bit``, or -1
    for a vertex with none."""

    cols: int
    rows: int
    out: tuple[int, ...]

    def outgoing(self, v: Vertex) -> Direction | None:
        x, y = v
        if 0 <= x < self.cols and 0 <= y < self.rows and self.out[x * self.rows + y] >= 0:
            return DIRECTION_ORDER[self.out[x * self.rows + y]]
        return None


def orient_complement(h: ComplementGraph) -> Orientation:
    """Orient every H component consistently head-to-tail.

    Every vertex has at most two incidences, so components are paths, ended
    by half-edges or one-incidence vertices, and cycles; a walk along each
    gives every interior vertex one incoming and one outgoing incidence.
    The walk kept is the smallest candidate, nodes by vertex in board order
    and a vertex before its half-edges in ``DIRECTION_ORDER``: from a path's
    smaller end, or from a cycle's smallest vertex towards its smaller
    neighbour.  Each arc of the walk sets its tail's out side.  Walks step
    over side masks, so the work is linear in H.
    """
    masks, halves, rows = h.masks, h.halves, h.rows
    step = (1, rows, -1, -rows)  # per side, the board-order step to its neighbour
    seen = [False] * len(masks)
    out = [-1] * len(masks)

    def walk(i: int, k: int) -> tuple[list[tuple[int, int]], tuple[int, int] | None]:
        """The arcs (vertex, side) of the walk out of vertex ``i`` by side ``k``, and
        its end: a half-edge (vertex, side), a vertex (vertex, -1), or None at ``i``."""
        arcs, start = [], i
        while True:
            arcs.append((i, k))
            if halves[i] >> k & 1:
                return arcs, (i, k)
            i += step[k]
            seen[i] = True
            if i == start:
                return arcs, None
            rest = masks[i] ^ 1 << (k ^ 2)  # its sides but the one walked in by
            if not rest:
                return arcs, (i, -1)
            k = _SIDES[rest][0].bit

    for i, m in enumerate(masks):
        if not m or seen[i]:
            continue
        # i is its component's smallest vertex: a cycle meets it from north, the smaller, and east
        k = _SIDES[m][0].bit
        arcs, end = walk(i, k)
        if m != 1 << k and end:  # a path through i: walk it from its smaller end
            back, other = walk(i, _SIDES[m ^ 1 << k][0].bit)
            if end < other:
                arcs, back, other = back, arcs, end
            if other[1] >= 0:  # it enters the board by a half-edge, no vertex's out side
                back.pop()
            arcs = [(j + step[d], d ^ 2) for j, d in reversed(back)] + arcs
        for j, d in arcs:
            assert out[j] < 0, f"orientation degree bound broken at {divmod(j, rows)}"
            out[j] = d
    # one out side where two incidences meet
    bad = [j for j, m in enumerate(masks) if out[j] < 0 and len(_SIDES[m]) == 2]
    assert not bad, f"orientation degree bound broken at {divmod(bad[0], rows)}"
    return Orientation(h.cols, rows, tuple(out))


# the three exit sides of a metacell, keyed by its non-exit side
_EXITS = {d: frozenset(DIRECTION_ORDER) - {d} for d in DIRECTION_ORDER}


@dataclass(frozen=True)
class ExitPlan:
    """Each vertex's one non-exit side; the other three are its exits."""

    graph: GridGraph
    non_exits: dict[Vertex, Direction]

    def exits(self, v: Vertex) -> frozenset[Direction]:
        return _EXITS[self.non_exits[v]]


def exit_plan(g: GridGraph, o: Orientation) -> ExitPlan:
    """Exit sides per vertex: its graph-edge sides, its side mask, plus its
    out side in ``o`` at degree 2; its non-exit side is the one left."""
    assert (o.cols, o.rows) == (g.cols, g.rows), "orientation of another board"
    non_exits = {}
    for v, m, out in zip(g.vertices(), g.side_masks, o.out):
        if len(_SIDES[m]) == 2:
            assert out >= 0, f"degree-2 vertex {v} has no outgoing incidence"
            m |= 1 << out
        assert len(_SIDES[m]) == 3, f"vertex {v} ended with exits {set(_SIDES[m])}"
        non_exits[v] = _SIDES[15 ^ m][0]
    return ExitPlan(g, non_exits)


def plan_for(g: GridGraph) -> ExitPlan:
    """Convenience chain: complement, orientation, exit plan."""
    return exit_plan(g, orient_complement(build_complement(g)))


@dataclass(frozen=True)
class Gadget:
    """A puzzle's metacell gadget in canonical orientation: its square frame
    written as board rows of its puzzle's ``board`` format, top row first,
    its one non-exit side, the border cell of each exit, and stored local
    traversals per exit pair (the first of each is canonical).  A tiling
    turns every gadget a quarter turn 0-3, so the gadget keeps one table
    per turn, each read in frame cells: its tokens in board order
    (``boards``), its exit cells (``exits_at``) and its canonical
    traversals (``pieces``).  Construction asserts that every exit cell
    sits on its side's midline at each of the four turns and that every
    stored traversal starts at one of its pair's two exit cells, so no
    tiling needs to check either again."""

    rows: str
    board: BoardFormat
    non_exit: Direction
    exit_cells: dict[Direction, Cell]
    paths: dict[frozenset[Direction], tuple[tuple[Cell, ...], ...]]

    def __post_init__(self):
        mid = self.frame // 2
        for turns, exits in enumerate(self.exits_at):
            for out, (x, y) in exits.items():
                assert (x if out.dx == 0 else y) == mid, \
                    f"exit cell off midline on side {out.name} at {turns} turns"
        for pair, found in self.paths.items():
            ends = {self.exit_cells[d] for d in pair}
            for cells in found:
                assert cells[0] in ends, \
                    f"traversal {'-'.join(sorted(d.name for d in pair))} starts off its exits"

    @cached_property
    def frame(self) -> int:
        """Side of the square frame: the number of rows."""
        return len(self.rows.splitlines())

    def tile(self, g: GridGraph, plan: ExitPlan) -> dict[Vertex, int]:
        """Quarter turns at every vertex of ``g`` that put the gadget's
        non-exit side onto the plan's.  Raises :class:`CompileError` when
        ``plan`` was built for another graph."""
        if plan.graph != g:
            raise CompileError("exit plan was built for a different graph")
        turns, non_exits = self._turns_to, plan.non_exits
        return {v: turns[non_exits[v]] for v in g.vertices()}

    @cached_property
    def _turns_to(self) -> dict[Direction, int]:
        """Per plan non-exit side, the quarter turns that put the gadget's there."""
        return {d: turns_between(self.non_exit, d) for d in DIRECTION_ORDER}

    def place(self, turns: int, cells: Iterable[Cell]) -> list[Cell]:
        """Frame cells of the gadget-local ``cells`` with the gadget turned
        by ``turns``; a cell outside the frame raises ``ValueError``."""
        return [rotate_cell(self.frame, turns, c) for c in cells]

    @cached_property
    def boards(self) -> list[tuple[str, ...]]:
        """Per quarter turn 0-3, the token of every frame cell with the
        gadget turned so, in board order: ``(x, y)`` at ``x * frame + y``,
        read from ``rows`` at the cell that turns onto it."""
        n = self.frame
        rows = [row.split() if self.board.spaced else row for row in self.rows.splitlines()]
        cells = list(product(range(n), repeat=2))
        return [tuple(rows[n - 1 - y][x] for x, y in self.place(-turns, cells))
                for turns in range(4)]

    @cached_property
    def exits_at(self) -> list[dict[Direction, Cell]]:
        """Per quarter turn 0-3, the frame cell of each exit of the gadget
        turned so, keyed by the side it faces then."""
        return [{side.rotated(turns): rotate_cell(self.frame, turns, cell)
                 for side, cell in self.exit_cells.items()} for turns in range(4)]

    @cached_property
    def pieces(self) -> dict[tuple[int, Direction, Direction], list[Cell]]:
        """Per quarter turn 0-3 and (entry, exit) pair of the sides the
        exits face with the gadget turned so, the canonical traversal
        between them placed in the frame, stored or reversed."""
        pieces = {}
        for pair, (cells, *_) in self.paths.items():
            (entry,) = (d for d in pair if self.exit_cells[d] == cells[0])
            (exit_,) = pair - {entry}
            for turns in range(4):
                a, b = entry.rotated(turns), exit_.rotated(turns)
                pieces[turns, a, b] = placed = self.place(turns, cells)
                pieces[turns, b, a] = placed[::-1]
        return pieces


def mutual_facing_holds(g: GridGraph, plan: ExitPlan) -> bool:
    """(u,v) is a graph edge iff u and v both have exits facing each other."""
    for v in g.vertices():
        for d in DIRECTION_ORDER:
            w = (v[0] + d.dx, v[1] + d.dy)
            if not g.in_bounds(w):
                continue
            mutual = d in plan.exits(v) and d.opposite() in plan.exits(w)
            if mutual != g.has_edge(v, w):
                return False
    return True


def emit_exit_plan(plan: ExitPlan) -> str:
    """Debug dump: one line per vertex, rotation relative to reference side S."""
    lines = []
    for v, non_exit in sorted(plan.non_exits.items()):
        dirs = "".join(d.name for d in DIRECTION_ORDER if d is not non_exit)
        rot = turns_between(Direction.S, non_exit) * 90
        lines.append(f"vertex {v[0]} {v[1]} exits {dirs} rot {rot}")
    return "\n".join(lines) + "\n"
