"""Complement-graph orientation and per-vertex exit plans for metacell tilings.

Every vertex of a degree-{2,3} grid graph becomes a square metacell with
exits on exactly three sides.  Sides carrying graph edges are always exits;
a degree-2 vertex gets its third exit from the orientation of the
complement structure H, whose edges join grid-adjacent vertex pairs that
are *not* graph edges (plus a half-edge for every board-border side).
Orienting each H component consistently gives every vertex indegree and
outdegree at most one, and the third exit faces the outgoing incidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, product
from typing import Iterable, Iterator

from .errors import CompileError
from .fileio import BoardFormat
from .model import Cell, GridGraph, Vertex, canonical_edge, degree_profile, turn


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

    def opposite(self) -> "Direction":
        return self.rotated(2)

    def rotated(self, quarter_turns: int) -> "Direction":
        """Counterclockwise rotation: one quarter turn maps N->W->S->E->N."""
        return _ROTATIONS[self.dx, self.dy][quarter_turns % 4]


# clockwise, so a counterclockwise quarter turn steps one place back
DIRECTION_ORDER = (Direction.N, Direction.E, Direction.S, Direction.W)
# per step, its direction, and its direction at 0-3 quarter turns
_STEPS = {d.value: d for d in DIRECTION_ORDER}
_ROTATIONS = {d.value: tuple(Direction(turn(d.value, k)) for k in range(4))
              for d in DIRECTION_ORDER}


def direction_between(u: Vertex, v: Vertex) -> Direction:
    try:
        return _STEPS[v[0] - u[0], v[1] - u[1]]
    except KeyError:
        raise ValueError(f"{u} and {v} are not grid-adjacent") from None


def turns_between(src: Direction, dst: Direction) -> int:
    """Quarter turns (counterclockwise) mapping ``src`` onto ``dst``."""
    return (DIRECTION_ORDER.index(src) - DIRECTION_ORDER.index(dst)) % 4


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
class HalfEdge:
    """An H incidence pointing off the board at a border vertex."""

    vertex: Vertex
    direction: Direction


@dataclass(frozen=True)
class ComplementGraph:
    cols: int
    rows: int
    internal_edges: frozenset[tuple[Vertex, Vertex]]
    half_edges: frozenset[HalfEdge]

    @cached_property
    def _incidence_index(self) -> dict[Vertex, list[Direction]]:
        index: dict[Vertex, list[Direction]] = {}
        for a, b in self.internal_edges:
            index.setdefault(a, []).append(direction_between(a, b))
            index.setdefault(b, []).append(direction_between(b, a))
        for h in self.half_edges:
            index.setdefault(h.vertex, []).append(h.direction)
        for dirs in index.values():
            dirs.sort(key=DIRECTION_ORDER.index)
        return index

    def incidences(self, v: Vertex) -> list[Direction]:
        return list(self._incidence_index.get(v, ()))


def build_complement(g: GridGraph) -> ComplementGraph:
    """H has an internal edge for every grid-adjacent non-edge of g and a
    half-edge for every board-border side, giving each vertex 4 - deg(v)
    incidences.  Requires every degree in {2, 3}."""
    deg = degree_profile(g)
    for v, d in sorted(deg.items()):
        if d not in (2, 3):
            raise ValueError(f"vertex {v} has degree {d}, expected 2 or 3")
    internal = set()
    halves = set()
    for v in g.vertices():
        for d in DIRECTION_ORDER:
            w = (v[0] + d.dx, v[1] + d.dy)
            if not g.in_bounds(w):
                halves.add(HalfEdge(v, d))
            elif not g.has_edge(v, w):
                internal.add(tuple(sorted((v, w))))
    h = ComplementGraph(g.cols, g.rows, frozenset(internal), frozenset(halves))
    for v in g.vertices():
        assert len(h.incidences(v)) == 4 - deg[v], f"incidence count off at {v}"
    return h


@dataclass(frozen=True)
class Orientation:
    """Direction assignment for every H incidence.

    ``edge_heads`` maps each internal edge (canonical order) to its head
    vertex; ``half_out`` maps each half-edge to True when it points off the
    board (outward).
    """

    edge_heads: dict[tuple[Vertex, Vertex], Vertex]
    half_out: dict[HalfEdge, bool]

    @cached_property
    def _arc_index(self) -> tuple[dict[Vertex, Direction], dict[Vertex, int], dict[Vertex, int]]:
        """First outgoing direction (edge arcs in ``edge_heads`` order, then
        half-edges), indegree and outdegree of every vertex with an arc."""
        out: dict[Vertex, Direction] = {}
        indeg: dict[Vertex, int] = {}
        outdeg: dict[Vertex, int] = {}
        for (a, b), head in self.edge_heads.items():
            tail = a if head == b else b
            out.setdefault(tail, direction_between(tail, head))
            indeg[head] = indeg.get(head, 0) + 1
            outdeg[tail] = outdeg.get(tail, 0) + 1
        for h, is_out in self.half_out.items():
            if is_out:
                out.setdefault(h.vertex, h.direction)
                outdeg[h.vertex] = outdeg.get(h.vertex, 0) + 1
            else:
                indeg[h.vertex] = indeg.get(h.vertex, 0) + 1
        return out, indeg, outdeg

    def outgoing(self, v: Vertex) -> Direction | None:
        return self._arc_index[0].get(v)

    def indegree(self, v: Vertex) -> int:
        return self._arc_index[1].get(v, 0)

    def outdegree(self, v: Vertex) -> int:
        return self._arc_index[2].get(v, 0)


# Walk nodes: real vertices are themselves; each half-edge gets a private
# endpoint node so components decompose into plain paths and cycles.
_Node = tuple


def _node_key(node: _Node):
    if node[0] == "v":
        return (node[1][0], node[1][1], -1)
    he: HalfEdge = node[1]
    return (he.vertex[0], he.vertex[1], DIRECTION_ORDER.index(he.direction))


def orient_complement(h: ComplementGraph) -> Orientation:
    """Orient every H component consistently head-to-tail.

    The structure on vertices has maximum degree 2 (half-edges act as path
    endpoints), so components are simple paths and cycles; walking each one
    in a fixed direction gives every interior vertex exactly one incoming
    and one outgoing incidence.  Free choices are resolved by keeping the
    smallest candidate walk, so the orientation is reproducible.  That
    walk starts at the component's smallest end (its smallest node, for a
    cycle) and steps to that node's smaller neighbour; it is taken
    directly, so the work is linear in the size of H.
    """
    adj: dict[_Node, list[_Node]] = {}
    for a, b in h.internal_edges:
        adj.setdefault(("v", a), []).append(("v", b))
        adj.setdefault(("v", b), []).append(("v", a))
    for he in h.half_edges:
        adj.setdefault(("v", he.vertex), []).append(("h", he))
        adj[("h", he)] = [("v", he.vertex)]

    edge_heads: dict[tuple[Vertex, Vertex], Vertex] = {}
    half_out: dict[HalfEdge, bool] = {}
    seen: set[_Node] = set()
    for start in sorted(adj, key=_node_key):  # components by smallest node
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for c in comp:
            for n in adj[c]:
                if n not in seen:
                    seen.add(n)
                    comp.append(n)
        ends = [n for n in comp if len(adj[n]) == 1]
        first = min(ends or comp, key=_node_key)
        walk = [first, min(adj[first], key=_node_key)]
        while True:
            step = [n for n in adj[walk[-1]] if n != walk[-2]]
            if not step or step[0] == first:
                break
            walk.append(step[0])
        if not ends:
            walk.append(first)  # the arc that closes the cycle
        for a, b in zip(walk, walk[1:]):
            if a[0] == "v" and b[0] == "v":
                edge_heads[canonical_edge(a[1], b[1])] = b[1]
            elif a[0] == "h":
                half_out[a[1]] = False  # entering the board
            else:
                half_out[b[1]] = True  # leaving the board

    o = Orientation(edge_heads, half_out)
    for node, nbrs in adj.items():
        if node[0] != "v":
            continue
        v = node[1]
        assert o.indegree(v) <= 1 and o.outdegree(v) <= 1, \
            f"orientation degree bound broken at {v}"
        if len(nbrs) == 2:
            assert o.outdegree(v) == 1, \
                f"vertex {v} with two incidences lacks an outgoing one"
    return o


# the three exit sides of a metacell, keyed by its non-exit side
_EXITS = {d: frozenset(DIRECTION_ORDER) - {d} for d in DIRECTION_ORDER}


@dataclass(frozen=True)
class ExitPlan:
    """Each vertex's one non-exit side; the other three are its exits."""

    graph: GridGraph
    non_exits: dict[Vertex, Direction]

    def exits(self, v: Vertex) -> frozenset[Direction]:
        return _EXITS[self.non_exits[v]]

    def non_exit(self, v: Vertex) -> Direction:
        return self.non_exits[v]


def exit_plan(g: GridGraph, o: Orientation) -> ExitPlan:
    """Exit sides per vertex: all graph-edge directions, plus the outgoing
    H incidence for degree-2 vertices."""
    deg = degree_profile(g)
    non_exits = {}
    for v in g.vertices():
        exits = {direction_between(v, w) for w in g.neighbors(v)}
        if deg[v] == 2:
            out = o.outgoing(v)
            assert out is not None, f"degree-2 vertex {v} has no outgoing incidence"
            exits.add(out)
        assert len(exits) == 3, f"vertex {v} ended with exits {exits}"
        (non_exits[v],) = [d for d in DIRECTION_ORDER if d not in exits]
    return ExitPlan(g, non_exits)


def plan_for(g: GridGraph) -> ExitPlan:
    """Convenience chain: complement, orientation, exit plan."""
    return exit_plan(g, orient_complement(build_complement(g)))


@dataclass(frozen=True)
class Gadget:
    """A puzzle's metacell gadget in canonical orientation: its square frame
    written as board rows of its puzzle's ``board`` format, top row first,
    its one non-exit side, the border cell of each exit, and stored local
    traversals per exit pair (the first of each is canonical).  Construction
    asserts that every exit cell sits on its side's midline at each of the
    four rotations, so no tiling needs to check it again."""

    rows: str
    board: BoardFormat
    non_exit: Direction
    exit_cells: dict[Direction, Cell]
    paths: dict[frozenset[Direction], tuple[tuple[Cell, ...], ...]]

    def __post_init__(self):
        mid = self.frame // 2
        for turns in range(4):
            for side, cell in self.exit_cells.items():
                x, y = rotate_cell(self.frame, turns, cell)
                out = side.rotated(turns)
                assert (x if out.dx == 0 else y) == mid, \
                    f"exit cell off midline on side {out.name} at {turns} turns"

    @cached_property
    def frame(self) -> int:
        """Side of the square frame: the number of rows."""
        return len(self.rows.splitlines())

    @cached_property
    def _layout(self) -> tuple[tuple[str, ...], list[list[Cell]]]:
        """The token of every frame cell, read from ``rows``, and in the
        same order the cells they land on with the gadget at 0-3 turns."""
        n = self.frame
        _, _, rows = self.board.read_rows(f"{self.board.kind} {n} {n}\n{self.rows}")
        cells = [(x, y) for y in range(n - 1, -1, -1) for x in range(n)]
        return tuple(chain.from_iterable(rows)), [self.place((0, 0), turns, cells)
                                                  for turns in range(4)]

    def tile(self, g: GridGraph, plan: ExitPlan) -> dict[Vertex, int]:
        """Quarter turns at every vertex of ``g`` that put the gadget's
        non-exit side onto the plan's.  Raises :class:`CompileError` when
        ``plan`` was built for another graph."""
        if plan.graph != g:
            raise CompileError("exit plan was built for a different graph")
        return {v: turns_between(self.non_exit, plan.non_exit(v)) for v in g.vertices()}

    def lay(
        self, tiling: dict[Vertex, int]
    ) -> Iterator[tuple[Vertex, list[Cell], tuple[str, ...]]]:
        """Each vertex of ``tiling`` (the turns per vertex, as :meth:`tile`
        gives them) with every board cell of its metacell and, in the same
        order, the tokens of the gadget rotated there."""
        tokens, rotations = self._layout
        for v, turns in tiling.items():
            ox, oy = self.frame * v[0], self.frame * v[1]
            yield v, [(ox + x, oy + y) for x, y in rotations[turns % 4]], tokens

    @cached_property
    def _turned(self) -> list[dict[Cell, Cell]]:
        """Per quarter turn 0-3, every frame cell and the cell it lands on."""
        cells = list(product(range(self.frame), repeat=2))
        return [{c: rotate_cell(self.frame, turns, c) for c in cells} for turns in range(4)]

    def place(self, v: Vertex, turns: int, cells: Iterable[Cell]) -> list[Cell]:
        """Board cells of the gadget-local ``cells`` with the gadget rotated
        by ``turns`` in the metacell of ``v``.  Each rotated cell is read
        from the gadget's table for that turn; a cell outside the frame
        raises ``ValueError``."""
        ox, oy = self.frame * v[0], self.frame * v[1]
        try:
            return [(ox + x, oy + y) for x, y in map(self._turned[turns % 4].__getitem__, cells)]
        except KeyError as e:
            raise ValueError(f"cell {e.args[0]} outside {self.frame}x{self.frame} frame") from None

    def board_exit(self, v: Vertex, turns: int, side: Direction) -> Cell:
        """Board cell of the exit on ``side`` of the gadget rotated by
        ``turns`` in the metacell of ``v``."""
        return self.place(v, turns, [self.exit_cells[side.rotated(-turns)]])[0]

    def local_path(self, entry: Direction, exit_: Direction) -> tuple[Cell, ...]:
        """Canonical traversal from the ``entry`` exit to the ``exit_`` exit,
        in canonical orientation."""
        cells = self.paths[frozenset({entry, exit_})][0]
        if cells[0] == self.exit_cells[entry]:
            return cells
        assert cells[0] == self.exit_cells[exit_]
        return tuple(reversed(cells))


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
