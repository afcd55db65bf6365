"""Shared geometric substrate: grids, graphs, loops, and regions.

Coordinate convention used everywhere: a cell or vertex is an ``(x, y)``
pair with the origin at the bottom-left, ``x`` increasing rightward and
``y`` increasing upward.  Text file formats write rows top-first, so the
row for ``y = height - 1`` comes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, count, islice, product, repeat
from operator import and_, eq, ne, or_
from typing import Iterable, Sequence

from .errors import MalformedLoopError

Cell = tuple[int, int]
Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]

ORTHO_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))
_UNIT_STEPS = frozenset(ORTHO_STEPS)

# per quarter turn counterclockwise, the matrix (a, b, c, d) of the map
# (x, y) -> (ax + by, cx + dy)
_TURNS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def turn(cell: Cell, k: int) -> Cell:
    """``cell`` turned ``k`` quarter turns counterclockwise about the origin."""
    a, b, c, d = _TURNS[k % 4]
    x, y = cell
    return a * x + b * y, c * x + d * y


def orthogonal_neighbors(cell: Cell) -> list[Cell]:
    x, y = cell
    return [(x + dx, y + dy) for dx, dy in ORTHO_STEPS]


def are_orthogonal(a: Cell, b: Cell) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Unordered pair stored with the smaller endpoint first."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class GridGraph:
    """Spanning subgraph of a rectangular grid: all vertices, a subset of unit edges."""

    cols: int
    rows: int
    edges: frozenset[Edge]

    def __post_init__(self):
        cols, rows = self.cols, self.rows
        if cols < 1 or rows < 1:
            raise ValueError(f"grid must be at least 1x1, got {cols}x{rows}")
        # a valid edge steps east or north from its smaller end, inside the
        # grid; the first edge that does not is named by its fault
        for u, v in self.edges:
            (x0, y0), (x1, y1) = u, v
            if not (0 <= x0 <= x1 < cols and 0 <= y0 <= y1 < rows and x1 - x0 + y1 - y0 == 1):
                if not (self.in_bounds(u) and self.in_bounds(v)):
                    raise ValueError(f"edge endpoint out of range: {u}-{v}")
                if not are_orthogonal(u, v):
                    raise ValueError(f"edge is not between unit-distance vertices: {u}-{v}")
                raise ValueError(f"edge not stored in canonical order: {u}-{v}")

    def in_bounds(self, v: Vertex) -> bool:
        return 0 <= v[0] < self.cols and 0 <= v[1] < self.rows

    def vertices(self) -> list[Vertex]:
        return board_cells(self.cols, self.rows)

    @cached_property
    def side_masks(self) -> list[int]:
        """Per vertex in board order (``(x, y)`` at index ``x * rows + y``),
        the sides its edges leave by as a 4-bit mask: bit ``k`` for the
        side of ``ORTHO_STEPS[k]``, north, east, south and west."""
        rows = self.rows
        masks = [0] * (self.cols * rows)
        for (x, y), (x1, _) in self.edges:  # each edge steps north or east
            i = x * rows + y
            if x1 == x:
                masks[i] |= 1
                masks[i + 1] |= 4
            else:
                masks[i] |= 2
                masks[i + rows] |= 8
        return masks

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges


def grid_graph(cols: int, rows: int, edges: Iterable[tuple[Vertex, Vertex]]) -> GridGraph:
    canon = set()
    for u, v in edges:
        e = canonical_edge(u, v)
        if e in canon:
            raise ValueError(f"duplicate edge: {u}-{v}")
        canon.add(e)
    return GridGraph(cols, rows, frozenset(canon))


def full_grid(cols: int, rows: int) -> GridGraph:
    """The complete rectangular grid graph on cols x rows vertices."""
    edges = []
    for x in range(cols):
        for y in range(rows):
            if x + 1 < cols:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 < rows:
                edges.append(((x, y), (x, y + 1)))
    return grid_graph(cols, rows, edges)


def degree_profile(g: GridGraph) -> dict[Vertex, int]:
    """Exact degree of every vertex (including isolated ones, as 0)."""
    deg = {v: 0 for v in g.vertices()}
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _canonical_cycle(seq: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Rotate the smallest element to the front, then pick the direction with
    the smaller second element.  Used to compare cycles up to rotation/reversal."""
    n = len(seq)
    k = seq.index(min(seq))
    fwd = seq[k:] + seq[:k]
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return fwd if fwd[1] <= rev[1] else rev


@dataclass(frozen=True)
class HamCycle:
    """Cyclic sequence of distinct vertices; validity w.r.t. a graph is checked
    by :meth:`is_cycle_of`."""

    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle repeats a vertex")
        if len(self.vertices) < 4:
            raise ValueError("a grid-graph cycle needs at least 4 vertices")

    def is_cycle_of(self, g: GridGraph) -> bool:
        vs = self.vertices
        if set(vs) != set(g.vertices()):
            return False
        # every step, the closing one last, is an edge, its smaller end first
        return g.edges.issuperset([(u, v) if u <= v else (v, u)
                                   for u, v in zip(vs, vs[1:] + vs[:1])])

    def canonical(self) -> "HamCycle":
        return HamCycle(_canonical_cycle(self.vertices))


@dataclass(frozen=True)
class LoopPath:
    """Non-crossing loop: cyclic sequence of distinct, orthogonally adjacent cells."""

    cells: tuple[Cell, ...]

    def __post_init__(self):
        n = len(self.cells)
        if n < 4:
            raise MalformedLoopError(f"loop too short: {n} cells")
        if len(set(self.cells)) != n:
            raise MalformedLoopError("loop revisits a cell")
        ring = self.cells + self.cells[:1]
        # every step, the closing one last, is one of the four unit steps,
        # which are the integer steps one long in x and y together
        lengths = [abs(x1 - x0) + abs(y1 - y0) for (x0, y0), (x1, y1) in zip(ring, ring[1:])]
        if lengths.count(1) != n:
            a, b = next((a, b) for a, b in zip(ring, ring[1:])
                        if (b[0] - a[0], b[1] - a[1]) not in _UNIT_STEPS)
            raise MalformedLoopError(f"cells {a} and {b} are not orthogonally adjacent")

    def __len__(self):
        return len(self.cells)

    def canonical(self) -> "LoopPath":
        return LoopPath(_canonical_cycle(self.cells))

    def check_on_board(self, width: int, height: int) -> None:
        off = [(x, y) for x, y in self.cells if not (0 <= x < width and 0 <= y < height)]
        if off:  # name the first in loop order
            raise MalformedLoopError(f"loop cell {off[0]} is off the {width}x{height} board")


@dataclass(frozen=True)
class RegionDecomposition:
    """A partition of the board into regions, each an orthogonally
    connected set of cells.

    ``ids`` lists the region of every board cell in board order, by x and
    then y: cell ``(x, y)`` at index ``x * height + y``.  Region ids are
    assigned in order of each region's lexicographically smallest cell,
    which is its first in board order.  A leaf is a cell with exactly one
    orthogonal neighbor in the same region.  The per-region lists are built
    from ``ids`` on first use, so equality compares ``ids`` alone.
    """

    width: int
    height: int
    ids: list[int]

    def region_at(self, cell: Cell) -> int | None:
        """The region of ``cell``, or ``None`` off the board."""
        x, y = cell
        if 0 <= x < self.width and 0 <= y < self.height:
            return self.ids[x * self.height + y]
        return None

    @cached_property
    def regions(self) -> list[list[Cell]]:
        """Per region id, its cells in board order, which is sorted order."""
        members: list[list[Cell]] = [[] for _ in range(max(self.ids, default=-1) + 1)]
        for c, r in zip(board_cells(self.width, self.height), self.ids):
            members[r].append(c)
        return members

    @cached_property
    def leaves(self) -> list[list[Cell]]:
        """Per region id, its leaves in board order."""
        ids, h = self.ids, self.height
        n = len(ids)
        leaf_cells: list[list[Cell]] = [[] for _ in self.regions]
        for i, rid in enumerate(ids):
            y = i % h
            same = (i + h < n and ids[i + h] == rid) + (i >= h and ids[i - h] == rid) \
                + (y + 1 < h and ids[i + 1] == rid) + (y > 0 and ids[i - 1] == rid)
            if same == 1:
                leaf_cells[rid].append(divmod(i, h))
        return leaf_cells

    @cached_property
    def touching(self) -> dict[tuple[int, int], tuple[Cell, Cell]]:
        """Every pair of regions that share a cell side, smaller id first,
        mapped to its first shared side ``(a, b)`` in board order: cells by
        x, then y, the east side before the north side.  The dict keeps
        that order."""
        ids, h = self.ids, self.height
        n = len(ids)
        first: dict[tuple[int, int], tuple[Cell, Cell]] = {}
        for i, ra in enumerate(ids):
            for j in (i + h, i + 1 if (i + 1) % h else n):  # east, north
                if j < n and ids[j] != ra:
                    rb = ids[j]
                    pair = (ra, rb) if ra < rb else (rb, ra)
                    if pair not in first:
                        first[pair] = (divmod(i, h), divmod(j, h))
        return first

    @cached_property
    def neighbours(self) -> list[int]:
        """Per region id, the mask of the regions it touches, bit ``r`` for region ``r``."""
        masks = [0] * len(self.regions)
        for a, b in self.touching:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return masks


def board_cells(width: int, height: int) -> list[Cell]:
    """Every cell of the board in board order, by x and then y."""
    return list(product(range(width), range(height)))


def regions_from_labels(width: int, height: int,
                        labels: dict[Cell, object] | Sequence) -> RegionDecomposition:
    """Fill the board into regions: maximal orthogonally connected sets of
    equally labelled cells.  ``labels`` maps every board cell, and no
    other, to its label, or lists the labels in board order (else
    :class:`ValueError`); any value is a label, ``None`` too.

    The fill visits runs, not cells: a run is a maximal stretch of equal
    labels up one column, a list slice in board order.  Runs with equal
    labels side by side in adjacent columns join in a union-find, and
    region ids follow smallest cells, as the runs' first cells do."""
    n = width * height
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for a {width}x{height} board")
    if isinstance(labels, dict):
        try:
            labels = list(map(labels.__getitem__, board_cells(width, height)))
        except KeyError as e:  # the count is right, so a label lies off the board
            raise ValueError(f"no label for board cell {e.args[0]}") from None
    if not n:
        return RegionDecomposition(width, height, [])
    # per cell, whether a run starts there: at the foot of each column and
    # wherever a label differs from the one below it; the runs count from 1.
    # Lists are read a cell or a column on through ``islice``: a copy would
    # be one more board-sized list to allocate and for the collector to scan.
    is_start = [True, *map(ne, islice(labels, 1, None), labels)]
    is_start[::height] = [True] * width
    run_of = list(accumulate(is_start))
    parent = list(range(run_of[-1] + 1))
    # two runs a column apart meet first where one of them starts, so each
    # pair that meets is joined once, when their labels are equal
    meets = map(and_, map(or_, is_start, islice(is_start, height, None)),
                map(eq, labels, islice(labels, height, None)))
    for p, q in compress(zip(run_of, islice(run_of, height, None)), meets):
        parent[union_root(parent, q)] = union_root(parent, p)
    roots = list(map(union_root, repeat(parent), range(len(parent))))
    rid = dict(zip(dict.fromkeys(roots[1:]), count()))  # runs in board order
    run_rid = list(map(rid.get, roots))
    return RegionDecomposition(width, height, list(map(run_rid.__getitem__, run_of)))


def union_root(parent: list[int], p: int) -> int:
    """The root of ``p`` in the union-find forest ``parent``, halving the
    path on the way."""
    while parent[p] != p:
        parent[p] = p = parent[parent[p]]
    return p


def labelled_runs(
    cells: tuple[Cell, ...], labels: Iterable[object], closed: bool = False
) -> list[tuple[object, tuple[Cell, ...]]]:
    """Maximal runs of equal consecutive ``labels``, one per cell of
    ``cells``, in order, each with its cells.  The runs' ends are found in
    C-level passes, so the Python work is per run.  When ``closed``, the
    cells are a loop: if it closes inside one run, the path's first and
    last runs join, and that run comes last."""
    labels = list(labels)
    ends = [*compress(count(1), map(ne, labels, islice(labels, 1, None))), len(labels)]
    runs = [(labels[i], cells[i:j]) for i, j in zip([0, *ends], ends)] if labels else []
    if closed and len(runs) > 1 and runs[0][0] == runs[-1][0]:
        (lab, tail), head = runs.pop(), runs.pop(0)
        runs.append((lab, tail + head[1]))
    return runs


def crossings_by_region(loop: LoopPath, r: RegionDecomposition) -> dict[int, int]:
    """Border crossings of every region, in one pass over the loop.

    A region the loop never crosses into or out of is absent.  Each step
    between two different regions crosses the border of both.
    """
    ids, w, h = r.ids, r.width, r.height
    counts: dict[int, int] = {}
    x, y = loop.cells[-1]
    prev = ids[x * h + y] if 0 <= x < w and 0 <= y < h else None  # off the board: None
    for x, y in loop.cells:
        cur = ids[x * h + y] if 0 <= x < w and 0 <= y < h else None
        if cur != prev:
            if prev is not None:
                counts[prev] = counts.get(prev, 0) + 1
            if cur is not None:
                counts[cur] = counts.get(cur, 0) + 1
            prev = cur
    return counts


@dataclass(frozen=True)
class Violation:
    """One broken puzzle rule, tagged with the rule number it falls under."""

    rule: int
    message: str
    cells: tuple[Cell, ...] = ()


@dataclass(frozen=True)
class Verdict:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules_broken(self) -> set[int]:
        return {v.rule for v in self.violations}
