"""Region-level search for All or Nothing boards: loops as cycles of regions.

A loop that visits two or more regions of an All or Nothing board visits
a cycle of them, each once, and covers each by one Hamiltonian path of the
region between the cell it enters at and the cell it leaves from.  Those
cells are ports: cells of a live (not dead) region with a neighbor in
another live region.  Whether a Hamiltonian path of a region joins two
ports is a row, found by the cell search (:func:`search_paths`) on the
region alone, so budgets and node counts see its nodes.

Rows are kept for one search, keyed on the region's shape up to
translation and rotation (its canonical frame) with the port pair
unordered: every big region of a metacell compile has the gadget's shape,
so a compile searches three rows.  A search for every loop decides the
pairs by their rows too, and walks a pair's other traversals only for the
cycles that close, drawing them as the combinations need them: a capped
search stops after one traversal per pair.

The search over cycles keeps an explicit stack, so it never recurses.
"""

from __future__ import annotations

from itertools import chain, islice

from .loopsearch import LoopConstraint, _Grid, _Nodes, _walk, metered, search_paths
from .model import Cell, LoopPath, RegionDecomposition

ROW_FIRST_BUDGET = 128


# per quarter turn counterclockwise, the matrix (a, b, c, d) of the map
# (x, y) -> (ax + by, cx + dy)
_TURNS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def _turn(cell: Cell, k: int) -> Cell:
    """``cell`` turned ``k`` quarter turns counterclockwise about the origin."""
    a, b, c, d = _TURNS[k % 4]
    x, y = cell
    return a * x + b * y, c * x + d * y


def _frame(cells: frozenset[Cell]) -> tuple[tuple[Cell, ...], tuple[tuple[int, int, int], ...]]:
    """The canonical frame of a region's ``cells``: their least sorted
    tuple over the four turns, shifted to the origin, and each move
    ``(k, x0, y0)`` that takes the cells there (turn by ``k``, then shift
    by ``-(x0, y0)``)."""
    best, moves = None, []
    for k in range(4):
        turned = [_turn(c, k) for c in cells]
        x0 = min(x for x, _ in turned)
        y0 = min(y for _, y in turned)
        shape = tuple(sorted((x - x0, y - y0) for x, y in turned))
        if best is None or shape < best:
            best, moves = shape, []
        if shape == best:
            moves.append((k, x0, y0))
    return best, tuple(moves)


def _unturn(path, way) -> tuple[Cell, ...]:
    """A path found the way ``(k, s, t)`` back in the frame, from the
    smaller of its ends."""
    k, s, t = way
    back = tuple(_turn(c, -k) for c in path)
    return back if s < t else back[::-1]


def _find_row(shape, a: Cell, b: Cell, nodes: _Nodes):
    """A Hamiltonian path of ``shape`` from ``a`` to ``b`` (``a < b``), or
    None, and the way ``(k, s, t)`` it was found: from ``s`` to ``t`` on
    the shape turned by ``k``.  The cost of a path depends on the way it is
    searched (for one pair of the gadget's ports, from 75 to 14,293
    nodes), so the eight ways are tried in turn under budgets that double
    from ROW_FIRST_BUDGET until one decides."""
    turned = [[_turn(c, k) for c in shape] for k in range(4)]
    most = ROW_FIRST_BUDGET
    while True:
        for k, cells in enumerate(turned):
            for s, t in ((a, b), (b, a)):
                res = metered(nodes, search_paths, cells, _turn(s, k), _turn(t, k), cells,
                              LoopConstraint, cap=1, most=most)
                if res is not None:
                    way = (k, s, t)
                    return (_unturn(res.loops[0], way) if res.loops else None), way
        most *= 2


def _walk_way(shape, way, nodes: _Nodes):
    """Every Hamiltonian path of ``shape`` between a row's ports, walked the
    way that found the row, as :func:`search_paths` walks it, so the first
    is the row's path."""
    k, s, t = way
    cells = sorted(_turn(c, k) for c in shape)
    grid = _Grid(cells)
    for path in _walk(grid, grid.index[_turn(s, k)], grid.index[_turn(t, k)],
                      range(len(cells)), LoopConstraint(), nodes):
        yield _unturn(path, way)


class _Drawn:
    """A pair's traversals, drawn from the iterator ``more`` as they are
    asked for; ``joined`` says whether there is one."""

    def __init__(self, joined: bool, more):
        self.joined, self.more = joined, more if joined else None
        self.paths: list = []

    def has(self, i: int) -> bool:
        """Whether there are more than ``i`` traversals."""
        while len(self.paths) <= i and self.more is not None:
            path = next(self.more, None)
            if path is None:
                self.more = None
            else:
                self.paths.append(path)
        return i < len(self.paths)

    def __iter__(self):
        i = 0
        while self.has(i):
            yield self.paths[i]
            i += 1


def _combinations(drawn: list[_Drawn]):
    """:func:`itertools.product` over the traversals of ``drawn``, each
    drawn only when a combination first needs it."""
    n = len(drawn)
    picks = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            yield [d.paths[i] for d, i in zip(drawn, picks)]
        elif drawn[k].has(picks[k]):
            k += 1
            if k < n:
                picks[k] = 0
            continue
        k -= 1
        if k >= 0:
            picks[k] += 1


class RegionCycles:
    """One search's view of a board's ``live`` regions: their ports, their
    rows, and the cycles of regions.  ``every`` draws every traversal of
    the pairs of each cycle that closes; otherwise each pair has its row's
    one path.  Every node is charged to ``nodes``."""

    def __init__(self, decomp: RegionDecomposition, live: list[int], nodes: _Nodes,
                 every: bool):
        self.nodes, self.every = nodes, every
        self.region_of = region_of = decomp.region_of
        self.cells = decomp.regions
        self.need = [1 << r1 | 1 << r2 for r1, r2 in decomp.touching]
        live_set = set(live)
        self.ports: dict[int, list[Cell]] = {}
        self.cross: dict[Cell, list[Cell]] = {}  # per port, its cells over the border
        for r in live:
            self.ports[r] = []
            for c in sorted(decomp.regions[r]):
                x, y = c
                out = [n for n in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y))
                       if region_of.get(n, r) != r and region_of[n] in live_set]
                if out:
                    self.ports[r].append(c)
                    self.cross[c] = out
        self.shapes: dict[frozenset, tuple] = {}  # per region shape at the origin, its frame
        self.frames: dict[int, tuple] = {}  # per region, its frame and offset
        # per row key (shape, a, b) in the frame, its traversals: the row's
        # path, then, drawing every traversal, the rest
        self.rows: dict[tuple, _Drawn] = {}
        self.pairs: dict[tuple[int, Cell, Cell], _Drawn] = {}  # the same on the board

    def pair(self, r: int, a: Cell, b: Cell) -> _Drawn:
        """The traversals of region ``r`` from ``a`` to ``b`` on the board:
        its row's one path (none when no path joins them), or, drawing every
        traversal, that path and the rest."""
        key = (r, a, b)
        got = self.pairs.get(key)
        if got is not None:
            return got
        if a == b:
            got = self.pairs[key] = _Drawn(True, iter([(a,)]))
            return got
        if r not in self.frames:
            cells = self.cells[r]
            tx = min(x for x, _ in cells)
            ty = min(y for _, y in cells)
            at_origin = frozenset((x - tx, y - ty) for x, y in cells)
            if at_origin not in self.shapes:
                self.shapes[at_origin] = _frame(at_origin)
            self.frames[r] = self.shapes[at_origin], tx, ty
        (shape, moves), tx, ty = self.frames[r]

        def onto(move, c):
            k, x0, y0 = move
            x, y = _turn((c[0] - tx, c[1] - ty), k)
            return x - x0, y - y0

        ends, (k, x0, y0) = min((tuple(sorted((onto(m, a), onto(m, b)))), m) for m in moves)
        flip = onto((k, x0, y0), a) != ends[0]

        def back(path):
            turned = [_turn((x + x0, y + y0), -k) for x, y in (path[::-1] if flip else path)]
            return tuple((x + tx, y + ty) for x, y in turned)

        row = (shape, *ends)
        if row not in self.rows:
            path, way = _find_row(*row, self.nodes)
            rest = islice(_walk_way(shape, way, self.nodes), 1, None) if self.every else ()
            self.rows[row] = _Drawn(path is not None, chain([path], rest))
        found = self.rows[row]
        got = self.pairs[key] = _Drawn(found.joined, map(back, found))
        return got

    def exits(self, r: int, a: Cell):
        """The ports of region ``r`` that a traversal entering at ``a`` can
        leave from."""
        if len(self.cells[r]) == 1:
            return (a,)
        return (b for b in self.ports[r] if b != a and self.pair(r, a, b).joined)

    def cycles(self, root: int, floor: int):
        """Each cycle of live regions, ``root`` and regions from ``floor`` up,
        that leaves no two unvisited regions touching, as its segments
        (region, entry, exit) from the root's, once: the root is left at
        the larger of its two ports, or for a one-cell root, the cell
        after it is the smaller of its two neighbors on the loop.  One node
        per segment placed."""
        cells, region_of, cross = self.cells, self.region_of, self.cross
        segs: list[tuple[int, Cell, Cell]] = []
        visited = size = 0

        def starts():
            for a in self.ports[root]:
                for b in self.exits(root, a):
                    if b >= a:
                        yield root, a, b

        def steps(b):
            for c in cross[b]:
                r = region_of[c]
                if r == root:
                    if c == segs[0][1]:
                        yield None  # the loop closes
                elif r >= floor and not visited >> r & 1:
                    for d in self.exits(r, c):
                        yield r, c, d

        stack = [starts()]
        while stack:
            for seg in stack[-1]:
                if seg is None:
                    if size >= 4 and all(visited & m for m in self.need) and (
                            len(cells[root]) > 1 or segs[1][1] < segs[-1][2]):
                        yield list(segs)
                    continue
                self.nodes.tick()
                segs.append(seg)
                visited |= 1 << seg[0]
                size += len(cells[seg[0]])
                stack.append(steps(seg[2]))
                break
            else:
                stack.pop()
                if segs:
                    r = segs.pop()[0]
                    visited ^= 1 << r
                    size -= len(cells[r])

    def loops(self, root: int, floor: int):
        """The loops of :meth:`cycles`, in canonical form: each cycle's
        traversals joined, in every combination."""
        for segs in self.cycles(root, floor):
            for parts in _combinations([self.pair(*s) for s in segs]):
                yield LoopPath(tuple(chain.from_iterable(parts))).canonical()
