"""Region-level search for All or Nothing boards: loops as cycles of regions.

A loop that visits two or more regions of an All or Nothing board visits
a cycle of them, each once, and covers each by one Hamiltonian path of the
region between the cell it enters at and the cell it leaves from.  Those
cells are ports: cells of a live (not dead) region with a neighbor in
another live region.  Whether a Hamiltonian path of a region joins two
ports is a row, decided by one walk of the cell engine's path search on
the region alone, ticking the search's node meter, so budgets and node
counts see its nodes.  The walk tries a cell's neighbors fewest neighbors
first (Warnsdorff's rule).

A region's frame shape is its cells turned and shifted into a canonical
frame.  A shape's frame moves and its path search, a grid and neighbor
order shared by all its rows, are built once per process: every big
region of a metacell compile has the gadget's shape, so a process builds
one grid for all its compiles.  Each row, keyed by its shape and its port
pair in the frame, unordered, is walked afresh by each search on its node
meter, so a compile searches three rows and its nodes do not depend on
earlier solves.  A row keeps the walk that decided it: a pair's other
traversals are that walk's later paths, walked on only when the
combinations of a cycle that closes need them, so a search that stops at
its first loop walks no row past its first path.  A traversal stays in
its row's frame until it is joined into a loop, where the frame cell map
of its region, made once per region, places it on the board.  A region's
answer for a port pair (its row, that map and the direction) is worked
out once per search and kept, so a region step is a lookup.

The search over cycles keeps an explicit stack, so it never recurses.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .loopsearch import LoopConstraint, _Nodes, path_search
from .model import Cell, LoopPath, RegionDecomposition, orthogonal_neighbors, turn


@lru_cache(maxsize=None)
def _frame(cells: frozenset[Cell]) -> tuple[tuple[Cell, ...], tuple[dict[Cell, Cell], ...]]:
    """The canonical frame of a region's ``cells``: their least sorted
    tuple over the four turns, shifted to the origin, and for each move
    that takes the cells there (a turn, then a shift), in turn order, each
    cell's frame cell.  Kept for the process, so the maps are only read."""
    best, moves = None, []
    for k in range(4):
        turned = [turn(c, k) for c in cells]
        x0 = min(x for x, _ in turned)
        y0 = min(y for _, y in turned)
        placed = [(x - x0, y - y0) for x, y in turned]
        shape = tuple(sorted(placed))
        if best is None or shape < best:
            best, moves = shape, []
        if shape == best:
            moves.append(dict(zip(cells, placed)))
    return best, tuple(moves)


class _Drawn:
    """Traversals drawn from the iterator ``more`` as they are asked for."""

    def __init__(self, more):
        self.more = more
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


@lru_cache(maxsize=None)
def _row_search(shape: tuple[Cell, ...]):
    """The path search for the rows of ``shape``, its Hamiltonian paths
    between two cells, kept for the process.  Its walk tries each cell's
    neighbors fewest own neighbors in the shape first, ties in
    ``ORTHO_STEPS`` order (Warnsdorff's rule): a path must take a cell
    with few ways in while it still can.  On the gadget a row's first path
    then takes 76 to 206 nodes; in ``ORTHO_STEPS`` order it took up to
    14,293, by the end and the turn of the shape it started from."""
    cells = set(shape)
    degree = {c: sum(n in cells for n in orthogonal_neighbors(c)) for c in shape}

    def neighbors(c: Cell) -> list[Cell]:
        return sorted((n for n in orthogonal_neighbors(c) if n in cells), key=degree.__getitem__)

    return path_search(shape, shape, LoopConstraint, neighbors)


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
    rows, and the cycles of regions.  Every node is charged to ``nodes``."""

    def __init__(self, decomp: RegionDecomposition, live: list[int], nodes: _Nodes):
        self.nodes = nodes
        self.cells = decomp.regions
        self.need = [1 << r1 | 1 << r2 for r1, r2 in decomp.touching]
        ids, h = decomp.ids, decomp.height
        alive = bytearray(len(self.cells))
        for r in live:
            alive[r] = 1
        # per cell index with a side on another live region, the index over
        # that side by direction: 0 north, 1 east, 2 south, 3 west
        over: dict[int, dict[int, int]] = {}
        for step, k in ((h, 1), (1, 0)):
            for i, a, b in zip(range(len(ids)), ids, ids[step:]):
                if a != b and alive[a] and alive[b] and (k or (i + 1) % h):
                    over.setdefault(i, {})[k] = i + step
                    over.setdefault(i + step, {})[k + 2] = i
        # per live region, its ports in board order; per port, the cells
        # over the border north, east, south and west, each with its region
        self.ports: dict[int, list[Cell]] = {r: [] for r in live}
        self.cross: dict[Cell, list[tuple[Cell, int]]] = {}
        for i in sorted(over):
            c = divmod(i, h)
            self.ports[ids[i]].append(c)
            self.cross[c] = [(divmod(j, h), ids[j]) for _, j in sorted(over[i].items())]
        # per frame shape and end pair a < b in the frame, the traversals
        # from a to b
        self.rows: dict[tuple, _Drawn] = {}
        # per region, its frame shape and, per move, each cell's frame cell and back
        self.frames: dict[int, tuple] = {}
        # per region and port pair, :meth:`pair`'s answer
        self.answers: dict[tuple[int, Cell, Cell], tuple] = {}

    def pair(self, r: int, a: Cell, b: Cell) -> tuple[_Drawn, dict[Cell, Cell], bool]:
        """The traversals of region ``r`` from ``a`` to ``b`` (none when no
        path joins them) as the row that holds them, the map from its frame
        cells to board cells, and whether the row's paths run from ``b``.
        A traversal reaches the board only in a loop, through the map.
        Each answer for two ports is worked out once per search and kept."""
        if a == b:
            return _Drawn(iter([(a,)])), {a: a}, False
        answer = self.answers.get((r, a, b))
        if answer is not None:
            return answer
        if r not in self.frames:
            cells = self.cells[r]
            tx, ty = min(x for x, _ in cells), min(y for _, y in cells)
            shape, moves = _frame(frozenset((x - tx, y - ty) for x, y in cells))
            ontos = [{(x + tx, y + ty): f for (x, y), f in move.items()} for move in moves]
            self.frames[r] = shape, [(o, {f: c for c, f in o.items()}) for o in ontos]
        shape, maps = self.frames[r]
        # the first move in turn order among those giving the least ends
        onto, back = min(maps, key=lambda m: sorted((m[0][a], m[0][b])))
        ends = tuple(sorted((onto[a], onto[b])))
        row = self.rows.get((shape, ends))
        if row is None:
            row = self.rows[shape, ends] = _Drawn(_row_search(shape)(*ends, self.nodes))
        answer = self.answers[r, a, b] = row, back, onto[a] != ends[0]
        return answer

    def exits(self, r: int, a: Cell):
        """The ports of region ``r`` that a traversal entering at ``a`` can
        leave from."""
        if len(self.cells[r]) == 1:
            return (a,)
        return (b for b in self.ports[r] if b != a and self.pair(r, a, b)[0].has(0))

    def cycles(self, root: int, floor: int):
        """Each cycle of live regions, ``root`` and regions from ``floor`` up,
        that leaves no two unvisited regions touching, as its segments
        (region, entry, exit) from the root's, once: the root is left at
        the larger of its two ports, or for a one-cell root, the cell
        after it is the smaller of its two neighbors on the loop.  One node
        per segment placed."""
        cells, cross = self.cells, self.cross
        segs: list[tuple[int, Cell, Cell]] = []
        visited = size = 0

        def starts():
            for a in self.ports[root]:
                for b in self.exits(root, a):
                    if b >= a:
                        yield root, a, b

        def steps(b):
            for c, r in cross[b]:
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
        traversals joined, in every combination.  One node per combination
        after a cycle's first, whose region steps paid for it."""
        for segs in self.cycles(root, floor):
            pairs = [self.pair(*s) for s in segs]
            for i, paths in enumerate(_combinations([row for row, _, _ in pairs])):
                if i:
                    self.nodes.tick()
                yield LoopPath(tuple(chain.from_iterable(
                    map(back.__getitem__, path[::-1] if flip else path)
                    for path, (_, back, flip) in zip(paths, pairs)))).canonical()
