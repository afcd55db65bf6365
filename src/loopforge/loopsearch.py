"""Exhaustive enumeration of loops and pinned-end paths on cell boards.

One engine serves every search in the package: loops on puzzle boards
(:func:`search_loops`), pinned-end gadget traversals (:func:`search_paths`)
and cycles through every cell (:func:`cycles_through`, behind
:func:`loopforge.hamilton.hamiltonian_cycles`).  It extends a simple path
over an integer adjacency list with an explicit stack instead of
recursion, so path length is bounded by memory alone and no search changes
interpreter state.

Each loop is found once, from one root cell and in one direction (second
cell smaller than last).  When some cells are required, every accepted
loop passes through the smallest required cell exactly once, so one walk
from that cell over all allowed cells finds every loop.  With nothing
required, a loop is rooted at its smallest cell: one walk per anchor, over
the cells not smaller than it.  Every loop is returned in canonical form
(``LoopPath.canonical``: smallest cell first); the order of the loops is
deterministic.  Puzzle rules plug in as a constraint object, told of one
cell at a time as the path grows and shrinks; its incremental checks may
only prune provably invalid extensions, the final ``close_ok``/``finish_ok``
verdict is authoritative.

Pruning: per node the search checks connectivity of the remaining cells,
that the path can still reach its end, availability of two usable
neighbors for every still-required cell, and, when every allowed cell is
required (exact cover), the two-coloring budget that an alternating path
over the remaining cells must meet; otherwise, that no required cell lies
in a pocket the path has walled off.  All prunes reject only provably dead
branches, so a completed search is exhaustive.

The connectivity prune reads the node's reach set: the free cells joined
to the head's free neighbors.  Sets of cells are Python ints, one bit per
cell in column-major order (bit ``(x - x0) * height + (y - y0)`` of the
cells' bounding box), so a step north is a shift by one and a step east a
shift by ``height``, each through the mask of the cells that have that
neighbor.  A fill dilates its seed within the free cells until it stops
growing: its cost is the fill's breadth-first depth in machine words, not
its cells.  The pending cells are the required cells not yet on the path
and a pinned path's goal, fixed at the call: a rule that makes more cells
mandatory as the path grows can only reject the path at its close.  A path
never leaves its node's reach set, so every live node's set holds every
pending cell.

When the head cuts the free cells into components, the path leaves the
head into one of them and, the head being on the path, can never come back
to another.  So:

- under exact cover the node is dead unless the free cells are one
  component: the fill from the head's first free neighbor must reach every
  free cell;
- otherwise, when cells are pending, the one component the path enters
  must hold all of them.  The fill starts from a pending cell; the node is
  dead unless that component holds every pending cell and a free neighbor
  of the head.  The node takes the component over: it becomes its reach
  set, and the node steps only into it;
- a loop with nothing pending fills the component of the head's first free
  neighbor, and when another free neighbor lies outside it, fills on to
  every component joined to the head and keeps them all.

A loop's last cell neighbors its start, so some free neighbor of the start
must be in the reach set.

The fill is skipped when the parent's reach set was one component and the
new head is simple: its free neighbors are joined to each other by free
cells other than the head, each neighboring two of them.  Removing a
simple cell from a connected set leaves it connected, so the node's reach
set is exactly the parent's less the head, and it is one component again.
The node shares the parent's int and reads it through the free cells.
Then:

- under exact cover the parent's set held every free cell, so this node's
  set still does;
- every pending cell is in the parent's set and is not the head, so it is
  still in;
- the parent's set held a free neighbor of the start; only when the head
  is one is the set tested again.

Whether a head is simple depends only on which of its neighbors and of
the diagonal cells linking two of them are free, so it is read from a
table of those 256 patterns.

The prunes' verdicts are the fill's at every node, so node counts and the
order of the paths found do not depend on the skip.

Past depth 1, a search that is not exact cover and still has required
cells pending looks for pockets next to the previous path cell.  From each
of that cell's free neighbors it grows breadth-first layers inside the
free cells less a path's goal, each layer one shift-and-mask step as in a
fill, and stops once a layer holds a neighbor of the head or of the end.
A layer of exactly one cell seals the cells grown before it; a growth that
dies out seals every cell it reached.  A sealed set that holds a pending
cell kills the node.  The proof: no sealed cell neighbors the head or the
end, the goal is outside the growth and the other path cells are closed,
so the path's remaining stretch, from the head to the end over free cells,
can reach a sealed set only through its one-cell layer (or not at all).
It would have to enter and leave through that one cell, which a simple
path cannot.  This holds for any seed cell; the previous cell is where a
step leaves pockets behind.  The test runs whether or not the fill is
skipped.  Under exact cover the parity and fill prunes leave it little
to find, and there it costs more than it saves.

A walk under exact cover with the base :class:`LoopConstraint` (no rules)
keeps a table of its resolved nodes.  There a node's completions, the
ways to extend its path to one the walk yields, depend only on its head,
its free cells and, for a loop, its second cell, which the closing
direction reads: every free cell must be entered, no rule reads the cells
before the head, and each prune rejects only dead branches, so the walk
finds every completion and finds them in the order of the neighbor
lists.  When a node is popped, its subtree done, the table maps its key
(those three packed into one int) to the keys of its children that have
completions, in the order found: a DAG, in which a key with no entry is a
node that closed.  A node that was a leaf is not stored, since walking it
again costs what finding it costs.  Keys are looked up only once the table
holds one.  A node whose key is there costs its node and yields its path
extended by each completion, read from the DAG with a stack, in the order
its first walk found them, and is not expanded.  So the paths and their
order are the unmemoized walk's, at fewer nodes.

Budgets are counted in search nodes (one per path extension considered);
running out raises :class:`SearchBudgetExceeded`, which callers must treat
as "no verdict", never as "no solution".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import SearchBudgetExceeded
from .model import ORTHO_STEPS, Cell, LoopPath, orthogonal_neighbors


class LoopConstraint:
    """Base: no puzzle rules.  Subclasses override the hooks they need.

    ``push(cell)`` offers the cell that would follow those pushed and not
    popped, the walk's start first; rules keep the earlier cells they read.
    It must leave internal state untouched when it returns False; on True
    the engine will balance it with exactly one ``pop``.
    """

    def push(self, cell: Cell) -> bool:
        return True

    def pop(self) -> None:
        pass

    def close_ok(self, cells: tuple[Cell, ...]) -> bool:
        return True

    def finish_ok(self, cells: tuple[Cell, ...]) -> bool:
        return True


@dataclass(frozen=True)
class SearchResult:
    loops: list
    nodes: int
    exhausted: bool  # True when the whole space was covered

    def __repr__(self):
        return (f"SearchResult({len(self.loops)} found, nodes={self.nodes}, "
                f"exhausted={self.exhausted})")


def _simple(key: int) -> bool:
    """Whether a head is simple, from the free cells around it: bit ``k``
    of ``key`` for its neighbor at ``ORTHO_STEPS[k]``, bit ``4 + k`` for the
    diagonal cell that neighbors it and the next one clockwise.  The free
    neighbors sit on a cycle of four slots, a free diagonal linking two
    free ones next to each other, so they are joined iff the links number
    at least one less than they do."""
    free = key & 15
    links = key >> 4 & free & (free >> 1 | free << 3)
    return links.bit_count() >= free.bit_count() - 1


_SIMPLE = bytes(_simple(key) for key in range(256))
_STEP_FLAG = {step: 2 << k for k, step in enumerate(ORTHO_STEPS)}
# per flag bit, the table that writes a byte of flags as "1" where it is set
_DIGITS = [bytes(b"01"[v >> f & 1] for v in range(256)) for f in range(5)]


class _Grid:
    """Integer-indexed view of the usable cells; ``neighbors`` lists the
    candidate neighbors of a cell in the order the search tries them.  Those
    among ``cells`` must be orthogonal unit steps (else :class:`ValueError`);
    the others are ignored.

    A set of cells is an int, one bit per cell of the bounding box in
    column-major order: ``pos`` holds each cell's bit and ``height`` is the
    distance of a step east.  ``full`` is the set of every cell, and
    ``steps`` the sets of cells with a neighbor north, east, south and west
    (the order of ``ORTHO_STEPS``).

    ``reads`` holds, per cell, :meth:`reads_of` once a walk has asked for
    it, so every walk on the grid shares what earlier walks found."""

    def __init__(self, cells: list[Cell], neighbors=orthogonal_neighbors):
        self.cells = cells
        self.index = index = {c: i for i, c in enumerate(cells)}
        xs, ys = zip(*cells) if cells else ((0,), (0,))
        x0, y0 = min(xs), min(ys)
        self.height = h = max(ys) - y0 + 1
        self.pos = pos = [(x - x0) * h + y - y0 for x, y in cells]
        self.top = top = max(pos, default=0)
        # per bit, highest first: 1 for a cell, 2 << k for a cell with a
        # neighbor at ORTHO_STEPS[k]
        flags = bytearray(top + 1)
        self.nbrs = nbrs = []
        for c, p in zip(cells, pos):
            x, y = c
            adj = []
            f = 1
            for w in neighbors(c):
                j = index.get(w)
                if j is not None:
                    try:
                        f |= _STEP_FLAG[w[0] - x, w[1] - y]
                    except KeyError:
                        raise ValueError(f"{w} is not an orthogonal unit step from {c}") from None
                    adj.append(j)
            nbrs.append(tuple(adj))
            flags[top - p] = f
        self.full, *self.steps = (int(flags.translate(t), 2) for t in _DIGITS)
        self.reads: list = [None] * len(cells)
        self._flags = flags

    @cached_property
    def around(self) -> list[int]:
        """Per bit, the set of its cell's neighbors (0 for a bit of no
        cell)."""
        h = self.height
        # per byte of flags, the neighbors of a cell at bit h: north at
        # h + 1, east at 2h, south at h - 1 and west at 0
        near = [(f >> 1 & 1) << h + 1 | (f >> 2 & 1) << 2 * h | (f >> 3 & 1) << h - 1
                | f >> 4 & 1 for f in range(32)]
        return [near[f] << p >> h for p, f in enumerate(reversed(self._flags))]

    def mask(self, indices: Iterable[int]) -> int:
        """The set of the cells at ``indices``."""
        flags = bytearray(self.top + 1)
        top, pos = self.top, self.pos
        for i in indices:
            flags[top - pos[i]] = 1
        return int(flags.translate(_DIGITS[0]), 2)

    def reads_of(self, head: int) -> tuple[tuple[int, int], ...]:
        """The cells whose occupancy decides whether ``head`` is simple,
        each with its bit in the index of ``_SIMPLE``: the head's neighbors
        and each diagonal cell neighboring two of them."""
        index, nbrs = self.index, self.nbrs
        x, y = self.cells[head]
        out = []
        for k, (dx, dy) in enumerate(ORTHO_STEPS):
            a = index.get((x + dx, y + dy))
            if a in nbrs[head]:
                out.append((a, 1 << k))
                ex, ey = ORTHO_STEPS[(k + 1) % 4]
                b = index.get((x + ex, y + ey))
                d = index.get((x + dx + ex, y + dy + ey))
                if b in nbrs[head] and d in nbrs[a] and d in nbrs[b]:
                    out.append((d, 16 << k))
        return tuple(out)


class _Nodes:
    """Search nodes spent so far, counted against one budget by every walk
    of a search: each solve, certificate and public search call makes one
    and passes it to every walk under it.  A budget of 0 stops at the first
    node; a negative one raises :class:`ValueError`."""

    def __init__(self, budget: int | None):
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be at least 0, got {budget}")
        self.budget = budget
        self.count = 0

    def tick(self):
        self.count += 1
        if self.budget is not None and self.count > self.budget:
            raise SearchBudgetExceeded(self.count)


def _walk(grid: _Grid, start: int, end: int, required: Iterable[int],
          constraint: LoopConstraint, nodes: _Nodes) -> Iterator[tuple[Cell, ...]]:
    """Yield, as cell tuples, the simple paths from ``start`` that visit
    every ``required`` index and that the constraint accepts.

    With ``end == start`` the paths are loops: each closes back to the
    start (which is on the path from the outset) and is yielded once, in
    the direction whose second cell comes before its last in ``grid.cells``.
    Otherwise ``end`` is a free, terminal goal: a path stops there and is
    yielded when it ends there.  Cell tuples are built only for paths that
    close or finish.
    """
    cells, nbrs, pos = grid.cells, grid.nbrs, grid.pos
    north, east, south, west = grid.steps
    h = grid.height
    n = len(cells)
    loop = start == end
    color = [(c[0] + c[1]) & 1 for c in cells]
    req = bytearray(n)
    for i in required:
        req[i] = 1
    exact = all(req)
    req_idx = [i for i in range(n) if req[i]]
    adj_end = bytearray(n)
    for i in nbrs[end]:
        adj_end[i] = 1
    on = bytearray(n)
    free_color = [color.count(0), color.count(1)]
    pending = len(req_idx)
    path_idx: list[int] = []
    # sets of cells: the free ones, the neighbors of the start and the cells
    # pending while free (the required ones and a path's goal)
    free = grid.full
    start_nbrs = grid.mask(nbrs[end])
    pend_cells = 0 if exact else grid.mask(req_idx if loop else [*req_idx, end])
    goal = 0 if loop else 1 << pos[end]
    around = None if exact else grid.around  # only the pocket test reads it

    # per path depth, the reach set of the node there (a simple head's is
    # its parent's, read through the free cells), and whether it is one
    # component of the free cells
    reach = [0] * n
    whole = bytearray(n)
    reads = grid.reads

    def simple(head: int) -> bool:
        """Whether the head's free neighbors are joined to each other by
        free cells other than the head, each neighboring two of them."""
        rd = reads[head]
        if rd is None:
            # on a corridor most heads come once, each with one free neighbor
            if len([a for a in nbrs[head] if not on[a]]) < 2:
                return True
            rd = reads[head] = grid.reads_of(head)
        key = 0
        for i, bit in rd:
            if not on[i]:
                key |= bit
        return _SIMPLE[key]

    def fill(r: int) -> int:
        """The free cells joined to the free cells ``r``: ``r`` grown one
        step in every direction at a time until it stops growing."""
        while True:
            g = (r | (r & north) << 1 | (r & east) << h
                 | (r & south) >> 1 | (r & west) >> h) & free
            if g == r:
                return r
            r = g

    def sealed(head: int, prev: int) -> bool:
        """Whether a pending cell lies in a pocket grown from a free
        neighbor of ``prev``: free cells, the goal aside, that the path
        could enter and leave only through one cell."""
        stop = start_nbrs | around[pos[head]]
        inside = free ^ goal
        for s in nbrs[prev]:
            if on[s] or s == end:
                continue
            layer = seen = 1 << pos[s]
            avail = inside ^ layer
            one = True
            while not layer & stop:
                if one:
                    layer = around[layer.bit_length() - 1] & avail
                else:
                    layer = ((layer & north) << 1 | (layer & east) << h
                             | (layer & south) >> 1 | (layer & west) >> h) & avail
                one = not layer & (layer - 1)
                if one and seen & pend_cells:
                    return True
                if not layer:
                    break
                seen |= layer
                avail ^= layer
        return False

    def extensions(head: int):
        """The head's neighbors the node may step to: none once a prune
        shows the node dead, and after a fill with cells pending only
        those in the component that holds them."""
        free_total = free_color[0] + free_color[1]
        if exact and free_total:
            # the free cells are entered in alternating colors, starting
            # opposite the head; the walk's last step, onto the end, is
            # step free_total + 1 for a loop and free_total for a path
            sc = 1 - color[head]
            if free_color[sc] != (free_total + 1) // 2:
                return ()
            steps = free_total + on[end]
            if (sc if steps & 1 else 1 - sc) != color[end]:
                return ()
        steps_to = nbrs[head]
        d = len(path_idx) - 1
        if pending and d > 1 and not exact and sealed(head, path_idx[-2]):
            return ()
        # the free cells connected to the head: the parent's set less the
        # head when the head cannot cut it, else a fresh fill
        if d > 0 and whole[d - 1] and simple(head):
            r = reach[d] = reach[d - 1]
            whole[d] = 1
            # the parent's set held a free neighbor of the start
            if loop and adj_end[head] and not r & free & start_nbrs:
                return ()
        else:
            pend = pend_cells & free
            seeds = [w for w in steps_to if not on[w]]
            if pend:
                # the path can enter one component only, and must reach
                # every pending cell: take over their component
                r = fill(pend & -pend)
                if r & pend != pend:
                    return ()
                steps_to = tuple(w for w in seeds if r >> pos[w] & 1)
                whole[d] = 1
            else:
                # the component of the head's first free neighbor, which
                # under exact cover must hold every free cell; else also
                # every other component joined to the head
                r = fill(1 << pos[seeds[0]]) if seeds else 0
                if exact and r != free:
                    return ()
                rest = sum(1 << pos[w] for w in seeds) & ~r
                if rest:
                    r = fill(r | rest)
                whole[d] = not rest
            reach[d] = r
            # a loop's last cell neighbors its start, so one must be in the set
            if loop and not r & start_nbrs:
                return ()
        # every pending cell except the end still needs two usable path
        # neighbors; since the last node only the previous cell can have
        # stopped being usable, so only its required neighbors are checked
        if exact:
            check = nbrs[path_idx[-2]] if d else ()
        else:
            check = [w for w in nbrs[path_idx[-2]] if req[w]] if d else req_idx
        for w in check:
            if on[w] or w == end:
                continue
            avail = 0
            for x in nbrs[w]:
                if not on[x] or x == head or x == end:
                    avail += 1
            if avail < 2:
                return ()
        return steps_to

    # under exact cover and no rules, per resolved node's key, the keys of
    # its children that have completions, in the order found; per path
    # depth, those keys so far, once a child there is resolved; and whether
    # the top node, if it has no child, has a completion: it closed, or its
    # table entry has one
    memo: dict[int, tuple[int, ...]] | None = (
        {} if exact and type(constraint) is LoopConstraint else None)
    kids: list[list[int] | None] = [None] * n if memo is not None else []
    complete = False
    shift = n.bit_length()
    low = (1 << shift) - 1

    def key() -> int:
        """The top node's state: its free cells, a loop's second cell and
        its head."""
        second = path_idx[1] if loop and len(path_idx) > 1 else 0
        return (free << shift | second) << shift | path_idx[-1]

    def replay(stored: tuple[int, ...]) -> Iterator[tuple[Cell, ...]]:
        """The top node's path extended by each completion in the table
        from ``stored``, its children's keys, in the order found."""
        path = [cells[i] for i in path_idx]
        below = [iter(stored)]
        while below:
            for k in below[-1]:
                path.append(cells[k & low])
                more = memo.get(k)
                if more is None:  # a node that closed
                    yield tuple(path)
                    path.pop()
                else:
                    below.append(iter(more))
                break
            else:
                below.pop()
                path.pop()

    if not constraint.push(cells[start]):
        return
    frames: list[Iterator[int]] = []  # per path cell: its untried neighbors
    head = start
    while True:
        on[head] = 1
        free ^= 1 << pos[head]
        free_color[color[head]] -= 1
        pending -= req[head]
        path_idx.append(head)
        nodes.tick()
        if loop:
            closes = adj_end[head] and len(path_idx) >= 4 and path_idx[1] < path_idx[-1]
        else:
            closes = head == end
        if closes and pending == 0:
            path = tuple(cells[i] for i in path_idx)
            if (constraint.close_ok if loop else constraint.finish_ok)(path):
                complete = True
                yield path
        stored = memo.get(key()) if memo else None
        if stored is not None:
            # resolved before: its completions are the table's
            complete = bool(stored)
            frames.append(iter(()))
            yield from replay(stored)
        else:
            frames.append(iter(extensions(head) if loop or head != end else ()))
        # descend into the next extension the constraint admits, retracting
        # every cell whose extensions are used up
        while frames:
            for head in frames[-1]:
                if not on[head] and constraint.push(cells[head]):
                    break
            else:
                frames.pop()
                if memo is not None:
                    # a node with a child is stored, and a node with a
                    # completion is listed under its parent
                    d = len(path_idx) - 1
                    found = kids[d]
                    if found is not None:
                        kids[d] = None
                        complete = bool(found)
                        k = key()
                        memo[k] = tuple(found)
                    elif complete:
                        k = key()
                    if d:
                        up = kids[d - 1]
                        if up is None:
                            up = kids[d - 1] = []
                        if complete:
                            up.append(k)
                    complete = False
                c = path_idx.pop()
                on[c] = 0
                free ^= 1 << pos[c]
                free_color[color[c]] += 1
                pending += req[c]
                constraint.pop()
                continue
            break
        else:
            return


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def solver_cap(mode: str, cap: int | None) -> int | None:
    """The search cap of a puzzle solver in ``mode``: 1 for "first" and
    ``cap`` for "all".  Raises :class:`ValueError` for another mode and, in
    either mode, for a ``cap`` below 1."""
    if mode not in ("first", "all"):
        raise ValueError(f"unknown mode: {mode!r}")
    _check_cap(cap)
    return 1 if mode == "first" else cap


def _collect(found: Iterator, cap: int | None, nodes: _Nodes) -> SearchResult:
    """Drain ``found`` into a result, stopping once ``cap`` items are in
    (the result is then marked non-exhausted)."""
    items = []
    for item in found:
        items.append(item)
        if cap is not None and len(items) >= cap:
            return SearchResult(items, nodes.count, False)
    return SearchResult(items, nodes.count, True)


def walk_loops(allowed: Iterable[Cell], required: Iterable[Cell],
               make_constraint: Callable[[], LoopConstraint],
               nodes: _Nodes) -> Iterator[LoopPath]:
    """Lazily yield, in canonical form, the loops over ``allowed`` cells
    that visit every ``required`` cell and satisfy the constraint, every
    walk ticking ``nodes``."""
    allowed_sorted = sorted(set(allowed))
    required_set = set(required)
    if required_set - set(allowed_sorted):
        return
    # (cells of the walk, its root): a loop through a required cell is
    # rooted there; otherwise at its smallest cell, the anchor
    if required_set:
        roots = [(allowed_sorted, min(required_set))]
    else:
        roots = ((allowed_sorted[i:], anchor) for i, anchor in enumerate(allowed_sorted))
    for cells, root in roots:
        grid = _Grid(cells)
        start = grid.index[root]
        for path in _walk(grid, start, start, map(grid.index.get, required_set),
                          make_constraint(), nodes):
            yield LoopPath(path).canonical()


def search_loops(
    allowed: Iterable[Cell],
    required: Iterable[Cell],
    make_constraint: Callable[[], LoopConstraint],
    *,
    cap: int | None = None,
    budget: int | None = None,
) -> SearchResult:
    """Enumerate loops over ``allowed`` cells that visit every ``required``
    cell and satisfy the constraint.  Stops early once ``cap`` loops are
    found (result marked non-exhausted); ``cap`` must be at least 1."""
    _check_cap(cap)
    nodes = _Nodes(budget)
    return _collect(walk_loops(allowed, required, make_constraint, nodes), cap, nodes)


def cycles_through(cells: list[Cell], neighbors: Callable[[Cell], Iterable[Cell]],
                   budget: int | None = None) -> Iterator[tuple[Cell, ...]]:
    """Lazily yield every cycle through all of ``cells`` under the adjacency
    ``neighbors``, each once: rooted at ``cells[0]``, in the direction whose
    second cell comes before its last in ``cells`` (for sorted ``cells``,
    the smaller one).  A neighbor among ``cells`` must be an orthogonal unit
    step from its cell; any other step between two of ``cells`` raises
    :class:`ValueError` at the call.  The iterator raises
    :class:`SearchBudgetExceeded` once ``budget`` nodes are spent."""
    nodes = _Nodes(budget)
    grid = _Grid(cells, neighbors)
    if any(len(adj) < 2 for adj in grid.nbrs):
        return iter(())
    return _walk(grid, 0, 0, range(len(cells)), LoopConstraint(), nodes)


def path_search(
    allowed: Iterable[Cell],
    required: Iterable[Cell],
    make_constraint: Callable[[], LoopConstraint],
    neighbors: Callable[[Cell], Iterable[Cell]] = orthogonal_neighbors,
) -> Callable[[Cell, Cell, _Nodes], Iterator[tuple[Cell, ...]]]:
    """The search ``paths(start, goal, nodes)`` over ``allowed`` cells
    covering every ``required`` cell: a lazy iterator of the paths of
    :func:`search_paths` as cell tuples, its walk ticking ``nodes``.  The
    cells are indexed once, their neighbors tried in the order
    ``neighbors`` gives, and every call walks the same grid.  A call raises
    :class:`ValueError` unless ``start`` and ``goal`` are distinct allowed
    cells."""
    grid = _Grid(sorted(set(allowed)), neighbors)
    index = grid.index
    required_set = set(required)
    missing = not required_set <= index.keys()
    req_idx = [index[c] for c in required_set if c in index]

    def paths(start: Cell, goal: Cell, nodes: _Nodes) -> Iterator[tuple[Cell, ...]]:
        if start not in index or goal not in index or start == goal:
            raise ValueError("start/goal must be distinct allowed cells")
        if missing:
            return iter(())
        return _walk(grid, index[start], index[goal], req_idx, make_constraint(), nodes)

    return paths


def search_paths(
    allowed: Iterable[Cell],
    start: Cell,
    goal: Cell,
    required: Iterable[Cell],
    make_constraint: Callable[[], LoopConstraint],
    *,
    cap: int | None = None,
    budget: int | None = None,
) -> SearchResult:
    """Enumerate simple paths from ``start`` to ``goal`` over ``allowed``
    cells covering every ``required`` cell.  The goal cell is terminal: a
    path may not pass through it and continue.  ``cap`` must be at least 1."""
    _check_cap(cap)
    nodes = _Nodes(budget)
    found = path_search(allowed, required, make_constraint)(start, goal, nodes)
    return _collect(found, cap, nodes)
