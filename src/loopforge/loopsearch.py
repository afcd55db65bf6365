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

The rules below reject only provably dead branches, so a completed search
is exhaustive.  Each runs in the walks named; "exact cover" means that
every allowed cell is required.

- Root check, at the walk's first node: under exact cover, the colors of
  the start and the end and the walk's color counts must allow a path
  that alternates colors over every cell; with required cells, the walk
  is dead when a required cell is peeled off the board.  Every step is an
  orthogonal unit step, onto a free cell of the other color, so a node
  whose parent met the color counts meets them too: no step can change
  that verdict, and no node past the root tests it.
- Connectivity, in every walk at every node: the cells still pending must
  be reachable from the head, and a finishing cell too.
- Forced moves, in every walk past a loop's root: a required free
  neighbor of the head with two usable neighbors is the next cell.
- Pockets, off exact cover with required cells pending, past depth 1: no
  required cell may lie in a pocket the path has walled off.
- Necks, for a pinned path under exact cover: no free neighbor of the
  head may cut free cells off.
- Cores, off exact cover with rules that summarise themselves, once the
  walk keeps its table: every pending cell must be in the node's core,
  and the walk steps only into it.

Two kinds of walk keep a table of their resolved nodes: those under
exact cover with no rules, and, once ``LATE`` nodes are spent, those off
exact cover whose rules summarise themselves.  No rule tests that every
required cell keeps two usable neighbors: the root peel and the forced
moves imply it (below).

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

- when cells are pending, the one component the path enters must hold all
  of them.  The fill starts from the head's first free neighbor when that
  cell is pending, else from the lowest pending cell; the node is dead
  unless that component holds every pending cell and a free neighbor of
  the head.  The node takes the component over: it becomes its reach set,
  and the node steps only into it.  Under exact cover every free cell is
  pending, so the node is dead unless the free cells are one component;
- a loop with nothing pending fills the component of the head's first free
  neighbor, and when another free neighbor lies outside it, fills on to
  every component joined to the head and keeps them all.

A path ends on one of its finishing cells: a pinned path's end, or a
neighbor of a loop's start.  A loop is yielded in the direction whose
second cell comes before its last in ``grid.cells``, so its finishing
cells are the start's neighbors, and once its second cell is placed those
after that cell.  Some free finishing cell must be in the reach set.  A
node closes when its head is a finishing cell and no required cell is
free: a grid graph has no triangle, so no path of three cells ends next
to its start.

The fill is skipped when the parent's reach set was one component and the
new head is simple: its free neighbors are joined to each other by free
cells other than the head, each neighboring two of them.  Removing a
simple cell from a connected set leaves it connected, so the node's reach
set is exactly the parent's less the head, and it is one component again.
The node shares the parent's int and reads it through the free cells.
Then:

- every pending cell (under exact cover, every free cell) is in the
  parent's set and is not the head, so it is still in;
- the set is tested again for a free finishing cell: the head may have
  been the parent's last, and a loop's second cell narrows them.

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
skipped.  Under exact cover the fill prune leaves it little to find, and
there it costs more than it saves.

A pinned path under exact cover looks for necks at the head instead,
whatever its rules: the argument reads none of them.  Its rest runs from
the head to the end through every free cell.  Let ``w`` be a free neighbor
of the head other than the end.  If, in the free cells and the head
less ``w``, a free cell's component holds neither the head nor the end,
the rest would have to enter that component and leave it, both through
``w``, which it visits once: the node is dead.  The fill prune has
found the free cells one component, so every component left holds the
head or a free neighbor of ``w``; a fill from each such neighbor, inside
the free cells less ``w``, stops at its first step that touches a
neighbor of the head or the end, and the node is dead when one stops
growing first.  A ``w``
simple among the free cells is skipped: the free cells less it stay one
component, which holds the end and is joined to the head or leaves it
alone.  The test runs only at a head with two such neighbors or more:
from a head with one, ``w``, the path must step onto ``w``, and that
node's fill finds it dead exactly when the test would have, since the
free cells less ``w`` must then be one component.  Loop walks keep the
prunes above: on the serpentine boards, whose first cycle needs no
backtrack, the same test made
:func:`loopforge.hamilton.find_hamiltonian_cycle` about a fifth slower at
48x48.

Every walk takes forced moves at the head, rules or none.  A cell is
usable by the rest of the path when it is free, the head or the end.
Every required free cell other than the end lies inside the finished
path, between two path neighbors that are usable now; a loop's start is
one only for a finishing cell, the start's one path neighbor still to
come.  Past a loop's root the head has one step left, so a required free
neighbor ``w`` of the head other than the end with exactly two usable
neighbors, the head among them and the start counted only for a
finishing cell, must be entered from the head: it is the next cell, the
node's one extension.  Two such neighbors cannot both be next, so they
kill the node.  None has fewer than two: with the head alone, ``w``
would have no free neighbor and be no finishing cell, a component of the
free cells holding neither a finishing cell nor a goal, and the
connectivity prune has already found such a node dead.  Under exact
cover every free cell is required.  The neck test runs before a forced
step, since another neighbor of the head may still cut cells off.
At a loop's root the start has two steps left, its second cell and its
last, yet the rule never fires there: every neighbor of the start is a
finishing cell, so the start is counted as the head and again as the
end, and a neighbor is forced only when it has no free neighbor, a
required cell that the root's peel (below) has already refuted.  A cell
entered by a forced move has at most one free neighbor, so it is simple:
the fill skip takes it without reading its neighborhood.

At its first node a walk with required cells makes the root's core
(below): the board peeled, the start and the end kept.  No completion
loses a cell to the peel, so the walk is dead when a required cell is
peeled off.
The peel and the forced moves stand in for a test that every required
cell other than the end keeps two usable neighbors.  At the root every
cell is usable, and the peel leaves each required cell two neighbors.
From the parent to the node only the parent's head stops being usable
(the new head still is), so only its free neighbors can have lost one.
Where the rule ran at the parent it looked at each of them that is
required, and neither killed the parent for it nor made it the next
cell, so the cell had three usable neighbors or more there and keeps
two.  Under a loop's root, where the rule counted the start twice, the
start stays usable as the end, so the counts are the root's, two or
more after the peel.

A walk keeps a table of its resolved nodes when a node's completions,
the ways to extend its path to one the walk yields, depend only on a key
it can compute.  Each prune rejects only dead branches, so the walk finds
every completion of a node, and finds them in the order of the neighbor
lists; nodes with equal keys thus have the same completions in the same
order.  When a node is popped, its subtree done, the table maps its key
to the keys of its children that have completions, in the order found,
led by ``MARK`` when the node closed itself (``(MARK,)`` with no child):
a DAG in which every listed key has an entry.  Another node with no
child is not stored, since walking it again costs what finding it costs.
Keys are looked up once the table holds one.  A node whose key
is there costs its node, yields its path if it closes and then its path
extended by each completion, read from the DAG with a stack, in the
order its first walk found them, and is not expanded.  Most entries have
one child (in the AoN gadget certificate 60,831 of the 64,138 table edges
read lead into one), so the reading steps down a run of them in one
inner loop and adds a level to its stack only where an entry branches.
So the paths and their order are the unmemoized walk's, at fewer nodes.
A rule may read more than the key, as the forced moves read free cells
outside a core: each rule is sound, so a node's completions are found
whatever it reads.

Under exact cover with the base :class:`LoopConstraint` (no rules), the
key is the free cells and the head, packed into one int.  There every
free cell must be entered and no rule reads the cells before the head;
a loop's completions also depend on its finishing cells, which its
second cell fixes.  The free cells and the head fix that cell, or the
node has no completion: every loop walk that keeps a table starts at its
smallest cell, whose neighbors are at most the ones north and east of
it.  One of them free means the other is second; neither free, the node
completes only by closing at once, at the east one, after the north one.

Off exact cover, with rules that summarise themselves
(:meth:`LoopConstraint.state`), the key is the rules' state, the node's
core, a loop's second cell and the head.  The core is the free cells,
the head and the end, less every cell other than the head and the end
with fewer than two neighbors in the set, peeled until none is left.
Peeling never removes a cell of a completion: each has two neighbors on
the completed path, the cells before and after it, and those are in the
set.  So a completion of a node lies in its core, and its cells are
free in every node with the same core.  The state fixes the rules'
verdicts on the cells that follow and at the close.  A pending cell
outside the core can never be reached, so such a node is dead; it is
pruned before its key is made, and in every node keyed the pending cells
left are those of the core other than the head and a loop's start,
which the key fixes.  A loop's second cell fixes its finishing cells,
so the key fixes whether the node or an extension of it closes; a start
with three neighbors or more has more than one set of them, so the key
cannot drop that cell.  A root is keyed with second cell 0.  So nodes
with equal keys have equal completions.  The core is a prune as well:
the walk steps only into it, and a node with a pending cell outside it
is dead.

A node's core is made from its parent's: that core less the parent's
head (a loop's start stays), peeled with the new head kept, in the
shift-and-mask steps of a fill (per step, the cells with a neighbor in
the set on each side are the set shifted through a step mask).  The new
head is in the parent's core, so the result is the core of the node's
own free cells, head and end: that core, with the parent's head added and
the new head left out if it has no other neighbor there, is a set in
which every cell but the parent's head and the end has two neighbors, so
it lies in the parent's core.

The first ``LATE`` nodes of such a walk keep no table: most walks off
exact cover (each of a gadget certificate's, about 70 nodes, or a small
compile's first loop, about 50) end within them, never meet a key twice
and would pay for the bookkeeping, about a third more time a node.  At
the next node the nodes on the path get their cores (0, no completion,
for a node whose head is outside its parent's), and none of those above
it is stored, since their children so far were not listed; every node
entered after it is.

Budgets are counted in search nodes (one per path extension considered);
running out raises :class:`SearchBudgetExceeded`, which callers must treat
as "no verdict", never as "no solution".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import SearchBudgetExceeded
from .model import ORTHO_STEPS, Cell, LoopPath, orthogonal_neighbors


class LoopConstraint:
    """Base: no puzzle rules.  Subclasses override the hooks they need.

    ``push(cell)`` offers the cell that would follow those pushed and not
    popped, the walk's start first; rules keep the earlier cells they read.
    It must leave internal state untouched when it returns False; on True
    the engine will balance it with exactly one ``pop``.

    ``state()`` summarises, in O(1), the rules' view of the cells pushed
    and not popped: a hashable value such that two paths with the same
    start, the same last cell and equal values get the same verdicts from
    ``push`` on any cells that follow, and from ``close_ok`` or
    ``finish_ok`` on the path, or on any extension of it, that visits
    every required cell.
    A walk that is not exact cover keys its table of resolved nodes on it.
    ``None``, the default, says the rules cannot summarise themselves, and
    such a walk keeps no table.
    """

    def push(self, cell: Cell) -> bool:
        return True

    def state(self):
        return None

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
MARK = -1  # in a table entry, the node closed itself
LATE = 128  # the nodes a walk off exact cover spends before it keeps a table
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
    (the order of ``ORTHO_STEPS``), and ``around``, per bit, the set of its
    cell's neighbors (0 for a bit of no cell).

    ``reads`` holds, per cell, :meth:`reads_of` once a walk has asked for
    it, shared by every walk on the grid: a certificate's exit pairs, or
    the rows of one region shape in every region search of the process."""

    def __init__(self, cells: list[Cell], neighbors=orthogonal_neighbors):
        self.cells = cells
        self.index = index = {c: i for i, c in enumerate(cells)}
        xs, ys = zip(*cells) if cells else ((0,), (0,))
        x0, y0 = min(xs), min(ys)
        self.height = h = max(ys) - y0 + 1
        self.pos = pos = [(x - x0) * h + y - y0 for x, y in cells]
        top = max(pos, default=0)
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
        # per byte of flags, the neighbors of a cell at bit h: north at
        # h + 1, east at 2h, south at h - 1 and west at 0
        near = [(f >> 1 & 1) << h + 1 | (f >> 2 & 1) << 2 * h | (f >> 3 & 1) << h - 1
                | f >> 4 & 1 for f in range(32)]
        self.around = [near[f] << p >> h for p, f in enumerate(reversed(flags))]
        self.reads: list = [None] * len(cells)

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
    yielded when it ends there.  Either way a path ends on a finishing
    cell (see the module docstring).  Cell tuples are built only for paths
    that close or finish.
    """
    cells, nbrs, pos = grid.cells, grid.nbrs, grid.pos
    north, east, south, west = grid.steps
    h = grid.height
    n = len(cells)
    loop = start == end
    req = bytearray(n)
    for i in required:
        req[i] = 1
    exact = all(req)
    # under exact cover the walk enters the cells in alternating colors from
    # the start's: that color must hold (n + 1) // 2 of them, and the end,
    # n - 1 steps on (n for a loop), must have the color of that step
    color = sum(cells[start]) & 1
    miscolored = exact and (sum(sum(c) & 1 == color for c in cells) != (n + 1) // 2
                            or (color + sum(cells[end]) + n - 1 + loop) & 1)
    on = bytearray(n)
    path_idx: list[int] = []
    # sets of cells: the free ones, the finishing ones (a path's end, a
    # loop's start's neighbors, narrowed once its second cell is placed),
    # the required ones and those pending while free (the required ones
    # and a path's goal)
    free = grid.full
    end_bit = 1 << pos[end]
    around = grid.around
    finish = around[pos[end]] if loop else end_bit
    goal = 0 if loop else end_bit
    req_cells = grid.full if exact else sum(1 << pos[i] for i in range(n) if req[i])
    pend_cells = req_cells | goal
    # with no rules the walk calls no push or pop, and keeps a table under
    # exact cover; a pinned path under exact cover runs the neck test
    bare = type(constraint) is LoopConstraint
    necks = exact and not loop

    # per path depth, the reach set of the node there (a simple head's is
    # its parent's, read through the free cells), and whether it is one
    # component of the free cells
    reach = [0] * n
    whole = bytearray(n)
    reads = grid.reads

    def simple(head: int) -> bool:
        """Whether the free neighbors of ``head`` are joined to each other
        by free cells other than it, each neighboring two of them."""
        # at most one free neighbor, as on a corridor or after a forced move
        t = around[pos[head]] & free
        if not t & t - 1:
            return True
        rd = reads[head]
        if rd is None:
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
        stop = around[pos[end]] | around[pos[head]]
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

    def necked(head: int, ws: list[int]) -> bool:
        """Whether one of ``ws``, the head's free neighbors other than the
        end, cuts free cells off from both the head and the end: a fill
        from one of its other free neighbors, inside the free cells less
        it, stops growing before it touches a neighbor of the head or the
        end.  A neighbor simple among the free cells cuts nothing."""
        stop = end_bit | around[pos[head]]
        for w in ws:
            if simple(w):
                continue
            inside = free ^ 1 << pos[w]
            known = stop  # cells of components that touch the head or the end
            for s in nbrs[w]:
                if on[s]:
                    continue
                r = 1 << pos[s]
                while not r & known:
                    g = (r | (r & north) << 1 | (r & east) << h
                         | (r & south) >> 1 | (r & west) >> h) & inside
                    if g == r:
                        return True
                    r = g
                known |= r
        return False

    def peel(t: int, keep: int) -> int:
        """The cells of ``t`` left once every cell outside ``keep`` with
        fewer than two neighbors in the set is taken out, until none is:
        per step, the cells with a neighbor in ``t`` from each side are
        ``t`` shifted as in a fill."""
        while True:
            a = (t & north) << 1
            b = (t & south) >> 1
            c = (t & east) << h
            e = (t & west) >> h
            g = t & (keep | a & b | (a | b) & (c | e) | c & e)
            if g == t:
                return t
            t = g

    def extensions(head: int):
        """The head's neighbors the node may step to: none once a prune
        shows the node dead, and after a fill with cells pending only
        those in the component that holds them."""
        steps_to = nbrs[head]
        d = len(path_idx) - 1
        # at the root: the colors cannot alternate, or a required cell is
        # peeled off the board, the start and the end kept (the root's
        # core), and can never be entered and left
        if not d and (miscolored or req_cells and req_cells & ~core_at(0)):
            return ()
        if not exact and d > 1 and req_cells & free and sealed(head, path_idx[-2]):
            return ()
        # the free cells connected to the head: the parent's set less the
        # head when the head cannot cut it, else a fresh fill
        if d > 0 and whole[d - 1] and simple(head):
            r = reach[d] = reach[d - 1]
            whole[d] = 1
            # the path ends on a finishing cell, so a free one must be in
            # the set: the head may have been the parent's last, and a
            # loop's second cell narrows them
            if not r & finish & free:
                return ()
        else:
            pend = pend_cells & free
            seeds = [w for w in steps_to if not on[w]]
            if pend:
                # the path can enter one component only, and must reach
                # every pending cell: take over their component, grown from
                # the head's first free neighbor when it is pending (always
                # under exact cover), else from the lowest pending cell
                s = 1 << pos[seeds[0]] if seeds else 0
                r = fill(s if s & pend else pend & -pend)
                if r & pend != pend:
                    return ()
                steps_to = tuple(w for w in seeds if r >> pos[w] & 1)
                whole[d] = 1
            else:
                # the component of the head's first free neighbor and every
                # other component joined to the head
                r = fill(1 << pos[seeds[0]]) if seeds else 0
                rest = sum(1 << pos[w] for w in seeds) & ~r
                if rest:
                    r = fill(r | rest)
                whole[d] = not rest
            reach[d] = r
            # the path ends on a finishing cell, so one must be in the set
            if not r & finish:
                return ()
        # a required free neighbor of the head other than the end with two
        # usable neighbors (free, the head or the end) is the next cell, and
        # a second such kills the node.  Besides the head, a neighbor's
        # usable ones are the free cells and, for a finishing cell, a
        # loop's start
        ws = []
        forced = None
        for w in steps_to:
            if on[w] or w == end or not req[w]:
                continue
            if (around[pos[w]] & free).bit_count() + (finish >> pos[w] & 1) < 2:
                if forced is not None:
                    return ()
                forced = w
            ws.append(w)
        if necks and len(ws) > 1 and necked(head, ws):
            return ()
        if forced is not None:
            return (forced,)
        if peeled:
            # the core holds every pending cell and every cell of a completion
            core_d = core[d]
            return [w for w in steps_to if core_d >> pos[w] & 1]
        return steps_to

    # the table of resolved nodes: per node's key, the keys of its children
    # that have completions in the order found, led by MARK when the node
    # closed itself; per path depth, that list so far once the node closes
    # or a child there is resolved, the node's key once made, and its core;
    # whether the top node, if it has no list, has a completion: its table
    # entry has one.  Nodes shallower than ``floor`` are not stored.
    if not (bare or constraint.push(cells[start])):
        return
    memo = {} if exact and bare else None
    # off exact cover, rules that summarise themselves get a table, with
    # cores, from the walk's node LATE + 1 on
    waiting = not exact and constraint.state() is not None
    late = nodes.count + 1 + LATE
    peeled = False
    kids: list[list[int] | None] = [None] * n
    keys: list[int | None] = [None] * n
    core = [0] * n
    states: dict = {}  # per rule state seen, a small int standing for it
    complete = False
    shift = n.bit_length()
    low = (1 << shift) - 1
    width = grid.full.bit_length()
    floor = 0

    def key() -> int:
        """The top node's key in a walk with cores: the state of the
        rules, the core, a loop's second cell and the head."""
        s = constraint.state()
        sid = states.get(s)
        if sid is None:
            sid = states[s] = len(states)
        second = path_idx[1] if loop and len(path_idx) > 1 else 0
        return ((sid << width | core[len(path_idx) - 1]) << shift | second) << shift | path_idx[-1]

    def core_at(d: int) -> int:
        """The core of the node at depth ``d``, from its parent's: that
        core less the parent's head (a loop's start stays), peeled with
        the new head kept; 0 when the head is outside the parent's core."""
        if not d:
            return peel(grid.full, end_bit | 1 << pos[start])
        t, at = core[d - 1], 1 << pos[path_idx[d]]
        return peel(t & ~(1 << pos[path_idx[d - 1]]) | end_bit, at | end_bit) if t & at else 0

    def replay(stored: tuple[int, ...]) -> Iterator[tuple[Cell, ...]]:
        """The top node's path extended by each completion in the table
        from ``stored``, its entry, in the order found; an entry led by
        MARK yields its node's path first."""
        path = [cells[i] for i in path_idx]
        it = iter(stored)
        if stored[0] == MARK:
            yield tuple(path)
            next(it)
        # per level, its entry's untried keys and the path's length there
        below = [it]
        sizes = [len(path)]
        while below:
            for k in below[-1]:
                del path[sizes[-1]:]
                path.append(cells[k & low])
                more = memo[k]
                # a run of entries with one child each is stepped down at once
                while len(more) == 1 and more[0] != MARK:
                    k = more[0]
                    path.append(cells[k & low])
                    more = memo[k]
                it = iter(more)
                if more[0] == MARK:
                    yield tuple(path)
                    next(it)
                below.append(it)
                sizes.append(len(path))
                break
            else:
                below.pop()
                sizes.pop()

    frames: list[Iterator[int]] = []  # per path cell: its untried neighbors
    head = start
    while True:
        on[head] = 1
        free ^= 1 << pos[head]
        path_idx.append(head)
        nodes.tick()
        if loop and len(path_idx) == 2:
            # the loop ends on a neighbor of its start after its second cell
            finish = sum(1 << pos[i] for i in nbrs[start] if i > head)
        if waiting and nodes.count == late:
            # the walk is long enough to keep a table: the nodes on the
            # path get their cores, and none of the ones above this node
            # is stored, as their children so far were not listed
            waiting, peeled, memo = False, True, {}
            floor = len(path_idx) - 1
            for i in range(len(path_idx) - 1):
                core[i] = core_at(i)
        if peeled:
            # a node with no completion: its head is outside its parent's
            # core, or a pending cell is outside its own.  None is shallower
            # than ``floor``, which falls only to the depth of a node popped
            d = len(path_idx) - 1
            c = core[d] = core_at(d)
            if not c or pend_cells & free & ~c:
                stored = ()
            else:
                k = keys[d] = key()
                stored = memo.get(k)
        elif memo is not None:
            k = keys[len(path_idx) - 1] = free << shift | head
            stored = memo.get(k)
        else:
            stored = None
        if stored is not None:
            # resolved before, or dead: its completions are the table's
            complete = bool(stored)
            frames.append(iter(()))
            if stored:
                yield from replay(stored)
        else:
            if finish >> pos[head] & 1 and not req_cells & free:
                path = tuple(cells[i] for i in path_idx)
                if (constraint.close_ok if loop else constraint.finish_ok)(path):
                    if memo is not None:
                        kids[len(path_idx) - 1] = [MARK]
                    yield path
            frames.append(iter(extensions(head) if loop or head != end else ()))
        # descend into the next extension the constraint admits, retracting
        # every cell whose extensions are used up
        while frames:
            for head in frames[-1]:
                if not on[head] and (bare or constraint.push(cells[head])):
                    break
            else:
                frames.pop()
                if memo is not None:
                    d = len(path_idx) - 1
                    if d < floor:
                        # above the node where the table began
                        floor = d
                    else:
                        # a node that closed or has a child is stored, and a
                        # node with a completion is listed under its parent
                        found = kids[d]
                        if found is not None:
                            kids[d] = None
                            complete = bool(found)
                            memo[keys[d]] = tuple(found)
                        if d > floor:
                            up = kids[d - 1]
                            if up is None:
                                up = kids[d - 1] = []
                            if complete:
                                up.append(keys[d])
                        complete = False
                c = path_idx.pop()
                on[c] = 0
                free ^= 1 << pos[c]
                if not bare:
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


def cycles_through(cells: Iterable[Cell], neighbors: Callable[[Cell], Iterable[Cell]],
                   budget: int | None = None) -> Iterator[tuple[Cell, ...]]:
    """Lazily yield every cycle through all of ``cells`` under the adjacency
    ``neighbors``, each once and in canonical form: rooted at the smallest
    cell, its second cell smaller than its last.  A neighbor among ``cells``
    must be an orthogonal unit step from its cell; any other step between
    two of ``cells`` raises :class:`ValueError` at the call.  The iterator
    raises :class:`SearchBudgetExceeded` once ``budget`` nodes are spent."""
    nodes = _Nodes(budget)
    grid = _Grid(sorted(cells), neighbors)
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
