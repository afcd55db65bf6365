"""All or Nothing: region boards, rule checking, metacell compilation, solving.

Rules enforced by the verifier:

1. a region the loop visits must be passed through entirely;
2. the loop enters and exits each region at most once (its cells inside a
   region form at most one contiguous cyclic arc, i.e. the loop crosses the
   region's border 0 or 2 times);
3. two unvisited regions may not be orthogonally adjacent.

A board is a partition of the grid into regions, read from and written as
one region id per cell.  The metacell gadget is such a board on an 11x11
frame.  In canonical orientation the non-exit side is S and the exits are
W, E, N with border cells on the midline of their sides.  The frame holds
one big walkable region, a single enclosed one-cell region, and three
filler parts that merge into dead regions once gadgets are tiled.

The solver works by region (:mod:`loopforge.regionsearch`): a loop that
visits two or more regions visits a cycle of them, each once, along one
Hamiltonian path of each; a compile's loop crosses each metacell's big
region once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from operator import gt

from .errors import CompileError, ParseError
from .fileio import AON_BOARD
from .framework import Direction, ExitPlan, Gadget
# search_loops stays importable from here: perfbench's tracer rebinds it
# wherever a module holds it, and its tests read it from this module
from .loopsearch import (  # noqa: F401
    LoopConstraint,
    SearchResult,
    _collect,
    _Nodes,
    search_loops,
    solver_cap,
    walk_loops,
)
from .model import (
    Cell,
    GridGraph,
    LoopPath,
    RegionDecomposition,
    Verdict,
    Violation,
    crossings_by_region,
    regions_from_labels,
    union_root,
)
from .regionsearch import RegionCycles

GADGET_NON_EXIT = Direction.S
GADGET_EXIT_CELLS = {
    Direction.W: (0, 5),
    Direction.E: (10, 5),
    Direction.N: (5, 10),
}

# The canonical gadget as an AoN board, top row first: B is the big
# region, D the one-cell region, and A, C, E the filler parts.  No two
# filler parts touch inside the frame; each reaches the frame border, where
# it merges with any filler of a neighboring gadget across the side.
GADGET_ROWS = """\
C C C C B B E E E E E
C B B B B B B E B B E
C B B B B B B B B B E
C C B B B B B B B B E
C B B B B D B B B B B
B B B B B B B B B B B
B B B B B B B B B B A
A B B A A B B A B B A
A B B A A A A A B B A
A B B A A A A A B B A
A A A A A A A A A A A
"""

# Marker cells of the filler parts: fixed leaves stay leaves in every
# tiling; rim leaves sit on the frame border and stop being leaves when an
# open border joins them to a neighboring gadget's filler part.
FIXED_LEAF_CELLS = ((1, 7), (7, 9), (7, 3))
RIM_LEAF_CELLS = ((0, 6), (0, 3), (10, 4), (10, 7), (6, 10), (3, 10))
ONE_CELL_REGION_CELL = (5, 6)

# One transcribed traversal per exit pair, covering the big region exactly.
# More traversals exist (the gadget is deliberately not locally unique);
# certification enumerates them all and checks these are among them.
GADGET_PATHS: dict[frozenset[Direction], tuple[tuple[Cell, ...], ...]] = {
    frozenset({Direction.W, Direction.N}): ((
        (0, 5), (0, 4), (1, 4), (1, 3), (1, 2), (1, 1), (2, 1), (2, 2), (2, 3),
        (2, 4), (2, 5), (1, 5), (1, 6), (2, 6), (2, 7), (2, 8), (1, 8), (1, 9),
        (2, 9), (3, 9), (3, 8), (3, 7), (3, 6), (3, 5), (3, 4), (4, 4), (5, 4),
        (5, 3), (6, 3), (6, 4), (7, 4), (8, 4), (8, 3), (8, 2), (8, 1), (9, 1),
        (9, 2), (9, 3), (9, 4), (9, 5), (10, 5), (10, 6), (9, 6), (8, 6), (8, 5),
        (7, 5), (6, 5), (5, 5), (4, 5), (4, 6), (4, 7), (4, 8), (5, 8), (5, 7),
        (6, 7), (6, 6), (7, 6), (7, 7), (8, 7), (9, 7), (9, 8), (9, 9), (8, 9),
        (8, 8), (7, 8), (6, 8), (6, 9), (5, 9), (4, 9), (4, 10), (5, 10),
    ),),
    frozenset({Direction.E, Direction.N}): ((
        (10, 5), (10, 6), (9, 6), (9, 5), (9, 4), (9, 3), (9, 2), (9, 1), (8, 1),
        (8, 2), (8, 3), (8, 4), (7, 4), (6, 4), (6, 3), (5, 3), (5, 4), (5, 5),
        (4, 5), (4, 4), (3, 4), (3, 5), (2, 5), (2, 4), (2, 3), (2, 2), (2, 1),
        (1, 1), (1, 2), (1, 3), (1, 4), (0, 4), (0, 5), (1, 5), (1, 6), (2, 6),
        (2, 7), (2, 8), (1, 8), (1, 9), (2, 9), (3, 9), (3, 8), (3, 7), (3, 6),
        (4, 6), (4, 7), (4, 8), (5, 8), (5, 7), (6, 7), (7, 7), (7, 6), (6, 6),
        (6, 5), (7, 5), (8, 5), (8, 6), (8, 7), (9, 7), (9, 8), (9, 9), (8, 9),
        (8, 8), (7, 8), (6, 8), (6, 9), (5, 9), (4, 9), (4, 10), (5, 10),
    ),),
    frozenset({Direction.W, Direction.E}): ((
        (0, 5), (0, 4), (1, 4), (1, 3), (1, 2), (1, 1), (2, 1), (2, 2), (2, 3),
        (2, 4), (2, 5), (1, 5), (1, 6), (2, 6), (2, 7), (2, 8), (1, 8), (1, 9),
        (2, 9), (3, 9), (3, 8), (3, 7), (3, 6), (4, 6), (4, 7), (5, 7), (5, 8),
        (4, 8), (4, 9), (4, 10), (5, 10), (5, 9), (6, 9), (6, 8), (6, 7), (7, 7),
        (7, 8), (8, 8), (8, 9), (9, 9), (9, 8), (9, 7), (8, 7), (8, 6), (8, 5),
        (7, 5), (7, 6), (6, 6), (6, 5), (5, 5), (4, 5), (3, 5), (3, 4), (4, 4),
        (5, 4), (5, 3), (6, 3), (6, 4), (7, 4), (8, 4), (8, 3), (8, 2), (8, 1),
        (9, 1), (9, 2), (9, 3), (9, 4), (9, 5), (9, 6), (10, 6), (10, 5),
    ),),
}

GADGET = Gadget(GADGET_ROWS, AON_BOARD, GADGET_NON_EXIT, GADGET_EXIT_CELLS, GADGET_PATHS)
FRAME = GADGET.frame


def gadget_board(turns: int) -> AonInstance:
    """The gadget rotated by ``turns`` alone on its frame."""
    ((_, cells, tokens),) = GADGET.lay({(0, 0): turns})
    decomp = regions_from_labels(FRAME, FRAME, dict(zip(cells, tokens)))
    names = tuple(map(region_token, range(len(decomp.regions))))
    return AonInstance(FRAME, FRAME, decomp, names)


def gadget_harness(turns: int):
    """Search domain of the gadget certificate with the gadget rotated by
    ``turns``: the region of the W exit on :func:`gadget_board`, all of it
    required, and no rules, since a path that stays in one region and
    covers it breaks none.

    The two pinned exit cells stand for the loop stubs continuing
    off-frame, so a valid traversal never steps into another region (that
    would cross the big region's border a third time); :func:`gadget_audit`
    reports every traversal that does.
    """
    decomp = gadget_board(turns).regions
    (exit_cell,) = GADGET.place((0, 0), turns, [GADGET_EXIT_CELLS[Direction.W]])
    big = decomp.regions[decomp.region_at(exit_cell)]
    return big, big, LoopConstraint


def gadget_audit(turns: int, traversals, paths):
    """Blocked-side counts (none) and findings of the gadget certificate,
    read from the board it certifies, :func:`gadget_board` rotated by
    ``turns``.

    The ``traversals`` the certificate enumerated give the entered
    findings: whether one steps into a filler part or into the one-cell
    region, and how many leave the big region (0 expected).  The
    dead-region analysis ``solve_aon`` relies on gives the rest: each
    filler part's leaf count, the part named by its smallest cell in
    canonical orientation, the marker cells among the parts' leaves, and 1
    when the one-cell region is dead, enclosed by the big region alone
    (else 0).
    """
    inst = gadget_board(turns)
    decomp, report = inst.regions, analyze_dead_regions(inst)
    ids = decomp.ids  # traversals stay on the frame
    big_cell, one_cell = GADGET.place(
        (0, 0), turns, [GADGET_EXIT_CELLS[Direction.W], ONE_CELL_REGION_CELL])
    big_id, one_id = decomp.region_at(big_cell), decomp.region_at(one_cell)
    left = [{ids[x * FRAME + y] for x, y in path} - {big_id}
            for found in traversals.values() for path in found]
    entered = set().union(*left)
    findings = [f"parts-entered {'yes' if entered - {one_id} else 'no'}",
                f"one-cell-entered {'yes' if one_id in entered else 'no'}",
                f"rule-permitted-escapes {sum(1 for regions in left if regions)}"]
    parts = sorted((min(GADGET.place((0, 0), -turns, cells)), rid)
                   for rid, cells in enumerate(decomp.regions) if rid not in (big_id, one_id))
    leaves = set()
    for (x, y), rid in parts:
        leaves.update(decomp.leaves[rid])
        findings.append(f"part {x} {y} leaves {report.leaf_counts[rid]}")
    for name, markers in (("fixed", FIXED_LEAF_CELLS), ("rim", RIM_LEAF_CELLS)):
        placed = GADGET.place((0, 0), turns, markers)
        findings.append(f"{name}-markers-leaves {sum(1 for c in placed if c in leaves)}")
    findings.append(f"one-cell-enclosed-by {int(report.enclosing.get(one_id) == big_id)}")
    return {}, tuple(findings)


def region_token(i: int) -> str:
    """A, B, ..., Z, AA, AB, ... for region ids in files."""
    s = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        s = chr(65 + r) + s
    return s


@dataclass(frozen=True)
class AonInstance:
    width: int
    height: int
    regions: RegionDecomposition
    region_names: tuple[str, ...]


def parse_aon(text: str) -> AonInstance:
    width, height, rows = AON_BOARD.read_rows(text)
    labels = list(chain.from_iterable(map(reversed, zip(*rows))))  # board order
    decomp = regions_from_labels(width, height, labels)
    ids = decomp.ids  # each region is named by its label where its id first appears
    names = tuple(compress(labels, map(gt, ids, chain([-1], accumulate(ids, max)))))
    # a token must name one connected region, not scattered patches
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ParseError(f"region id {name!r} names a disconnected cell set")
        seen.add(name)
    return AonInstance(width, height, decomp, names)


def board_text(inst: AonInstance, marked=frozenset()) -> str:
    """Board rows, top row first: each cell's region id, or ``#`` on a
    ``marked`` cell, padded to the longest id."""
    names, ids, h = inst.region_names, inst.regions.ids, inst.height
    return AON_BOARD.write(inst.width, inst.height, lambda c: names[ids[c[0] * h + c[1]]], marked)


def emit_aon(inst: AonInstance) -> str:
    return f"aon {inst.width} {inst.height}\n" + board_text(inst)


@lru_cache(maxsize=None)
def _rotation(rows: str, turns: int):
    """The gadget rotated by ``turns`` as :func:`compile_aon` composes
    boards from it: the regions of :func:`gadget_board`, called parts here,
    as the part of each frame cell in board order, each part's token, and
    the filler parts (neither big nor the one-cell region) with the pairs
    of them that touch in the frame.  Cached under the gadget's ``rows``
    too, so a replaced ``GADGET`` is read afresh."""
    decomp = gadget_board(turns).regions
    ((_, cells, tokens),) = GADGET.lay({(0, 0): turns})
    token_of = dict(zip(cells, tokens))
    kinds = [token_of[cs[0]] for cs in decomp.regions]
    filler = {p for p, kind in enumerate(kinds) if kind not in ("B", "D")}
    inner = [pair for pair in decomp.touching if filler.issuperset(pair)]
    return decomp.ids, kinds, filler, inner


def compile_aon(g: GridGraph, plan: ExitPlan) -> AonInstance:
    """Tile one rotated gadget per vertex on an 11x11-per-metacell board.

    The board's regions are composed from the parts of each rotation the
    tiling uses (:func:`_rotation`), with no fill over the board: a
    metacell's big region and one-cell region stay its own, and filler
    parts that touch, in a metacell or across a metacell side, merge, as
    if all filler cells shared one label.  So a big region can neither
    leak out of its metacell nor be shared; the gadget's big cells must
    still form one region (checked).
    """
    tiling = GADGET.tile(g, plan)
    n, width, height = FRAME, FRAME * g.cols, FRAME * g.rows
    rots = {t: _rotation(GADGET.rows, t) for t in set(tiling.values())}
    # the parts of all metacells, k each at any rotation, in one union-find
    k = len(rots[tiling[0, 0]][1])
    base = {v: k * m for m, v in enumerate(tiling)}
    parent = list(range(k * len(tiling)))
    meets: dict[tuple, list[tuple[int, int]]] = {}  # filler parts meeting across a side
    for (x, y), t in tiling.items():
        ids, kinds, filler, inner = rots[t]
        if kinds.count("B") != 1:
            raise CompileError(f"big region of metacell {(x, y)} is fragmented")
        b = base[x, y]
        pairs = [(b + p, b + q) for p, q in inner]
        for w, east in (((x + 1, y), True), ((x, y + 1), False)):
            if w in tiling:
                u = tiling[w]
                if (t, u, east) not in meets:
                    far, _, far_filler, _ = rots[u]
                    sides = zip(ids[-n:], far[:n]) if east else zip(ids[n - 1::n], far[::n])
                    meets[t, u, east] = [(p, q) for p, q in dict.fromkeys(sides)
                                         if p in filler and q in far_filler]
                pairs += [(b + p, base[w] + q) for p, q in meets[t, u, east]]
        for p, q in pairs:
            parent[union_root(parent, p)] = union_root(parent, q)

    roots = list(map(union_root, repeat(parent), range(len(parent))))
    values: list[int] = []
    for x in range(g.cols):
        column = [(rots[tiling[x, y]][0], roots[base[x, y]:base[x, y] + k]) for y in range(g.rows)]
        for i in range(0, n * n, n):  # the board's columns, one metacell's chunk at a time
            for ids, local in column:
                values += map(local.__getitem__, ids[i:i + n])
    # region ids follow smallest cells: the order in which the roots first
    # appear in board order
    rid = {r: i for i, r in enumerate(dict.fromkeys(values))}
    decomp = RegionDecomposition(width, height, list(map(rid.__getitem__, values)))
    return AonInstance(width, height, decomp, tuple(map(region_token, range(len(rid)))))


def verify_aon(inst: AonInstance, loop: LoopPath) -> Verdict:
    loop.check_on_board(inst.width, inst.height)
    decomp, names = inst.regions, inst.region_names
    ids, h = decomp.ids, decomp.height
    sizes = Counter(ids)
    hits = Counter(ids[x * h + y] for x, y in loop.cells)
    crossings_of = crossings_by_region(loop, decomp)
    on_loop = set(loop.cells)
    violations = []
    for rid in sorted(hits):
        size, hit, crossings = sizes[rid], hits[rid], crossings_of.get(rid, 0)
        if hit < size:
            violations.append(Violation(
                1, f"region {names[rid]} is only partly visited ({hit} of {size} cells)",
                tuple(c for c in decomp.regions[rid] if c not in on_loop)))
        if crossings not in (0, 2):
            violations.append(Violation(
                2, f"loop crosses the border of region {names[rid]} {crossings} times",
                tuple(c for c in decomp.regions[rid] if c in on_loop)))

    for (r1, r2), (a, b) in decomp.touching.items():
        if not hits[r1] and not hits[r2]:
            violations.append(Violation(
                3,
                f"unvisited regions {names[decomp.region_at(a)]} and "
                f"{names[decomp.region_at(b)]} touch at {a}|{b}",
                (a, b)))
    return Verdict(tuple(violations))


@dataclass(frozen=True)
class DeadRegionReport:
    """Each region's leaf count, and for each one-cell region that borders
    a single other region, that region."""

    leaf_counts: dict[int, int]
    enclosing: dict[int, int]

    def dead_ids(self) -> set[int]:
        """The regions with three or more leaves, and the enclosed one-cell
        regions."""
        return {rid for rid, n in self.leaf_counts.items() if n >= 3} | self.enclosing.keys()


def analyze_dead_regions(inst: AonInstance) -> DeadRegionReport:
    """Find the regions dead by the two deadness arguments.

    A region with three or more leaves cannot be covered by a single arc.
    A one-cell region whose neighbors all lie in one single other region
    cannot be visited by a loop that visits a third region: passing through
    it spends both of the host region's crossings, so the loop covers the
    host and the one cell alone (``solve_aon`` looks for such loops apart).
    No other region is assumed dead.
    """
    decomp = inst.regions
    around = decomp.neighbours
    leaf_counts = {rid: len(leaves) for rid, leaves in enumerate(decomp.leaves)}
    enclosing = {rid: around[rid].bit_length() - 1 for rid, cells in enumerate(decomp.regions)
                 if len(cells) == 1 and around[rid].bit_count() == 1}
    return DeadRegionReport(leaf_counts, enclosing)


def solve_aon(
    inst: AonInstance,
    mode: str = "first",
    budget: int | None = None,
    cap: int | None = None,
) -> SearchResult:
    """Search for verified loops region by region.

    Dead regions are left out and the regions bordering them are required
    (two touching dead regions make the board unsatisfiable outright).  A
    loop that leaves every other region unvisited may stay inside one
    region, or pass through an enclosed one-cell region and its host
    alone: those are drawn from the cell search on their cells, one loop
    at a time, so the search stops once ``cap`` loops are in.  Every other
    loop visits a cycle of two or more live regions, each once, covering
    each by one Hamiltonian path between the cells it enters and leaves
    at; :class:`~loopforge.regionsearch.RegionCycles` searches those
    cycles, rooted at the smallest required region, else at each live
    region in turn over the regions above it, and the verifier checks
    every loop they give.  When every live region is required, a loop
    covers every live cell, so unequal colour counts refute that search
    before it starts.  The nodes, counted toward ``budget``, are those of
    the cell searches, the rows' included (see
    :mod:`loopforge.regionsearch`), and one per region step."""
    cap = solver_cap(mode, cap)
    nodes = _Nodes(budget)
    report = analyze_dead_regions(inst)
    dead = report.dead_ids()
    decomp = inst.regions
    required = set()
    for r1, r2 in decomp.touching:
        if r1 in dead and r2 in dead:
            return SearchResult([], 0, True)
        if r1 in dead:
            required.add(r2)
        if r2 in dead:
            required.add(r1)
    live = [r for r in range(len(decomp.regions)) if r not in dead]
    # per region, the touching pairs it is in: a loop over some regions
    # alone must leave no touching pair outside them
    degree = [mask.bit_count() for mask in decomp.neighbours]

    def found():
        alone = [(r,) for r in live] + [(h, d) for d, h in report.enclosing.items()]
        for rids in alone:
            # an enclosed cell and its host share one pair
            if sum(degree[r] for r in rids) - len(rids) + 1 == len(decomp.touching):
                cells = [c for r in rids for c in decomp.regions[r]]
                yield from walk_loops(cells, cells, LoopConstraint, nodes)
        if set(live) == required:
            live_cells = [c for r in live for c in decomp.regions[r]]
            if 2 * sum((x + y) & 1 for x, y in live_cells) != len(live_cells):
                return
        search = RegionCycles(decomp, live, nodes)
        for root in [min(required)] if required else live:
            for loop in search.loops(root, 0 if required else root):
                if verify_aon(inst, loop).ok:
                    yield loop

    return _collect(found(), cap, nodes)
