"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the package's search machinery: cycles are found
by blunt enumeration so the clever implementations have something honest
to be compared against.  The exceptions keep an earlier form of the
engine: ``anchored_search_loops`` roots loops the old way,
``full_fill_walk`` flood-fills the free cells at every node, and
``unsplit_walk`` keeps every node whose head cuts the free cells; both
walks close a loop by comparing cells, not indexes, an independent check
that the engine's index order is cell order.  The All or Nothing gadget
is transcribed a second time, as wall polylines, and
``regions_from_boundaries`` fills a board between walls: the wall model
the region labels must reproduce.  Each puzzle's own gadget placement,
from before the shared tiler, is kept too, and so is the All or Nothing
solver from before it searched by region, ``solve_aon_by_cells``: the
cell walk the region search is checked against.  ``regions_from_labels_by_cells``
is the label fill from before it filled runs: one cell at a time.  So are
the Water Walk board builder and row writer from before a board was one
token string, which filled a set of ground cells and a dict of clues and
asked for each cell's token (``ww_terrain_by_cells``,
``ww_board_text_by_cells``).
"""

import operator
from itertools import chain, permutations
from unittest import mock

from loopforge.aon import (
    FRAME,
    GADGET,
    GADGET_EXIT_CELLS,
    DeadRegionReport,
    analyze_dead_regions,
    verify_aon,
)
from loopforge.framework import (
    DIRECTION_ORDER,
    Direction,
    Orientation,
    build_complement,
    exit_plan,
    plan_for,
)
from loopforge import aon, loopsearch
from loopforge import waterwalk as ww
from loopforge.errors import SearchBudgetExceeded
from loopforge.loopsearch import (
    LoopConstraint,
    SearchResult,
    _collect,
    _Grid,
    _Nodes,
    _walk,
    search_loops,
    solver_cap,
)
from loopforge.model import (
    LoopPath,
    RegionDecomposition,
    Verdict,
    Violation,
    board_cells,
    crossings_by_region,
    degree_profile,
    full_grid,
    grid_graph,
    labelled_runs,
    orthogonal_neighbors,
)
from loopforge.waterwalk import GROUND, WATER


def all_loops_on_board(width, height):
    """Every loop (cyclic sequence of distinct adjacent cells, length >= 4)
    on a width x height board, each exactly once, by plain DFS with no
    pruning beyond simplicity."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    loops = []

    def neighbors(c):
        return [n for n in orthogonal_neighbors(c)
                if 0 <= n[0] < width and 0 <= n[1] < height]

    for anchor in cells:
        path = [anchor]
        on = {anchor}

        def extend(head):
            if len(path) >= 4 and anchor in neighbors(head) and path[1] < path[-1]:
                loops.append(LoopPath(tuple(path)))
            for n in neighbors(head):
                if n in on or n < anchor:
                    continue
                path.append(n)
                on.add(n)
                extend(n)
                path.pop()
                on.remove(n)

        extend(anchor)
    return loops


def ham_cycles_by_permutation(g):
    """Hamiltonian cycles of g by checking every vertex ordering that starts
    at the smallest vertex, deduplicated by direction."""
    verts = sorted(g.vertices())
    v0 = verts[0]
    found = []
    for rest in permutations(verts[1:]):
        seq = (v0,) + rest
        if seq[1] > seq[-1]:
            continue
        n = len(seq)
        if all(g.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n)):
            found.append(seq)
    return found


def candidate_subgraphs_by_subset(cols, rows):
    """Degree-{2,3} spanning subgraphs by filtering every subset of the full
    grid's edges."""
    base = full_grid(cols, rows)
    edges = sorted(base.edges)
    out = []
    for mask in range(1 << len(edges)):
        chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
        deg = {v: 0 for v in base.vertices()}
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        if all(d in (2, 3) for d in deg.values()):
            out.append(grid_graph(cols, rows, chosen))
    return out


def degree_bounds(g):
    """(minimum, maximum) vertex degree."""
    deg = degree_profile(g)
    return min(deg.values()), max(deg.values())


def loop_runs(loop, classify):
    """Cyclic run-length encoding of the loop's cells under a labelling:
    ``(label, length)`` pairs of :func:`labelled_runs`' closed runs."""
    runs = labelled_runs(loop.cells, map(classify, loop.cells), closed=True)
    return [(lab, len(cells)) for lab, cells in runs]


def boundary_crossings(loop, r, region_id):
    """Number of cyclic positions where the loop steps across the region's
    border, read from the one-pass :func:`crossings_by_region`."""
    if region_id not in range(len(r.regions)):
        raise ValueError(f"unknown region id: {region_id}")
    return crossings_by_region(loop, r).get(region_id, 0)


def region_count(r):
    """Number of regions of a ``RegionDecomposition``."""
    return len(r.regions)


def blocks(walls, a, c):
    """Whether the wall set ``walls`` walls ``a`` off from ``c``, the pair
    stored in either order."""
    return (a, c) in walls or (c, a) in walls


def loop_arc_count(loop, r, region_id):
    """Number of maximal cyclic arcs of the loop lying inside the given region."""
    if region_id not in range(len(r.regions)):
        raise ValueError(f"unknown region id: {region_id}")
    flags = [r.region_at(c) == region_id for c in loop.cells]
    if all(flags):
        return 1
    n = len(flags)
    return sum(1 for i in range(n) if flags[i] and not flags[i - 1])


def ww_path_valid(inst, cells):
    """Water Walk rules on an open path (a pinned gadget traversal): every
    clue cell on the path, and its runs, which end at the path's ends,
    checked by their own splitting."""
    for c in inst.numbers:
        if c not in cells:
            return False
    runs = []
    for c in cells:
        label = GROUND if c in inst.ground else WATER
        if runs and runs[-1][0] == label:
            runs[-1][1].append(c)
        else:
            runs.append((label, [c]))
    for label, run in runs:
        if label == WATER and len(run) >= 3:
            return False
        if label == GROUND:
            for c in run:
                if c in inst.numbers and inst.numbers[c] != len(run):
                    return False
    return True


def perimeter(width, height):
    """Cell pairs of every border side of a width x height board, each
    pairing a board cell with the off-board cell beyond it."""
    pairs = []
    for x in range(width):
        pairs += [((x, 0), (x, -1)), ((x, height - 1), (x, height))]
    for y in range(height):
        pairs += [((0, y), (-1, y)), ((width - 1, y), (width, y))]
    return pairs


def orient_by_candidate_walks(h, seed_rule="lex"):
    """Orientation of the complement ``h`` by building every candidate walk
    of each component (from each end of a path; from each node, both ways,
    around a cycle) and keeping the smallest ("lex") or largest ("antilex")
    in node-key order.  The node graph is built from ``h``'s side masks: a
    node per vertex and per half-edge, each vertex joined to the neighbour
    or the half-edge behind each incidence side.  Quadratic on cycles; the
    reference that picking the walk directly must reproduce."""

    def key(node):
        if node[0] == "v":
            return (node[1][0], node[1][1], -1)
        (x, y), d = node[1]
        return (x, y, DIRECTION_ORDER.index(d))

    adj = {}
    for (x, y), m, half in zip(board_cells(h.cols, h.rows), h.masks, h.halves):
        v = ("v", (x, y))
        for d in DIRECTION_ORDER:
            if half >> d.bit & 1:
                adj.setdefault(v, []).append(("h", ((x, y), d)))
                adj[("h", ((x, y), d))] = [v]
            elif m >> d.bit & 1:
                adj.setdefault(v, []).append(("v", (x + d.dx, y + d.dy)))
    for nbrs in adj.values():
        nbrs.sort(key=key)

    def walk_from(start, nxt):
        walk = [start, nxt]
        while True:
            options = [n for n in adj[walk[-1]] if n != walk[-2]]
            if not options or options[0] == start:
                return walk
            walk.append(options[0])

    out = {}
    seen = set()
    for start in sorted(adj, key=key):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for n in adj[stack.pop()]:
                if n not in comp:
                    comp.add(n)
                    stack.append(n)
        seen |= comp
        ends = sorted((n for n in comp if len(adj[n]) == 1), key=key)
        if ends:
            walks = [walk_from(e, adj[e][0]) for e in ends]
        else:
            walks = [walk_from(n, m) + [n] for n in sorted(comp, key=key) for m in adj[n]]
        walks.sort(key=lambda w: [key(n) for n in w])
        walk = walks[0] if seed_rule == "lex" else walks[-1]
        for a, b in zip(walk, walk[1:]):
            if a[0] == "v":  # an arc out of a vertex, to a vertex or off the board
                u, w = a[1], b[1]
                out[u] = Direction((w[0] - u[0], w[1] - u[1])) if b[0] == "v" else w[1]
    sides = [out[v].bit if v in out else -1 for v in board_cells(h.cols, h.rows)]
    return Orientation(h.cols, h.rows, tuple(sides))


def plan_by_rule(g, rule):
    """The exit plan of ``g`` that keeps the smallest candidate walks
    ("lex", the package's :func:`plan_for`) or the largest ("antilex",
    through :func:`orient_by_candidate_walks`): a second valid plan for
    tests that compile a graph both ways."""
    if rule == "lex":
        return plan_for(g)
    return exit_plan(g, orient_by_candidate_walks(build_complement(g), rule))


def anchored_search_loops(allowed, required, make_constraint, *, cap=None, budget=None):
    """``search_loops`` with every loop rooted at its smallest cell: one
    walk per anchor cell up to the smallest required cell, each over the
    allowed cells not smaller than the anchor.  Same signature and same
    loops up to order; the node counts are those of the per-anchor walks."""
    allowed_sorted = sorted(set(allowed))
    required_set = set(required)
    if required_set - set(allowed_sorted):
        return SearchResult([], 0, True)
    anchors = allowed_sorted
    if required_set:
        anchors = [a for a in anchors if a <= min(required_set)]
    nodes = _Nodes(budget)

    def loops():
        for anchor in anchors:
            grid = _Grid([c for c in allowed_sorted if c >= anchor])
            for cells in _walk(grid, 0, 0, map(grid.index.get, required_set),
                               make_constraint(), nodes):
                yield LoopPath(cells)

    return _collect(loops(), cap, nodes)


def check_against_anchored(module, solve, inst):
    """Solve ``inst`` with ``solve`` (a ``solve_*`` of ``module``) as it
    stands, and again with ``anchored_search_loops`` in place of the
    module's ``search_loops``: ``mode="all"`` must give the same canonical
    loops, each once, and the same ``exhausted`` flag, and every returned
    loop, ``first`` ones too, must be in canonical form.  Returns the new
    and the anchored ``mode="all"`` results."""
    new = solve(inst, mode="all")
    first = solve(inst, mode="first")
    with mock.patch.object(module, "search_loops", anchored_search_loops):
        old = solve(inst, mode="all")
    assert new.exhausted == old.exhausted
    assert sorted(l.cells for l in new.loops) == \
        sorted(l.canonical().cells for l in old.loops)
    for l in new.loops + first.loops:
        assert l == l.canonical()
    return new, old


def allowed_last(grid, start, end, path_cells):
    """The cells a path of a walk may end on: a pinned path's end, and a
    loop's start's neighbors, once the path has its second cell only those
    greater than it as cells."""
    if start != end:
        return {end}
    if len(path_cells) < 2:
        return set(grid.nbrs[end])
    return {w for w in grid.nbrs[end] if grid.cells[w] > path_cells[1]}


def unsplit_walk(grid, start, end, required, constraint, nodes):
    """``loopsearch._walk`` as it was before it acted on split fills: a node
    whose head cuts the free cells survives unless a required cell, the
    end or, for a loop, every allowed last cell (:func:`allowed_last`) is
    out of reach, and a fill stamps all its components with one
    generation.  Same arguments; the engine's walk must give the same paths
    in the same order, never with more nodes."""
    cells, nbrs = grid.cells, grid.nbrs
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
    path_idx = []
    path_cells = []
    stamp = [0] * n
    gen = 0

    # per path depth, the reach set of the node there: the generation that
    # stamped it, its size, and whether it is one component of the free cells
    base = [0] * n
    reach = [0] * n
    whole = bytearray(n)
    links: list = [None] * n  # per cell, lazily: (a, b, x) with x joining neighbors a, b

    def simple(head: int) -> bool:
        """Whether the head's free neighbors are joined to each other by
        free cells other than the head, each neighboring two of them."""
        free = [a for a in nbrs[head] if not on[a]]
        if len(free) < 2:
            return True
        lk = links[head]
        if lk is None:
            hn = nbrs[head]
            lk = links[head] = tuple(
                (a, b, x) for i, a in enumerate(hn) for b in hn[i + 1:]
                for x in nbrs[a] if x != head and x in nbrs[b])
        joined = {free[0]}
        grew = True
        while grew:
            grew = False
            for a, b, x in lk:
                if (a in joined) != (b in joined) and not (on[a] or on[b] or on[x]):
                    joined.add(a)
                    joined.add(b)
                    grew = True
        return len(joined) == len(free)

    def viable(head: int) -> bool:
        nonlocal gen
        free_total = free_color[0] + free_color[1]
        if exact and free_total:
            # the free cells are entered in alternating colors, starting
            # opposite the head; the walk's last step, onto the end, is
            # step free_total + 1 for a loop and free_total for a path
            sc = 1 - color[head]
            if free_color[sc] != (free_total + 1) // 2:
                return False
            steps = free_total + on[end]
            if (sc if steps & 1 else 1 - sc) != color[end]:
                return False
        # the free cells connected to the head: the parent's set less the
        # head when the head cannot cut it, else a fresh flood fill
        d = len(path_idx) - 1
        inherited = d > 0 and whole[d - 1] and simple(head)
        if inherited:
            b = base[d] = base[d - 1]
            reached = reach[d] = reach[d - 1] - 1
            whole[d] = 1
        else:
            gen += 1
            b = base[d] = gen
            reached = 0
            parts = 0
            for s in nbrs[head]:
                if on[s] or stamp[s] == b:
                    continue
                parts += 1
                stamp[s] = b
                reached += 1
                stack = [s]
                while stack:
                    c = stack.pop()
                    for w in nbrs[c]:
                        if not on[w] and stamp[w] != b:
                            stamp[w] = b
                            reached += 1
                            stack.append(w)
            reach[d] = reached
            whole[d] = parts < 2
        # a free cell is reached iff stamped at generation b or later
        if exact:
            if reached != free_total:
                return False
        elif not inherited:
            for i in req_idx:
                if not on[i] and stamp[i] < b:
                    return False
        # the path must still be able to reach its end: a loop's final cell
        # is one of its allowed last cells, a pinned path's is the goal
        if on[end]:
            last = allowed_last(grid, start, end, path_cells)
            if head not in last:
                for w in last:
                    if not on[w] and stamp[w] >= b:
                        break
                else:
                    return False
        elif stamp[end] < b:
            return False
        # every pending cell except the end still needs two usable path
        # neighbors; under exact cover only the previous cell's neighbors
        # can have lost one since the last node
        if exact:
            check = nbrs[path_idx[-2]] if len(path_idx) >= 2 else ()
        else:
            check = req_idx
        for w in check:
            if on[w] or w == end:
                continue
            avail = 0
            for x in nbrs[w]:
                if not on[x] or x == head or x == end:
                    avail += 1
            if avail < 2:
                return False
        return True

    if not constraint.push(cells[start]):
        return
    frames = []  # per path cell: its untried neighbors
    head = start
    while True:
        on[head] = 1
        free_color[color[head]] -= 1
        pending -= req[head]
        path_idx.append(head)
        path_cells.append(cells[head])
        nodes.tick()
        if loop:
            closes = adj_end[head] and len(path_idx) >= 4 and path_cells[1] < path_cells[-1]
        else:
            closes = head == end
        if closes and pending == 0:
            path = tuple(path_cells)
            if (constraint.close_ok if loop else constraint.finish_ok)(path):
                yield path
        grows = (loop or head != end) and viable(head)
        frames.append(iter(nbrs[head] if grows else ()))
        # descend into the next extension the constraint admits, retracting
        # every cell whose extensions are used up
        while frames:
            for head in frames[-1]:
                if not on[head] and constraint.push(cells[head]):
                    break
            else:
                frames.pop()
                c = path_idx.pop()
                path_cells.pop()
                on[c] = 0
                free_color[color[c]] += 1
                pending += req[c]
                constraint.pop()
                continue
            break
        else:
            return


def full_fill_walk(grid, start, end, required, constraint, nodes):
    """``loopsearch._walk`` with one flood fill of the free cells at every
    node and no reach set taken over from the parent.  It acts on a split
    fill as the engine does: under exact cover the node is dead; otherwise
    it is dead unless one component holds every pending cell (and a path's
    goal) and, for a loop, an allowed last cell (:func:`allowed_last`), and
    it then steps only into that component.  Past depth 1 of a search that
    is not exact cover and has required cells left, it runs the engine's
    pocket test, here over sets of indices.  At its first node a walk with
    required cells is dead when one of them is peeled off the board, one
    cell at a time, the start and the end kept.  Past a loop's root, a
    required free neighbor of the head other than the end with two usable
    neighbors (in a set of the free cells and the head, and a loop's start
    for an allowed last cell) is the one step taken; one with fewer, or two
    such, kill the node.  Until it has a core (see below) it also tests that
    every required cell has two neighbors among the free cells, the head and
    the end, a test that never kills.  A pinned path under exact cover,
    rules or none, at a head with two free neighbors or more other than the
    end, is dead when one of them, taken out of the free cells and the head,
    leaves a free cell joined to neither the head nor the end: here a search
    from both over sets of indices, for each such neighbor.  Under exact
    cover and no rules it keeps, per resolved node with a child, the
    completions found below it, keyed on its head, the cells on the path and
    a loop's second cell: a node with a key already kept costs its node,
    yields its path extended by each of them and goes no deeper.  Off exact
    cover, with rules that summarise themselves, it does the same once it
    has spent ``loopsearch.LATE`` nodes, keyed on the head, a loop's second
    cell, the pending cells left, the rules' state and the node's core,
    peeled afresh from its free cells one cell at a time; from then on a
    node is dead when a pending cell is outside its core, and steps only
    into it.  Same arguments; the engine's walk must give the same paths in
    the same order and the same node counts."""
    cells, nbrs = grid.cells, grid.nbrs
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
    path_idx = []
    path_cells = []

    def pocketed(head, prev):
        """From each free neighbor of ``prev``, breadth-first layers over
        the free cells but a path's goal, until a layer holds a neighbor of
        the head or of the end: whether a required cell lies in the layers
        before a layer of one cell, or in a growth that dies out."""
        stop = set(nbrs[head]) | set(nbrs[end])
        for s in nbrs[prev]:
            if on[s] or s == end:
                continue
            seen = {s}
            layer = {s}
            while layer and not layer & stop:
                layer = {w for c in layer for w in nbrs[c]
                         if not on[w] and w != end and w not in seen}
                if len(layer) <= 1 and any(req[c] for c in seen):
                    return True
                seen |= layer
        return False

    def extensions(head):
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
        # a required cell peeled off the board can never be entered and left
        if len(path_idx) == 1 and not set(req_idx) <= peeled(0):
            return ()
        if not exact and pending and len(path_idx) > 2 and pocketed(head, path_idx[-2]):
            return ()
        if core is not None and (not core[-1] or any(
                not on[i] and i not in core[-1] for i in req_idx + [end])):
            return ()
        # the components of the free cells joined to the head's free
        # neighbors, numbered in the order of those neighbors
        comp_of = [None] * n
        parts = 0
        for s in nbrs[head]:
            if on[s] or comp_of[s] is not None:
                continue
            comp_of[s] = parts
            stack = [s]
            while stack:
                c = stack.pop()
                for w in nbrs[c]:
                    if not on[w] and comp_of[w] is None:
                        comp_of[w] = parts
                        stack.append(w)
            parts += 1
        # every pending cell (every free cell under exact cover) and a
        # path's goal lie in one component
        pend = {comp_of[i] for i in req_idx + [end] if not on[i]}
        if None in pend or len(pend) > 1:
            return ()
        # a loop's last cell is one of its allowed last cells, so one must
        # be in reach: in that component when there is one
        last = allowed_last(grid, start, end, path_cells)
        if loop:
            closing = {comp_of[w] for w in last if not on[w]} - {None}
            if not closing or not pend <= closing:
                return ()
        steps_to = nbrs[head]
        if parts > 1 and pend:
            (k,) = pend
            steps_to = [w for w in steps_to if comp_of[w] == k]
        tight = []
        if len(path_idx) > 1 or not loop:
            # the head has one step left (a loop's root has two), so a
            # required free neighbor of it other than the end with two
            # usable neighbors must take it; a loop's start is usable only
            # by an allowed last cell
            usable = {i for i in range(n) if not on[i]} | {head}
            degree = {w: len(usable.intersection(nbrs[w])) + (w in last)
                      for w in nbrs[head] if not on[w] and w != end and req[w]}
            tight = [w for w, k in degree.items() if k == 2]
            if min(degree.values(), default=2) < 2 or len(tight) > 1:
                return ()
        if necks:
            ways = [w for w in nbrs[head] if not on[w] and w != end]
            if len(ways) > 1 and any(cut_off(head, w) for w in ways):
                return ()
        if tight:
            steps_to = tight
        if core is not None:
            # every cell of a completion is in the core
            return [w for w in steps_to if w in core[-1]]
        # every required cell except the end still needs two usable path
        # neighbors; the root's peel leaves every one of them two, and
        # since then only the previous cell's neighbors can have lost one,
        # which the forced moves at that node leave two, so the check never
        # kills: it stays so that the node-for-node comparison shows it
        for w in req_idx:
            if on[w] or w == end:
                continue
            avail = 0
            for x in nbrs[w]:
                if not on[x] or x == head or x == end:
                    avail += 1
            if avail < 2:
                return ()
        return steps_to

    def cut_off(head, w):
        """Whether some free cell is joined to neither the head nor the end
        in the free cells and the head, less ``w``."""
        kept = {i for i in range(n) if not on[i] and i != w} | {head}
        reached = {head, end}
        stack = [head, end]
        while stack:
            for x in nbrs[stack.pop()]:
                if x in kept and x not in reached:
                    reached.add(x)
                    stack.append(x)
        return bool(kept - reached)

    def peeled(d):
        """The core of the node at depth ``d``: empty when its parent's is
        or its head is outside it, else its free cells, head and end, less
        every cell but the head and the end with fewer than two neighbors
        among them, taken out one at a time until none is left."""
        head = path_idx[d]
        if d and head not in core[d - 1]:
            return frozenset()
        kept = (set(range(n)) - set(path_idx[:d + 1])) | {head, end}
        while True:
            thin = next((i for i in kept if i != head and i != end
                         and sum(w in kept for w in nbrs[i]) < 2), None)
            if thin is None:
                return frozenset(kept)
            kept.remove(thin)

    if not constraint.push(cells[start]):
        return
    # per resolved node with a child, its key and the cells after its head of
    # each path found from it, in order; per path depth, those found so far,
    # whether a child was entered and, once a walk off exact cover whose
    # rules summarise themselves has spent LATE nodes, the node's core
    memo = {} if exact and type(constraint) is LoopConstraint else None
    necks = exact and not loop
    late = -1 if exact or constraint.state() is None else nodes.count + 1 + loopsearch.LATE
    core = None
    floor = 0  # nodes shallower than this are not stored
    below = []
    entered = []

    def state():
        second = path_idx[1] if loop and len(path_idx) > 1 else None
        if core is None:
            return path_idx[-1], second, bytes(on)
        pend = frozenset(i for i in req_idx + [end] if not on[i])
        return path_idx[-1], second, core[-1], pend, constraint.state()

    def found(path):
        if memo is not None:
            for d in range(len(below)):
                below[d].append(path[d + 1:])
        return path

    frames = []  # per path cell: its untried neighbors
    head = start
    while True:
        on[head] = 1
        free_color[color[head]] -= 1
        pending -= req[head]
        path_idx.append(head)
        path_cells.append(cells[head])
        below.append([])
        entered.append(False)
        nodes.tick()
        d = len(path_idx) - 1
        if core is not None:
            core.append(peeled(d))
        elif nodes.count == late:
            # the table begins: none of the nodes above this one is stored
            memo, core, floor = {}, [], d
            for i in range(d + 1):
                core.append(peeled(i))
        if memo is not None and d >= floor and state() in memo:
            frames.append(iter(()))
            for rest in memo[state()]:
                yield found(tuple(path_cells) + rest)
        else:
            if loop:
                closes = adj_end[head] and len(path_idx) >= 4 and path_cells[1] < path_cells[-1]
            else:
                closes = head == end
            if closes and pending == 0:
                path = tuple(path_cells)
                if (constraint.close_ok if loop else constraint.finish_ok)(path):
                    yield found(path)
            frames.append(iter(extensions(head) if loop or head != end else ()))
        # descend into the next extension the constraint admits, retracting
        # every cell whose extensions are used up
        while frames:
            for head in frames[-1]:
                if not on[head] and constraint.push(cells[head]):
                    entered[-1] = True
                    break
            else:
                frames.pop()
                d = len(path_idx) - 1
                if memo is not None and d < floor:
                    floor = d
                elif memo is not None and entered[-1]:
                    memo[state()] = below[-1]
                below.pop()
                entered.pop()
                if core is not None:
                    core.pop()
                c = path_idx.pop()
                path_cells.pop()
                on[c] = 0
                free_color[color[c]] += 1
                pending += req[c]
                constraint.pop()
                continue
            break
        else:
            return


def _traced(walk, trace, budget):
    """``walk`` recording into ``trace`` each yielded path with the node
    count at that point, then how the walk ended: ("end", nodes) or
    ("budget", nodes).  With ``budget`` set, no search may spend more."""

    def traced(grid, start, end, required, constraint, nodes):
        if budget is not None and (nodes.budget is None or nodes.budget > budget):
            nodes.budget = budget
        try:
            for path in walk(grid, start, end, required, constraint, nodes):
                trace.append(("path", path, nodes.count))
                yield path
        except SearchBudgetExceeded as e:
            trace.append(("budget", e.nodes))
            raise
        trace.append(("end", nodes.count))

    return traced


def _run_traced(walk, fn, args, budget):
    trace = []
    with mock.patch.object(loopsearch, "_walk", _traced(walk, trace, budget)):
        try:
            out = fn(*args)
            if hasattr(out, "__next__"):
                list(out)
        except SearchBudgetExceeded as e:
            trace.append(("raised", e.nodes))
    return trace


def _parting(trace, other, name, differ):
    """Where the engine's ``trace`` and ``other``, the trace of the walk
    ``name``, part: the first event at which ``differ`` holds or one trace
    has run out, and the nodes each spent by its last event."""
    i = next((i for i, pair in enumerate(zip(trace, other)) if differ(*pair)),
             min(len(trace), len(other)))

    def event(t):
        return repr(t[i]) if i < len(t) else "none"

    def spent(t):
        return t[-1][-1] if t else 0

    return (f"first difference at event {i}: engine {event(trace)}, {name} "
            f"{event(other)}; nodes: engine {spent(trace)}, {name} {spent(other)}")


def check_against_full_fill(fn, *args, budget=2_000):
    """Run ``fn(*args)`` (an iterator result is drained) with the engine's
    walk as it stands and again with ``full_fill_walk`` in its place: every
    walk must yield the same paths in the same order with the same node
    counts and end the same way, and a budget stop must escape ``fn`` in
    both or neither.  Then both again with no search allowed more than
    ``budget`` nodes.  Returns the trace of the first run."""
    trace = _run_traced(loopsearch._walk, fn, args, None)
    old = _run_traced(full_fill_walk, fn, args, None)
    assert trace == old, _parting(trace, old, "full fill", operator.ne)
    check_budgeted_against_full_fill(fn, *args, budget=budget)
    return trace


def check_budgeted_against_full_fill(fn, *args, budget=2_000):
    """The second half of ``check_against_full_fill`` alone, for searches
    too long to run to their end: ``fn(*args)`` with no search allowed more
    than ``budget`` nodes must give the same trace under the engine's walk
    and under ``full_fill_walk``.  Returns the engine's trace."""
    stopped = _run_traced(loopsearch._walk, fn, args, budget)
    old = _run_traced(full_fill_walk, fn, args, budget)
    assert stopped == old, _parting(stopped, old, "full fill", operator.ne)
    return stopped


def check_against_unsplit(fn, *args, budget=2_000):
    """Run ``fn(*args)`` (an iterator result is drained) with the engine's
    walk as it stands and again with ``unsplit_walk`` in its place: every
    walk must yield the same paths in the same order and end the same way,
    each event at no more nodes than the unsplit walk spent on it.  Then
    both again with no search allowed more than ``budget`` nodes: the
    engine's walk visits a subsequence of the unsplit walk's nodes, so it
    must yield at least the paths the unsplit walk yields, in their order.
    Returns the trace of the first run."""
    trace = _run_traced(loopsearch._walk, fn, args, None)
    old = _run_traced(unsplit_walk, fn, args, None)
    assert [e[:-1] for e in trace] == [e[:-1] for e in old], \
        _parting(trace, old, "unsplit", lambda e, o: e[:-1] != o[:-1])
    assert all(e[-1] <= o[-1] for e, o in zip(trace, old)), \
        _parting(trace, old, "unsplit", lambda e, o: e[-1] > o[-1])
    stopped = [e for e in _run_traced(loopsearch._walk, fn, args, budget) if e[0] == "path"]
    old = [e for e in _run_traced(unsplit_walk, fn, args, budget) if e[0] == "path"]
    assert [e[1] for e in stopped][:len(old)] == [e[1] for e in old], \
        _parting(stopped, old, "unsplit", lambda e, o: e[1] != o[1])
    return trace


# All or Nothing region adjacency found by scanning the board on every call,
# as each of its three users did before ``RegionDecomposition.touching``:
# the definitions the one table must reproduce.

def verify_aon_by_scan(inst, loop):
    """``verify_aon`` with rule 3 checked by scanning the east and north
    side of every board cell, reporting each touching pair of unvisited
    regions once, at its first side in that scan."""
    head = tuple(v for v in verify_aon(inst, loop).violations if v.rule != 3)
    decomp, names = inst.regions, inst.region_names
    unvisited = set(range(len(decomp.regions))) - set(map(decomp.region_at, loop.cells))
    violations = []
    reported = set()
    for x in range(inst.width):
        for y in range(inst.height):
            a = (x, y)
            for b in ((x + 1, y), (x, y + 1)):
                if b[0] >= inst.width or b[1] >= inst.height:
                    continue
                ra, rb = decomp.region_at(a), decomp.region_at(b)
                if ra == rb or ra not in unvisited or rb not in unvisited:
                    continue
                pair = tuple(sorted((ra, rb)))
                if pair in reported:
                    continue
                reported.add(pair)
                violations.append(Violation(
                    3,
                    f"unvisited regions {names[ra]} and "
                    f"{names[rb]} touch at {a}|{b}",
                    (a, b)))
    return Verdict(head + tuple(violations))


def analyze_dead_regions_by_scan(inst):
    """``analyze_dead_regions`` with the regions around each region found
    by looking past every side of each of its cells."""
    decomp = inst.regions
    leaf_counts = {}
    enclosing = {}
    for rid, cells in enumerate(decomp.regions):
        leaf_counts[rid] = len(decomp.leaves[rid])
        outside = set(map(decomp.region_at, chain.from_iterable(map(orthogonal_neighbors, cells))))
        outside -= {None, rid}
        if len(cells) == 1 and len(outside) == 1:
            enclosing[rid] = next(iter(outside))
    return DeadRegionReport(leaf_counts, enclosing)


class AonLoopRules(LoopConstraint):
    """The cell walk's All or Nothing rules: incremental region bookkeeping.

    Tracks per-region border crossings and coverage along the open path:
    crossing a region border more than twice is fatal, and a region (other
    than the one the path started in) must be fully covered before the path
    leaves it.  Completed loops are re-checked by the full verifier.
    """

    def __init__(self, inst):
        self.inst = inst
        self.region_at = inst.regions.region_at
        self.sizes = {rid: len(cells) for rid, cells in enumerate(inst.regions.regions)}
        self.crossings = dict.fromkeys(self.sizes, 0)
        self.inside = dict.fromkeys(self.sizes, 0)
        # per pushed cell: its region and the region it left
        self.trail = []

    def push(self, cell):
        r = self.region_at(cell)
        crossed = None
        if self.trail:
            rp = self.trail[-1][0]
            if rp != r:
                if self.crossings[rp] + 1 > 2 or self.crossings[r] + 1 > 2:
                    return False
                if rp != self.trail[0][0] and self.inside[rp] != self.sizes[rp]:
                    return False
                self.crossings[rp] += 1
                self.crossings[r] += 1
                crossed = rp
        self.inside[r] += 1
        self.trail.append((r, crossed))
        return True

    def pop(self):
        r, crossed = self.trail.pop()
        self.inside[r] -= 1
        if crossed is not None:
            self.crossings[r] -= 1
            self.crossings[crossed] -= 1

    def close_ok(self, cells):
        return verify_aon(self.inst, LoopPath(cells)).ok


def solve_aon_by_cells(inst, mode="first", budget=None, cap=None):
    """``aon.solve_aon`` as a cell walk, as the package solved All or
    Nothing boards before it searched by region: one ``search_loops`` over
    the cells of every region that is not dead, requiring the cells of the
    regions that border a dead region, under ``AonLoopRules``.  It takes
    an enclosed one-cell region as dead on any board, so it misses a loop
    through such a region and its host alone."""
    cap = solver_cap(mode, cap)
    dead = analyze_dead_regions(inst).dead_ids()
    decomp = inst.regions
    required_regions = set()
    for r1, r2 in decomp.touching:
        if r1 in dead and r2 in dead:
            return SearchResult([], 0, True)
        if r1 in dead:
            required_regions.add(r2)
        if r2 in dead:
            required_regions.add(r1)
    allowed = [c for c in board_cells(inst.width, inst.height) if decomp.region_at(c) not in dead]
    required = [c for c in allowed if decomp.region_at(c) in required_regions]
    return search_loops(allowed, required, lambda: AonLoopRules(inst), cap=cap, budget=budget)


def solve_aon_by_scan(inst, mode="first", budget=None, cap=None):
    """:func:`solve_aon_by_cells` with the regions bordering a dead region
    found by scanning the east and north side of every board cell, and the
    dead regions by :func:`analyze_dead_regions_by_scan`."""
    dead = analyze_dead_regions_by_scan(inst).dead_ids()
    decomp = inst.regions
    required_regions = set()
    for x in range(inst.width):
        for y in range(inst.height):
            a = (x, y)
            for b in ((x + 1, y), (x, y + 1)):
                if b[0] >= inst.width or b[1] >= inst.height:
                    continue
                ra, rb = decomp.region_at(a), decomp.region_at(b)
                if ra == rb:
                    continue
                if ra in dead and rb in dead:
                    return SearchResult([], 0, True)
                if ra in dead:
                    required_regions.add(rb)
                if rb in dead:
                    required_regions.add(ra)
    allowed = [c for c in board_cells(inst.width, inst.height) if decomp.region_at(c) not in dead]
    required = [c for c in allowed if decomp.region_at(c) in required_regions]
    return search_loops(allowed, required, lambda: AonLoopRules(inst),
                        cap=1 if mode == "first" else cap, budget=budget)


def ports_by_scan(decomp, live):
    """``RegionCycles``' ports and the cells over their borders, found by
    looking up the region of each neighbor of each live region's cells: per
    live region its ports in board order, and per port its neighbors north,
    east, south and west that lie in another live region, each with its
    region."""
    live_set = set(live)
    ports, cross = {}, {}
    for r in live:
        ports[r] = []
        for x, y in decomp.regions[r]:
            out = [(c, q) for c in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y))
                   if (q := decomp.region_at(c)) != r and q in live_set]
            if out:
                ports[r].append((x, y))
                cross[x, y] = out
    return ports, cross


# The All or Nothing board as walls between cells, as the package built it
# before boards became region labels.  A wall set holds cell pairs, each
# separating two orthogonally adjacent cell positions; one of them may lie
# off the board (the exterior side of a border segment).

# Wall polylines of the canonical gadget, in frame-corner coordinates.
# The two three-sided squares are deliberately open on one side: that gap
# joins their single cell to the surrounding filler part.
GADGET_POLYLINES = (
    [(0, 4), (1, 4), (1, 1), (3, 1), (3, 4), (5, 4), (5, 3), (7, 3), (7, 4),
     (8, 4), (8, 1), (10, 1), (10, 5), (11, 5)],
    [(0, 6), (1, 6), (1, 7)],
    [(1, 8), (1, 10), (4, 10), (4, 11)],
    [(1, 7), (2, 7), (2, 8), (1, 8)],
    [(6, 11), (6, 10), (7, 10)],
    [(8, 10), (10, 10), (10, 7), (11, 7)],
    [(7, 10), (7, 9), (8, 9), (8, 10)],
    [(5, 6), (6, 6), (6, 7), (5, 7), (5, 6)],
    [(0, 4), (0, 6)],
    [(11, 5), (11, 7)],
    [(4, 11), (6, 11)],
)


def boundary_edges(pairs):
    """A wall set of the given cell pairs, each stored sorted."""
    return frozenset(tuple(sorted(p)) for p in pairs)


def rotate_corner(size, quarter_turns, corner):
    """Rotate a frame corner point (coordinates 0..size) counterclockwise."""
    x, y = corner
    if not (0 <= x <= size and 0 <= y <= size):
        raise ValueError(f"corner {corner} outside {size}x{size} frame")
    for _ in range(quarter_turns % 4):
        x, y = size - y, x
    return (x, y)


def corner_segment_to_cells(p, q):
    """Convert a unit segment between grid corners into the cell pair it separates.

    A horizontal segment from (x, y) to (x+1, y) separates cell (x, y-1) from
    (x, y); a vertical segment from (x, y) to (x, y+1) separates (x-1, y) from
    (x, y).
    """
    (x1, y1), (x2, y2) = sorted((p, q))
    if (x2 - x1, y2 - y1) == (1, 0):
        return ((x1, y1 - 1), (x1, y1))
    if (x2 - x1, y2 - y1) == (0, 1):
        return ((x1 - 1, y1), (x1, y1))
    raise ValueError(f"not a unit corner segment: {p}-{q}")


def polyline_to_boundary(points):
    """Decompose an axis-aligned corner polyline into separated cell pairs."""
    pairs = set()
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 != x2 and y1 != y2:
            raise ValueError(f"polyline segment not axis-aligned: ({x1},{y1})-({x2},{y2})")
        if x1 == x2:
            lo, hi = sorted((y1, y2))
            for y in range(lo, hi):
                pairs.add(tuple(sorted(corner_segment_to_cells((x1, y), (x1, y + 1)))))
        else:
            lo, hi = sorted((x1, x2))
            for x in range(lo, hi):
                pairs.add(tuple(sorted(corner_segment_to_cells((x, y1), (x + 1, y1)))))
    return pairs


def gadget_walls(turns):
    """Wall cell pairs of the gadget rotated by ``turns``, each pair sorted."""
    pairs = set()
    for pts in GADGET_POLYLINES:
        pairs |= polyline_to_boundary([rotate_corner(FRAME, turns, p) for p in pts])
    return pairs


def compiled_walls(tiling):
    """The walls of a board compiled with ``tiling`` (the turns per vertex,
    as ``GADGET.tile`` gives them): each metacell's rotated gadget walls
    placed at its frame."""
    walls = set()
    for (vx, vy), turns in tiling.items():
        ox, oy = FRAME * vx, FRAME * vy
        walls.update(((ax + ox, ay + oy), (bx + ox, by + oy))
                     for (ax, ay), (bx, by) in gadget_walls(turns))
    return walls


def big_region_ids(inst, tiling):
    """The big region of each metacell of ``inst``, compiled with
    ``tiling``: the region of its placed W exit cell, as
    :func:`~loopforge.aon.gadget_harness` finds it."""
    region_at = inst.regions.region_at
    return {region_at((FRAME * vx + x, FRAME * vy + y))
            for (vx, vy), turns in tiling.items()
            for x, y in GADGET.place(turns, [GADGET_EXIT_CELLS[Direction.W]])}


def regions_from_boundaries(width, height, walls):
    """Flood-fill the board into regions between the walls, each pair in
    either order; the outer border always acts as a wall.  The fill keys
    cells by tuple; only the decomposition it returns lists the regions
    in board order, by x and then y, as the package's decompositions do."""
    # normalise each wall once to the cell on its west or south side, so a
    # step costs one lookup whichever order the pair was stored in
    east_walls = set()
    north_walls = set()
    for p, q in walls:
        if q < p:
            p, q = q, p
        (north_walls if p[0] == q[0] else east_walls).add(p)
    region_of = {}
    regions = {}
    for x0 in range(width):  # cells in sorted order, so ids follow smallest cells
        for y0 in range(height):
            start = (x0, y0)
            if start in region_of:
                continue
            rid = len(regions)
            region_of[start] = rid
            comp = [start]
            stack = [start]
            while stack:
                c = stack.pop()
                x, y = c
                if x + 1 < width and c not in east_walls:
                    n = (x + 1, y)
                    if n not in region_of:
                        region_of[n] = rid
                        comp.append(n)
                        stack.append(n)
                if y + 1 < height and c not in north_walls:
                    n = (x, y + 1)
                    if n not in region_of:
                        region_of[n] = rid
                        comp.append(n)
                        stack.append(n)
                if x > 0:
                    n = (x - 1, y)
                    if n not in region_of and n not in east_walls:
                        region_of[n] = rid
                        comp.append(n)
                        stack.append(n)
                if y > 0:
                    n = (x, y - 1)
                    if n not in region_of and n not in north_walls:
                        region_of[n] = rid
                        comp.append(n)
                        stack.append(n)
            regions[rid] = sorted(comp)
    region_of = dict(sorted(region_of.items()))

    leaf_cells = {rid: [] for rid in regions}
    get = region_of.get
    for c, rid in region_of.items():
        x, y = c
        same = (get((x + 1, y)) == rid) + (get((x - 1, y)) == rid) \
            + (get((x, y + 1)) == rid) + (get((x, y - 1)) == rid)
        if same == 1:
            leaf_cells[rid].append(c)
    decomp = RegionDecomposition(width, height, list(region_of.values()))
    # ``regions`` and ``leaves`` are cached properties: storing this fill's
    # own where they are cached keeps them independent of the package's
    # computation
    decomp.__dict__["regions"] = list(regions.values())
    decomp.__dict__["leaves"] = list(leaf_cells.values())
    return decomp


# ---------------------------------------------------------------------------
# Gadget placement as each puzzle did it before ``Gadget.boards``: the
# Water Walk gadget as literal ground cells and clues, and All or
# Nothing's ``GADGET_ROWS`` split into letters, rotated cell by cell once
# per turn count and offset into each metacell by hand.

WW_GADGET_GROUND = frozenset({(2, 1), (2, 2), (2, 3), (3, 2)})
WW_GADGET_NUMBERS = {(2, 2): 3}


def ww_gadget_terrain(turns):
    """Ground cells and clues of the Water Walk gadget rotated by ``turns``
    in its frame."""
    clues = zip(ww.GADGET.place(turns, WW_GADGET_NUMBERS), WW_GADGET_NUMBERS.values())
    return ww.GADGET.place(turns, WW_GADGET_GROUND), dict(clues)


def ww_terrain_by_vertex(tiling):
    """Ground cells and clues of a Water Walk board tiled by ``tiling``
    (turns per vertex), one metacell at a time."""
    ground, numbers = set(), {}
    for (vx, vy), turns in tiling.items():
        cells, clues = ww_gadget_terrain(turns)
        ox, oy = ww.FRAME * vx, ww.FRAME * vy
        ground.update((ox + x, oy + y) for x, y in cells)
        numbers.update(((ox + x, oy + y), n) for (x, y), n in clues.items())
    return frozenset(ground), numbers


def tiled_tokens(gadget, tiling):
    """``(vertex, board cell, token)`` for every cell of a board tiled by
    ``tiling`` (turns per vertex): each metacell's tokens read from
    ``gadget.boards`` at its turn and offset into the metacell by hand."""
    n = gadget.frame
    return [(v, (n * v[0] + x, n * v[1] + y), tok) for v, turns in tiling.items()
            for (x, y), tok in zip(board_cells(n, n), gadget.boards[turns])]



# ---------------------------------------------------------------------------
# Water Walk boards as they were built and written before a board was one
# board-order token string: a set of ground cells and a dict of clues,
# filled one (cell, token) pair at a time, and rows written by asking for
# each cell's token.

def ww_terrain_by_cells(pairs):
    """Ground cells and clues of ``(cell, token)`` pairs: ``~`` water,
    ``.`` ground, a digit a clue on ground."""
    ground, numbers = set(), {}
    for cell, tok in pairs:
        if tok != "~":
            ground.add(cell)
            if tok != ".":
                numbers[cell] = int(tok)
    return frozenset(ground), numbers


def _ww_token(cell, ground, numbers):
    assert numbers.keys() <= ground, "a clue on water"
    return str(numbers[cell]) if cell in numbers else "." if cell in ground else "~"


def ww_board_text_by_cells(width, height, ground, numbers, marked=frozenset()):
    """Board rows, top row first, each cell's token or ``#`` on a
    ``marked`` cell."""
    return "".join(
        "".join("#" if (x, y) in marked else _ww_token((x, y), ground, numbers)
                for x in range(width)) + "\n"
        for y in range(height - 1, -1, -1))


def ww_board(width, height, ground, numbers):
    """The Water Walk board with ``ground`` cells and ``numbers`` clues."""
    return ww.WwInstance(width, height, "".join(
        _ww_token(c, ground, numbers) for c in board_cells(width, height)))

_AON_GADGET_TOKENS = {(x, FRAME - 1 - k): tok
                      for k, row in enumerate(aon.GADGET_ROWS.splitlines())
                      for x, tok in enumerate(row.split())}


def aon_gadget_labels(turns):
    """Every frame cell of the All or Nothing gadget rotated by ``turns``
    with its letter in ``GADGET_ROWS``."""
    return tuple(zip(GADGET.place(turns, _AON_GADGET_TOKENS),
                     _AON_GADGET_TOKENS.values()))


def aon_labels_by_offsets(tiling):
    """The region label of every cell of an All or Nothing board tiled by
    ``tiling``: ``(v, letter)`` on metacell ``v``'s big and one-cell
    regions, ``None`` on every filler cell."""
    rotated = [aon_gadget_labels(turns) for turns in range(4)]
    label_of = {}
    for v, turns in tiling.items():
        ox, oy = FRAME * v[0], FRAME * v[1]
        own = {"B": (v, "B"), "D": (v, "D")}  # filler cells get None
        label_of.update(((ox + x, oy + y), own.get(tok)) for (x, y), tok in rotated[turns])
    return label_of


def regions_from_labels_by_cells(width, height, labels):
    """``regions_from_labels`` as it was before it filled runs: a flood
    fill that visits one cell at a time, from each unfilled cell in board
    order, so region ids follow smallest cells."""
    n = width * height
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for a {width}x{height} board")
    cells = board_cells(width, height)
    if isinstance(labels, dict):
        try:
            labels = list(map(labels.__getitem__, cells))
        except KeyError as e:  # the count is right, so a label lies off the board
            raise ValueError(f"no label for board cell {e.args[0]}") from None
    rid_of = [-1] * n
    comps = []
    for start in range(n):
        if rid_of[start] >= 0:
            continue
        lab, rid = labels[start], len(comps)
        rid_of[start] = rid
        comp = [start]
        for i in comp:
            y = i % height
            # south, north, west, east; the cell itself stands for a side
            # past the board's edge, as it is already filled
            for j in (i - 1 if y else i, i + 1 if y + 1 < height else i,
                      i - height if i >= height else i, i + height if i + height < n else i):
                if rid_of[j] < 0 and labels[j] == lab:
                    rid_of[j] = rid
                    comp.append(j)
        comps.append(comp)
    decomp = RegionDecomposition(width, height, rid_of)
    # this fill's own regions, where the package caches its own
    decomp.__dict__["regions"] = [list(map(cells.__getitem__, sorted(comp))) for comp in comps]
    return decomp
