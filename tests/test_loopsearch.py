import random
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopforge.aon import compile_aon, solve_aon
from loopforge.framework import plan_for
from loopforge.hamilton import hamiltonian_cycles, random_candidate_subgraph
from loopforge.loopsearch import (
    LoopConstraint,
    SearchResult,
    cycles_through,
    search_loops,
    search_paths,
)
from loopforge.model import LoopPath, full_grid, orthogonal_neighbors
from loopforge.reduction import certify_gadget, puzzle_of

from oracles import (
    all_loops_on_board,
    check_against_full_fill,
    check_against_unsplit,
    ham_cycles_by_permutation,
    solve_aon_by_cells,
)

BOARD = [(x, y) for x in range(3) for y in range(3)]


@pytest.mark.parametrize("required", [[], [(1, 1)], [(2, 0), (0, 2)]])
def test_loops_through_required_cells_match_brute_force(required):
    res = search_loops(BOARD, required, LoopConstraint)
    brute = sorted(l.canonical().cells for l in all_loops_on_board(3, 3)
                   if set(required) <= set(l.cells))
    assert res.exhausted
    assert sorted(l.cells for l in res.loops) == brute
    assert all(l == l.canonical() for l in res.loops)


@pytest.mark.parametrize("cap", [0, -1])
def test_search_loops_rejects_cap_below_one(cap):
    with pytest.raises(ValueError):
        search_loops(BOARD, [(1, 1)], LoopConstraint, cap=cap)


@pytest.mark.parametrize("cap", [0, -1])
def test_search_paths_rejects_cap_below_one(cap):
    with pytest.raises(ValueError):
        search_paths(BOARD, (0, 0), (2, 2), [], LoopConstraint, cap=cap)


def test_cap_of_one_stops_after_one_loop():
    res = search_loops(BOARD, [], LoopConstraint, cap=1)
    assert len(res.loops) == 1 and not res.exhausted


@pytest.mark.parametrize("start, goal", [((0, 0), (0, 0)), ((9, 9), (2, 2)), ((0, 0), (9, 9))])
def test_search_paths_rejects_a_start_or_goal_it_cannot_use(start, goal):
    with pytest.raises(ValueError, match="distinct allowed cells"):
        search_paths(BOARD, start, goal, [], LoopConstraint)


def test_search_result_repr_counts_the_loops_instead_of_listing_them():
    res = search_loops(BOARD, [], LoopConstraint, cap=2)
    assert repr(res) == f"SearchResult(2 found, nodes={res.nodes}, exhausted=False)"
    assert repr(SearchResult([], 0, True)) == "SearchResult(0 found, nodes=0, exhausted=True)"


def test_a_required_cell_outside_the_board_finds_nothing_at_no_cost():
    empty = SearchResult([], 0, True)
    assert search_paths(BOARD, (0, 0), (2, 2), [(9, 9)], LoopConstraint) == empty
    assert search_loops(BOARD, [(1, 1), (9, 9)], LoopConstraint) == empty


class Refusing(LoopConstraint):
    """Rules that admit no cell, the walk's start included."""

    def push(self, cell):
        return False


@pytest.mark.parametrize("required", [[], [(1, 1)]])
def test_a_start_the_rules_refuse_spends_no_node(required):
    assert search_loops(BOARD, required, Refusing) == SearchResult([], 0, True)


@pytest.mark.parametrize("step", [(1, 1), (2, 0), (0, -2), (0, 0)])
def test_cycles_through_rejects_a_step_that_is_not_an_orthogonal_unit(step):
    # the engine's sets of cells step a bit at a time north and south and a
    # column at a time east and west, so it takes no other adjacency
    def neighbors(cell):
        return [*orthogonal_neighbors(cell), (cell[0] + step[0], cell[1] + step[1])]

    with pytest.raises(ValueError, match="orthogonal unit step"):
        cycles_through(BOARD, neighbors)
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(cycles_through(square, orthogonal_neighbors)) == [
        ((0, 0), (0, 1), (1, 1), (1, 0))]


def test_cycles_through_a_root_with_four_neighbors():
    # walks that reach one head and one set of free cells from different
    # second cells close different cycles, so a resolved node's key could
    # not drop the second cell under a root with four neighbors; the walk
    # roots at the smallest cell, which has two, whatever cell comes first
    cells = [(x, y) for x in range(4) for y in range(5)]
    cells.remove((1, 2))
    cells.insert(0, (1, 2))
    trace = check_against_full_fill(cycles_through, cells, orthogonal_neighbors)
    check_against_unsplit(cycles_through, cells, orthogonal_neighbors)
    cycles = [event[1] for event in trace if event[0] == "path"]
    every = {l.canonical() for l in all_loops_on_board(4, 5) if len(l.cells) == 20}
    assert len(cycles) == len(every) == 14
    assert {LoopPath(c).canonical() for c in cycles} == every
    assert all(c[0] == (0, 0) and c == LoopPath(c).canonical().cells for c in cycles)
    assert trace[-1] == ("end", 160)


# Boards on which the head often cuts the free cells, so that a node's reach
# set cannot be its parent's less the head.  Each is drawn row by row ("#"
# an allowed cell, "." none), with x along the row and y down the rows.

def board(*rows):
    return [(x, y) for y, row in enumerate(rows) for x, ch in enumerate(row) if ch == "#"]


# two 3x3 rooms joined by one cell
BRIDGE = board("###.###",
               "#######",
               "###.###")
# a loop through (0, 0) leaves or comes back along a one-wide corridor, so
# the root's last free neighbor is often reached only past the head
CORRIDOR = board("####",
                 "#.##",
                 "#.##",
                 "####")
# two 2x2 rooms joined by a corridor two cells long; its two colors are
# balanced, so only the reach count refutes a loop through every cell
DUMBBELL = board("##..##",
                 "######")
RING = board("####",
             "#..#",
             "####")


@lru_cache(maxsize=None)
def board_loops(width, height):
    return tuple(l.canonical().cells for l in all_loops_on_board(width, height))


def brute_loops(cells, required):
    """Canonical loops over ``cells`` through every ``required`` cell, from
    the unpruned enumeration of the bounding board."""
    width = 1 + max(x for x, _ in cells)
    height = 1 + max(y for _, y in cells)
    return sorted(l for l in board_loops(width, height)
                  if set(l) <= set(cells) and set(required) <= set(l))


def brute_paths(cells, start, goal, required):
    """Every simple path from ``start`` to ``goal`` over ``cells`` through
    every ``required`` cell, by plain depth-first search."""
    allowed = set(cells)
    found = []
    path = [start]

    def extend(head):
        if head == goal:
            if set(required) <= set(path):
                found.append(tuple(path))
            return
        for w in orthogonal_neighbors(head):
            if w in allowed and w not in path:
                path.append(w)
                extend(w)
                path.pop()

    extend(start)
    return sorted(found)


@pytest.mark.parametrize("width, height, holes, count", [
    (2, 3, (), 1), (3, 4, (), 2), (4, 4, (), 6), (4, 5, (), 14),
    (4, 5, ((0, 0), (3, 0)), 4), (4, 4, ((1, 1), (2, 1)), 1),
])
@pytest.mark.parametrize("seed", range(4))
def test_cycles_through_any_cell_order(width, height, holes, count, seed):
    # each cycle once and in canonical form, rooted at the smallest cell,
    # whatever the order of the cells and of each cell's neighbors
    rng = random.Random(f"order/{width}x{height}/{holes}/{seed}")
    cells = [(x, y) for x in range(width) for y in range(height) if (x, y) not in holes]
    rng.shuffle(cells)
    order = {c: rng.sample(orthogonal_neighbors(c), 4) for c in cells}
    cycles = list(cycles_through(cells, order.__getitem__))
    assert sorted(cycles) == brute_loops(cells, cells)
    assert len(cycles) == count
    assert all(c[0] == min(cells) and c == LoopPath(c).canonical().cells for c in cycles)


@pytest.mark.parametrize("cells, required, count", [
    (BRIDGE, [(0, 0)], 7),
    (BRIDGE, [(0, 0), (6, 2)], 0),
    (CORRIDOR, [(0, 0)], 8),
    (CORRIDOR, [(3, 1)], 11),
    (DUMBBELL, DUMBBELL, 0),
    (RING, RING, 1),
])
def test_loops_where_the_head_cuts_the_free_cells(cells, required, count):
    trace = check_against_full_fill(search_loops, cells, required, LoopConstraint, budget=20)
    check_against_unsplit(search_loops, cells, required, LoopConstraint, budget=20)
    assert sum(1 for event in trace if event[0] == "path") == count
    found = search_loops(cells, required, LoopConstraint)
    assert found.exhausted
    assert sorted(l.cells for l in found.loops) == brute_loops(cells, required)


@pytest.mark.parametrize("start, goal, required, count", [
    ((1, 1), (6, 1), [], 63),
    ((1, 1), (6, 1), [(0, 0), (5, 2)], 15),
    ((0, 0), (0, 2), [(3, 3)], 4),
])
def test_pinned_goal_behind_a_corridor(start, goal, required, count):
    cells = BRIDGE if goal == (6, 1) else CORRIDOR
    check_against_full_fill(search_paths, cells, start, goal, required, LoopConstraint,
                            budget=20)
    check_against_unsplit(search_paths, cells, start, goal, required, LoopConstraint,
                          budget=20)
    res = search_paths(cells, start, goal, required, LoopConstraint)
    assert res.exhausted and len(res.loops) == count
    assert sorted(res.loops) == brute_paths(cells, start, goal, required)


# a 5x3 room and a 2x2 pocket joined to it by one cell, (5, 1): a path
# through a pocket cell and a cell of the room must cross that neck twice
NECK = board("#####.##",
             "########",
             "#####...")


@pytest.mark.parametrize("required, count, nodes", [
    ([(0, 0), (7, 0)], 0, 78),
    ([(1, 1), (6, 1)], 0, 95),
    ([(7, 0)], 1, 6),
    ([(0, 0)], 48, 265),
], ids=["far corners", "across the neck", "pocket corner", "room corner"])
def test_loops_through_a_one_cell_neck(required, count, nodes):
    check_against_full_fill(search_loops, NECK, required, LoopConstraint, budget=20)
    check_against_unsplit(search_loops, NECK, required, LoopConstraint, budget=20)
    res = search_loops(NECK, required, LoopConstraint)
    assert res.exhausted and res.nodes == nodes
    assert sorted(l.cells for l in res.loops) == brute_loops(NECK, required)
    assert len(res.loops) == count


@pytest.mark.parametrize("goal, required, count, nodes", [
    ((4, 2), [(7, 0)], 0, 335),
    ((4, 2), [(7, 1), (2, 0)], 0, 282),
    ((7, 0), [], 218, 1_027),
    ((4, 2), [(4, 2), (7, 0)], 0, 335),
], ids=["pocket corner", "pocket and room", "goal in the pocket", "goal required"])
def test_paths_through_a_one_cell_neck(goal, required, count, nodes):
    # the pocket test saves four nodes on the second (286 without it); the
    # last is the first with its goal also required, a cell pending once
    args = NECK, (0, 0), goal, required, LoopConstraint
    check_against_full_fill(search_paths, *args, budget=20)
    check_against_unsplit(search_paths, *args, budget=20)
    res = search_paths(*args)
    assert res.exhausted and res.nodes == nodes
    assert sorted(res.loops) == brute_paths(NECK, (0, 0), goal, required)
    assert len(res.loops) == count


# a 5x4 room with a notch in its bottom row, so that a path along the room
# can leave a corner of that row behind a cell next to its head
NOTCH = board("##.##",
              "#####",
              "#####",
              "#####")


@pytest.mark.parametrize("cells, start, goal, count, nodes, ruled", [
    (NOTCH, (4, 3), (2, 1), 3, 78, 78),
    (board("#####", "#####", "#####", "#####", "#####"), (0, 0), (4, 4), 104, 815, 1_851),
], ids=["notch", "5x5 grid"])
def test_paths_through_every_cell_die_at_a_neck(cells, start, goal, count, nodes, ruled):
    # a pinned path under exact cover is dead once a free neighbor of its
    # head cuts free cells off from both the head and the end, since the
    # path would enter and leave them through that one cell; without the
    # rule the same paths, in the same order, took 149 and 1,203 nodes, and
    # 99 and 1,031 before the walk took forced moves
    args = cells, start, goal, cells, LoopConstraint
    check_against_full_fill(search_paths, *args, budget=20)
    check_against_unsplit(search_paths, *args, budget=20)
    res = search_paths(*args)
    assert res.exhausted and res.nodes == nodes and len(res.loops) == count
    assert sorted(res.loops) == brute_paths(cells, start, goal, cells)
    # the argument reads no rule, so a walk with rules runs the test too: a
    # subclass that only counts its cells keeps no table, yet gets the same
    # paths in the same order in ``ruled`` nodes, where 116 and 2,079 when
    # only rule-free walks ran it
    args = cells, start, goal, cells, Counted
    check_against_full_fill(search_paths, *args, budget=20)
    res_ruled = search_paths(*args)
    assert res_ruled.exhausted and res_ruled.nodes == ruled and res_ruled.loops == res.loops


# a room whose ends sit on one-cell stubs at (0, 0) and (0, 3): along the
# stubs and the corners a free neighbor of the head often has two usable
# neighbors, so the walk must step onto it
CUP = board("#####",
            ".####",
            ".####",
            "#####")


def test_paths_through_every_cell_take_forced_moves():
    # under exact cover a free neighbor of the head, not the end, with two
    # usable neighbors is the next cell, and two such kill the node: the
    # same 8 paths in the same order took 120 nodes without the rule
    args = CUP, (0, 0), (0, 3), CUP, LoopConstraint
    check_against_full_fill(search_paths, *args, budget=20)
    check_against_unsplit(search_paths, *args, budget=20)
    res = search_paths(*args)
    assert res.exhausted and res.nodes == 93 and len(res.loops) == 8
    assert sorted(res.loops) == brute_paths(CUP, (0, 0), (0, 3), CUP)


def test_forced_moves_skip_a_loops_root():
    # a loop's root has two steps left, its second cell and its last, so no
    # neighbor of it is forced to come next: on the 2x3 grid the root's
    # neighbor (1, 0) has two usable neighbors, yet the one cycle, walked
    # with its second cell before its last, leaves the root for (0, 1)
    g = full_grid(2, 3)
    cycles = [c.vertices for c in hamiltonian_cycles(g)]
    assert cycles == [((0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0))]
    assert len(cycles) == len(ham_cycles_by_permutation(g))
    check_against_full_fill(hamiltonian_cycles, g)
    check_against_unsplit(hamiltonian_cycles, g)


# a 4x2 room with a two-cell spur hanging from its corner (0, 1): a path
# through (0, 2) would have to enter it from (0, 1) and leave it the same way
SPUR = board("####",
             "####",
             "#...",
             "#...")


@pytest.mark.parametrize("search, args", [
    (search_loops, (SPUR, [(0, 0), (0, 2)], LoopConstraint)),
    (search_paths, (SPUR, (0, 0), (3, 0), [(0, 2)], LoopConstraint)),
], ids=["loop", "path"])
def test_a_required_cell_in_a_spur_is_refuted_at_the_root(search, args):
    # the root peels the board, the start and the end kept: (0, 3) goes,
    # then (0, 2), which is required, so the walk ends at its first node;
    # (0, 2) has two neighbors, and the loop took 14 nodes and the path 7
    # when only a required cell with fewer than two stopped a walk there
    check_against_full_fill(search, *args, budget=20)
    check_against_unsplit(search, *args, budget=20)
    res = search(*args)
    assert res.exhausted and res.nodes == 1 and res.loops == []
    if search is search_loops:
        assert brute_loops(SPUR, args[1]) == []
    else:
        assert brute_paths(SPUR, (0, 0), (3, 0), [(0, 2)]) == []


def test_forced_moves_off_exact_cover():
    # only CUP's rim is required, so its four inner cells may be left out;
    # a required free neighbor of the head with two usable neighbors is
    # still the next cell: the same 11 paths in the same order took 175
    # nodes when only exact-cover walks took forced moves
    rim = [(x, y) for x, y in CUP if x in (1, 4) or y in (0, 3)]
    args = CUP, (0, 0), (0, 3), rim, LoopConstraint
    check_against_full_fill(search_paths, *args, budget=20)
    check_against_unsplit(search_paths, *args, budget=20)
    res = search_paths(*args)
    assert res.exhausted and res.nodes == 151 and len(res.loops) == 11
    assert sorted(res.loops) == brute_paths(CUP, (0, 0), (0, 3), rim)


def test_cycles_through_a_cell_with_one_neighbor():
    # without the side (0, 0)-(1, 0) the root's peel takes (1, 0) out, so
    # the walk ends at its first node, where a check of every cell's degree
    # once returned before any node
    g = full_grid(2, 3)
    cells = [(x, y) for x in range(2) for y in range(3)]
    nbrs = {c: [w for w in orthogonal_neighbors(c)
                if g.has_edge(c, w) and {c, w} != {(0, 0), (1, 0)}] for c in cells}
    trace = check_against_full_fill(cycles_through, cells, nbrs.__getitem__)
    check_against_unsplit(cycles_through, cells, nbrs.__getitem__)
    assert trace == [("end", 1)]


class Counted(LoopConstraint):
    """No rules, as a subclass that counts the cells pushed and popped."""

    def __init__(self):
        self.pushed = self.popped = 0

    def push(self, cell):
        self.pushed += 1
        return True

    def pop(self):
        self.popped += 1


class Vetoed(LoopConstraint):
    """Rejects the one cell ``cell`` and has no other rule."""

    def __init__(self, cell):
        self.cell = cell

    def push(self, cell):
        return cell != self.cell


GRID4 = board("####", "####", "####", "####")


@pytest.mark.parametrize("required", [[(0, 0)], GRID4], ids=["one cell", "exact"])
def test_rules_of_a_subclass_are_consulted(required):
    # the walk skips push and pop only for the base class itself: a
    # subclass, even one that overrides nothing, has them called, and gets
    # the same loops and paths as the base class, in the same order
    def runs(make):
        return (search_loops(GRID4, required, make).loops,
                search_paths(GRID4, (0, 0), (3, 0), required, make).loops)

    plain = runs(LoopConstraint)
    assert all(plain)
    assert runs(type("Plain", (LoopConstraint,), {})) == plain
    made = []

    def counted():
        made.append(Counted())
        return made[-1]

    assert runs(counted) == plain
    assert len(made) == 2 and all(c.pushed == c.popped > 0 for c in made)
    # a veto of (1, 1) loses exactly the base class's loops and paths
    # through it: some of them, or under exact cover all
    loops, paths = runs(lambda: Vetoed((1, 1)))
    assert loops == [l for l in plain[0] if (1, 1) not in l.cells] != plain[0]
    assert paths == [p for p in plain[1] if (1, 1) not in p] != plain[1]


@st.composite
def covered_paths(draw):
    """A board up to 6x6 with holes, cut down to the cells joined to a start,
    and a goal among them: a search for paths through every cell.  Boards
    keep at most 28 cells, so that ``brute_paths`` stays quick."""
    width, height = draw(st.sampled_from([(6, 6), (6, 5), (5, 6), (5, 5), (6, 4), (4, 4)]))
    full = [(x, y) for x in range(width) for y in range(height)]
    least = max(0, len(full) - 28)
    holes = set(draw(st.lists(st.sampled_from(full), min_size=least, max_size=least + 6,
                              unique=True)))
    start = draw(st.sampled_from([c for c in full if c not in holes]))
    cells, stack = {start}, [start]
    while stack:
        for w in orthogonal_neighbors(stack.pop()):
            if w in full and w not in holes and w not in cells:
                cells.add(w)
                stack.append(w)
    assume(len(cells) > 1)
    goal = draw(st.sampled_from(sorted(cells - {start})))
    return sorted(cells), start, goal


@settings(max_examples=100, deadline=None)
@given(covered_paths())
def test_paths_through_every_cell_match_brute_force(case):
    # the neck rule runs here: the same paths as brute force, and node for
    # node the walk of ``full_fill_walk``, which finds cuts its own way
    cells, start, goal = case
    res = search_paths(cells, start, goal, cells, LoopConstraint)
    assert res.exhausted
    assert sorted(res.loops) == brute_paths(cells, start, goal, cells)
    check_against_full_fill(search_paths, cells, start, goal, cells, LoopConstraint, budget=50)


@st.composite
def cut_boards(draw):
    """Cells of a board up to 4x4, often cut by one cell into pieces, and
    required cells: every cell (exact cover) or a few of them."""
    width, height = draw(st.sampled_from([(4, 4), (4, 3), (3, 4), (3, 3), (4, 2), (2, 4)]))
    full = [(x, y) for x in range(width) for y in range(height)]
    keep = draw(st.lists(st.integers(0, 3), min_size=len(full), max_size=len(full)))
    cells = [c for c, k in zip(full, keep) if k < 3]
    if len(cells) < 2:
        cells = full
    required = draw(st.one_of(st.just(cells),
                              st.lists(st.sampled_from(cells), max_size=3, unique=True)))
    return cells, required


@settings(max_examples=300, deadline=None)
@given(cut_boards())
def test_search_loops_matches_brute_force(board):
    cells, required = board
    res = search_loops(cells, required, LoopConstraint)
    assert res.exhausted
    assert sorted(l.cells for l in res.loops) == brute_loops(cells, required)
    check_against_full_fill(search_loops, cells, required, LoopConstraint, budget=20)
    check_against_unsplit(search_loops, cells, required, LoopConstraint, budget=20)


@settings(max_examples=300, deadline=None)
@given(cut_boards(), st.data())
def test_search_paths_matches_brute_force(board, data):
    cells, required = board
    start = data.draw(st.sampled_from(cells))
    goal = data.draw(st.sampled_from([c for c in cells if c != start]))
    res = search_paths(cells, start, goal, required, LoopConstraint)
    assert res.exhausted
    assert sorted(res.loops) == brute_paths(cells, start, goal, required)
    args = cells, start, goal, required, LoopConstraint
    check_against_full_fill(search_paths, *args, budget=20)
    check_against_unsplit(search_paths, *args, budget=20)


@st.composite
def pocket_boards(draw):
    """Cells of a board up to 5x5, a few cells missing, with one to three
    required cells and a start and goal for paths: searches that are not
    exact cover, where the pocket test runs."""
    width, height = draw(st.sampled_from([(5, 5), (5, 4), (4, 5), (5, 3), (4, 4)]))
    full = [(x, y) for x in range(width) for y in range(height)]
    keep = draw(st.lists(st.integers(0, 5), min_size=len(full), max_size=len(full)))
    cells = [c for c, k in zip(full, keep) if k]
    if len(cells) < 3:
        cells = full
    required = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True))
    ends = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    return cells, required, ends


@settings(max_examples=100, deadline=None)
@given(pocket_boards())
def test_pocket_test_keeps_the_unsplit_walks_paths(case):
    # the same loops and paths as the walk without the pocket test or the
    # split prune, in the same order, each at no more nodes
    cells, required, (start, goal) = case
    for fn, args in ((search_loops, (cells, required, LoopConstraint)),
                     (search_paths, (cells, start, goal, required, LoopConstraint))):
        check_against_unsplit(fn, *args, budget=50)
        check_against_full_fill(fn, *args, budget=50)


class LateRequired(LoopConstraint):
    """Requires ``cell`` of every path of ``depth`` cells or more.  The
    engine's pending cells are fixed at the call, so the rule filters at
    the close alone."""

    def __init__(self, cell, depth):
        self.cell, self.depth = cell, depth

    def close_ok(self, cells):
        return len(cells) < self.depth or self.cell in cells

    finish_ok = close_ok


@st.composite
def late_cases(draw):
    """A board of ``cut_boards`` with at most two required cells, a cell
    required late and the path length from which it is, and a start and
    goal for paths."""
    cells, _ = draw(cut_boards())
    required = draw(st.lists(st.sampled_from(cells), max_size=2, unique=True))
    late = draw(st.sampled_from(cells))
    depth = draw(st.integers(2, len(cells)))
    ends = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    return cells, required, late, depth, ends


@settings(max_examples=150, deadline=None)
@given(late_cases())
@example((board("####", ".###", "####", "####"), [], (1, 0), 7, [(0, 0), (3, 3)]))
@example((board("####", "####", ".###"), [(2, 2), (3, 1)], (1, 0), 6, [(0, 1), (1, 2)]))
@example((board("####", "####", "###.", "####"), [], (2, 3), 5, [(0, 2), (0, 0)]))
@example((board("####", "####", "###.", "####"), [], (2, 3), 7, [(0, 2), (0, 0)]))
def test_cells_required_late_match_brute_force(case):
    # a rule that makes a cell mandatory mid-walk can only reject paths at
    # their close: the walk prunes for the required cells alone, and must
    # still find exactly the paths the filter keeps, node for node with
    # ``full_fill_walk``.  The four boards given caught faults in the
    # late-cell prune the walk once had
    cells, required, late, depth, (start, goal) = case
    rules = lambda: LateRequired(late, depth)
    res = search_loops(cells, required, rules)
    assert res.exhausted
    assert sorted(l.cells for l in res.loops) == [
        l for l in brute_loops(cells, required) if len(l) < depth or late in l]
    res = search_paths(cells, start, goal, required, rules)
    assert res.exhausted
    assert sorted(res.loops) == [
        p for p in brute_paths(cells, start, goal, required) if len(p) < depth or late in p]
    for fn, args in ((search_loops, (cells, required, rules)),
                     (search_paths, (cells, start, goal, required, rules))):
        check_against_full_fill(fn, *args, budget=20)
        check_against_unsplit(fn, *args, budget=20)


def seed7_first(puzzle, cols, rows, solve=None):
    p = puzzle_of(puzzle)
    g = random_candidate_subgraph(cols, rows, random.Random(7))
    return (solve or p.solve)(p.compile(g, plan_for(g)), mode="first")


# Search nodes on the boards the README and ROADMAP measure, with what each
# search finds: loops for a seed-7 board solved to a first loop (0 is a
# refutation) or for a board solved for all its loops, traversals per exit
# pair for a gadget certificate.  A change to any prune moves the node
# counts here.  The AoN boards without "by region" are solved by the cell
# walk (``oracles.solve_aon_by_cells``), the package's AoN solver before it
# searched by region.  The hand-made AoN fixture is not exact cover, so its
# cell-walk count is the one that a prune for cells a rule makes mandatory
# mid-walk would lower.  A region search's nodes are its rows' searches,
# most of them on a compile, one per region step and one per loop of a
# cycle after its first; asked for every loop but capped at one, it spends
# no more than for a first loop.  The 6x6 refutation is nearly all region
# steps.
BASELINE_BOARDS = {
    "ww 3x3 seed 7": lambda request: seed7_first("ww", 3, 3),
    "ww 4x4 seed 7": lambda request: seed7_first("ww", 4, 4),
    "ww 3x4 seed 7": lambda request: seed7_first("ww", 3, 4),
    "aon 2x4 seed 7": lambda request: seed7_first("aon", 2, 4, solve_aon_by_cells),
    "aon certificate": lambda request: request.getfixturevalue("aon_certificate"),
    "ww certificate": lambda request: certify_gadget("ww"),
    "aon fixture all": lambda request: solve_aon_by_cells(
        request.getfixturevalue("aon_fixture"), mode="all"),
    "aon by region 2x4 seed 7": lambda request: seed7_first("aon", 2, 4),
    "aon by region 3x4 seed 7": lambda request: seed7_first("aon", 3, 4),
    "aon by region 6x6 seed 7": lambda request: seed7_first("aon", 6, 6),
    "aon by region fixture all": lambda request: solve_aon(
        request.getfixturevalue("aon_fixture"), mode="all"),
    "aon by region 2x2 all, cap 1": lambda request: solve_aon(
        compile_aon(full_grid(2, 2), plan_for(full_grid(2, 2))), mode="all", cap=1),
}


BASELINE_COUNTS = [
    ("ww 3x3 seed 7", 568, 0),
    ("ww 4x4 seed 7", 142, 1),
    ("aon 2x4 seed 7", 7_985, 1),
    ("aon certificate", 22_023, [593, 694, 853]),
    ("ww certificate", 402, [2, 2, 3]),
    ("aon fixture all", 343, 2),
    ("aon by region 2x4 seed 7", 326, 1),
    ("aon by region 3x4 seed 7", 467, 0),
    ("aon by region 6x6 seed 7", 42_445, 0),
    ("aon by region fixture all", 115, 2),
    ("aon by region 2x2 all, cap 1", 226, 1),
    ("ww 3x4 seed 7", 747, 0),
]


# each case is named by its board alone, so a pinned count that moves
# leaves the test's id as it is
@pytest.mark.parametrize("board, nodes, found", BASELINE_COUNTS,
                         ids=[board for board, _, _ in BASELINE_COUNTS])
def test_baseline_node_counts_pinned(board, nodes, found, request):
    res = BASELINE_BOARDS[board](request)
    if isinstance(found, int):
        assert len(res.loops) == found
        assert res.exhausted == (found == 0 or board.endswith(" all"))
    else:
        assert sorted(res.pair_counts.values()) == found
    assert res.nodes == nodes
