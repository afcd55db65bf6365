import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopforge.aon import compile_aon, solve_aon
from loopforge.framework import plan_for
from loopforge.hamilton import random_candidate_subgraph
from loopforge.loopsearch import LoopConstraint, cycles_through, search_loops, search_paths
from loopforge.model import LoopPath, full_grid, orthogonal_neighbors
from loopforge.reduction import certify_gadget, puzzle_of

from oracles import (
    all_loops_on_board,
    check_against_full_fill,
    check_against_unsplit,
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
    # second cells close different cycles, so a resolved node's key holds
    # the second cell; a root with two neighbors, as the smallest cell of a
    # board always is, leaves the second cell fixed by the free cells
    cells = [(x, y) for x in range(4) for y in range(5)]
    cells.remove((1, 2))
    cells.insert(0, (1, 2))
    trace = check_against_full_fill(cycles_through, cells, orthogonal_neighbors)
    check_against_unsplit(cycles_through, cells, orthogonal_neighbors)
    cycles = [event[1] for event in trace if event[0] == "path"]
    every = {l.canonical() for l in all_loops_on_board(4, 5) if len(l.cells) == 20}
    assert len(cycles) == len(every) == 14
    assert {LoopPath(c).canonical() for c in cycles} == every
    assert all(c[0] == (1, 2) and cells.index(c[1]) < cells.index(c[-1]) for c in cycles)
    assert trace[-1] == ("end", 578)


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
    # both oracle walks close a loop by comparing cells, so they cannot
    # check the engine's rule on an order that is not the cells' own: each
    # cycle once, rooted at cells[0], its second cell before its last in
    # cells, whatever the order of the cells and of each cell's neighbors
    rng = random.Random(f"order/{width}x{height}/{holes}/{seed}")
    cells = [(x, y) for x in range(width) for y in range(height) if (x, y) not in holes]
    rng.shuffle(cells)
    order = {c: rng.sample(orthogonal_neighbors(c), 4) for c in cells}
    position = {c: i for i, c in enumerate(cells)}
    cycles = list(cycles_through(cells, order.__getitem__))
    assert sorted(LoopPath(c).canonical().cells for c in cycles) == brute_loops(cells, cells)
    assert len(cycles) == count
    assert all(c[0] == cells[0] and position[c[1]] < position[c[-1]] for c in cycles)


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
    ([(0, 0), (7, 0)], 0, 119),
    ([(1, 1), (6, 1)], 0, 147),
    ([(7, 0)], 1, 9),
    ([(0, 0)], 48, 498),
])
def test_loops_through_a_one_cell_neck(required, count, nodes):
    check_against_full_fill(search_loops, NECK, required, LoopConstraint, budget=20)
    check_against_unsplit(search_loops, NECK, required, LoopConstraint, budget=20)
    res = search_loops(NECK, required, LoopConstraint)
    assert res.exhausted and res.nodes == nodes
    assert sorted(l.cells for l in res.loops) == brute_loops(NECK, required)
    assert len(res.loops) == count


@pytest.mark.parametrize("goal, required, count, nodes", [
    ((4, 2), [(7, 0)], 0, 335),
    ((4, 2), [(7, 1), (2, 0)], 0, 286),
    ((7, 0), [], 218, 1_027),
])
def test_paths_through_a_one_cell_neck(goal, required, count, nodes):
    # the pocket test saves four nodes on the second (290 without it)
    args = NECK, (0, 0), goal, required, LoopConstraint
    check_against_full_fill(search_paths, *args, budget=20)
    check_against_unsplit(search_paths, *args, budget=20)
    res = search_paths(*args)
    assert res.exhausted and res.nodes == nodes
    assert sorted(res.loops) == brute_paths(NECK, (0, 0), goal, required)
    assert len(res.loops) == count


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
# no more than for a first loop.
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
    "aon by region fixture all": lambda request: solve_aon(
        request.getfixturevalue("aon_fixture"), mode="all"),
    "aon by region 2x2 all, cap 1": lambda request: solve_aon(
        compile_aon(full_grid(2, 2), plan_for(full_grid(2, 2))), mode="all", cap=1),
}


@pytest.mark.parametrize("board, nodes, found", [
    ("ww 3x3 seed 7", 6_858, 0),
    ("ww 4x4 seed 7", 144, 1),
    ("aon 2x4 seed 7", 9_902, 1),
    ("aon certificate", 69_623, [593, 694, 853]),
    ("ww certificate", 408, [2, 2, 3]),
    ("aon fixture all", 956, 2),
    ("aon by region 2x4 seed 7", 366, 1),
    ("aon by region 3x4 seed 7", 507, 0),
    ("aon by region fixture all", 164, 2),
    ("aon by region 2x2 all, cap 1", 266, 1),
    ("ww 3x4 seed 7", 11_471, 0),
])
def test_baseline_node_counts_pinned(board, nodes, found, request):
    res = BASELINE_BOARDS[board](request)
    if isinstance(found, int):
        assert len(res.loops) == found
        assert res.exhausted == (found == 0 or board.endswith(" all"))
    else:
        assert sorted(res.pair_counts.values()) == found
    assert res.nodes == nodes
