import pytest

from loopforge.loopsearch import LoopConstraint, search_loops, search_paths
from loopforge.model import orthogonal_neighbors

from oracles import all_loops_on_board, check_against_full_fill

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


def brute_loops(cells, required):
    """Canonical loops over ``cells`` through every ``required`` cell, from
    the unpruned enumeration of the bounding board."""
    width = 1 + max(x for x, _ in cells)
    height = 1 + max(y for _, y in cells)
    return sorted(l.canonical().cells for l in all_loops_on_board(width, height)
                  if set(l.cells) <= set(cells) and set(required) <= set(l.cells))


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
    res = search_paths(cells, start, goal, required, LoopConstraint)
    assert res.exhausted and len(res.loops) == count
    assert sorted(res.loops) == brute_paths(cells, start, goal, required)
