import pytest

from loopforge.loopsearch import LoopConstraint, search_loops, search_paths

from oracles import all_loops_on_board

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
