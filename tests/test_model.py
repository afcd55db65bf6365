import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from loopforge.aon import compile_aon
from loopforge.errors import MalformedLoopError, ParseError
from loopforge.fileio import emit_graph, emit_loop, parse_graph, parse_loop
from loopforge.framework import plan_for
from loopforge.hamilton import enumerate_candidate_subgraphs
from loopforge.model import (
    GridGraph,
    HamCycle,
    LoopPath,
    crossings_by_region,
    degree_profile,
    full_grid,
    grid_graph,
    labelled_runs,
    regions_from_labels,
)
from loopforge.waterwalk import compile_ww

from oracles import (
    all_loops_on_board,
    boundary_crossings,
    boundary_edges,
    degree_bounds,
    gadget_walls,
    loop_arc_count,
    loop_runs,
    perimeter,
    polyline_to_boundary,
    region_count,
    regions_from_boundaries,
    regions_from_labels_by_cells,
)

LOOPS_3X3 = all_loops_on_board(3, 3)
LOOPS_4X4 = all_loops_on_board(4, 4)
WALLS_4X4 = ([((x, y), (x + 1, y)) for x in range(3) for y in range(4)]
             + [((x, y), (x, y + 1)) for x in range(4) for y in range(3)])

# G from the worked 3x4 construction example: 12 vertices, degrees 2 and 3
GRAPH_3X4_EDGES = [
    ((0, 0), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (0, 3)),
    ((1, 0), (1, 1)), ((1, 1), (1, 2)),
    ((2, 0), (2, 1)), ((2, 2), (2, 3)),
    ((0, 0), (1, 0)), ((0, 3), (1, 3)), ((1, 0), (2, 0)),
    ((1, 1), (2, 1)), ((1, 2), (2, 2)), ((1, 3), (2, 3)),
]


def graph_3x4():
    return grid_graph(3, 4, GRAPH_3X4_EDGES)


class TestGridGraph:
    def test_full_2x2_is_a_square(self):
        g = full_grid(2, 2)
        assert len(g.edges) == 4
        assert all(d == 2 for d in degree_profile(g).values())

    # the exact messages: the first edge that fails the check is named by
    # its fault

    def test_non_unit_edge_rejected(self):
        with pytest.raises(ValueError) as got:
            grid_graph(3, 1, [((0, 0), (2, 0))])
        assert str(got.value) == "edge is not between unit-distance vertices: (0, 0)-(2, 0)"

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError) as got:
            grid_graph(2, 2, [((0, 0), (1, 0)), ((1, 0), (0, 0))])
        assert str(got.value) == "duplicate edge: (1, 0)-(0, 0)"

    def test_grid_below_1x1_rejected(self):
        with pytest.raises(ValueError) as got:
            GridGraph(0, 3, frozenset())
        assert str(got.value) == "grid must be at least 1x1, got 0x3"

    def test_off_grid_endpoint_rejected(self):
        with pytest.raises(ValueError) as got:
            grid_graph(2, 2, [((0, 0), (0, -1))])
        assert str(got.value) == "edge endpoint out of range: (0, -1)-(0, 0)"
        # one bad edge among valid ones is the one named
        with pytest.raises(ValueError) as got:
            grid_graph(3, 3, [*full_grid(3, 3).edges, ((2, 2), (3, 2))])
        assert str(got.value) == "edge endpoint out of range: (2, 2)-(3, 2)"

    def test_non_canonical_edge_rejected(self):
        with pytest.raises(ValueError) as got:
            GridGraph(2, 2, frozenset({((1, 0), (0, 0))}))
        assert str(got.value) == "edge not stored in canonical order: (1, 0)-(0, 0)"

    def test_degree_profile_reports_isolated_vertices(self):
        g = grid_graph(2, 2, [])
        assert set(degree_profile(g).values()) == {0}

    def test_example_graph_degrees(self):
        deg = degree_profile(graph_3x4())
        assert degree_bounds(graph_3x4()) == (2, 3)
        assert len(deg) == 12


class TestGraphFile:
    def test_roundtrip_is_identity(self):
        text = emit_graph(graph_3x4())
        assert emit_graph(parse_graph(text)) == text

    def test_smallest_cycle(self):
        g = parse_graph("grid 2 2\nedge 0 0 1 0\nedge 0 0 0 1\nedge 1 0 1 1\nedge 0 1 1 1\n")
        assert g == full_grid(2, 2)

    def test_comments_and_blanks_skipped(self):
        g = parse_graph("# header\n\ngrid 2 2\n# e\nedge 0 0 1 0\n")
        assert len(g.edges) == 1

    def test_non_unit_edge_names_line(self):
        with pytest.raises(ParseError) as e:
            parse_graph("grid 3 1\nedge 0 0 2 0\n")
        assert e.value.line == 2

    def test_grid_without_columns_rejected(self):
        with pytest.raises(ParseError, match="^line 1: grid dimensions must be positive, got 0x3$"):
            parse_graph("grid 0 3\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("grid 2 2\nedge 0 0 1 0\nedge 1 0 0 0\n")

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_graph("grid 2 2\nedge 0 0 0 2\n")
        assert e.value.line == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("grid 2 2\nedge 0 0 1 0\nwhat is this\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("graph 2 2\n")

    @pytest.mark.parametrize("token", ["+2", "1_0", "\u0661", "\u00b2", "-", "--1"])
    def test_only_ascii_decimal_integers(self, token):
        with pytest.raises(ParseError) as e:
            parse_graph(f"grid {token} 2\n")
        assert e.value.line == 1
        with pytest.raises(ParseError) as e:
            parse_graph(f"grid 2 2\nedge 0 0 {token} 0\n")
        assert e.value.line == 2


SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))

# loop files and what parse_loop makes of them: the cells, or the error's
# type, message and line number
LOOP_FILE_CONTRACT = [
    # str.splitlines breaks: \r\n, form feed, line separator
    ("loop 4\r\n0 0\r\n1 0\r\n1 1\r\n0 1\r\n", SQUARE),
    ("loop 4\x0c0 0\x0c1 0\x0c1 1\x0c0 1", SQUARE),
    ("loop 4\u20280 0\u20281 0\u20281 1\u20280 1\u2028", SQUARE),
    ("loop 4\r\n0 0\r\n1 0\r\n1 x\r\n0 1\r\n",
     (ParseError, "line 4: expected an integer, got 'x'", 4)),
    ("loop 4\x0c0 0\x0c\x0c1 +1\x0c1 1\x0c0 1",
     (ParseError, "line 4: expected an integer, got '+1'", 4)),
    ("loop 4\u20280 0\u20281 0\u2028\u20281 1 1\u20280 1",
     (ParseError, "line 5: expected '<x> <y>', got '1 1 1'", 5)),
    # comments and blank lines between cell lines keep their line numbers
    ("loop 4\n0 0\n# a comment\n\n1 0\n   \n1 1\n  # indented comment\n0 1\n", SQUARE),
    ("loop 4\n0 0\n# a comment\n\n1 0\n1 q\n0 1\n",
     (ParseError, "line 6: expected an integer, got 'q'", 6)),
    # tabs, surrounding spaces and -0
    ("  loop\t4 \n\t0\t0 \n  1 0\n1   1\n-0 1\n", SQUARE),
    ("loop 4\n0 -0\n1 -0\n1 1\n0 1\n", SQUARE),
    # one field or three
    ("loop 4\n0 0\n1\n1 1\n0 1\n", (ParseError, "line 3: expected '<x> <y>', got '1'", 3)),
    ("loop 4\n0 0\n1 0 0\n1 1\n0 1\n",
     (ParseError, "line 3: expected '<x> <y>', got '1 0 0'", 3)),
    ("loop 4\n0 0\n1 0\n1 1\n0 1 2\n",
     (ParseError, "line 5: expected '<x> <y>', got '0 1 2'", 5)),
    # the first bad line is named, whichever check it fails
    ("loop 4\n0 0\n1 x\n1 1 1\n0 1\n", (ParseError, "line 3: expected an integer, got 'x'", 3)),
    ("loop 4\n0 0\n1 1 1\n1 x\n0 1\n",
     (ParseError, "line 3: expected '<x> <y>', got '1 1 1'", 3)),
    # integers that int() alone would take
    ("loop 4\n0 0\n+1 0\n1 1\n0 1\n", (ParseError, "line 3: expected an integer, got '+1'", 3)),
    ("loop 4\n0 0\n1_0 0\n1 1\n0 1\n",
     (ParseError, "line 3: expected an integer, got '1_0'", 3)),
    ("loop 4\n0 0\n\u0661 0\n1 1\n0 1\n",
     (ParseError, "line 3: expected an integer, got '\u0661'", 3)),
    ("loop 4 4\n", (ParseError, "line 1: expected 'loop <n>', got 'loop 4 4'", 1)),
    ("loop x\n", (ParseError, "line 1: expected an integer, got 'x'", 1)),
    # a count mismatch names the last cell line, or the header without one
    ("loop 4\n0 0\n1 0\n1 1\n", (ParseError, "line 4: expected 4 cell lines, got 3", 4)),
    ("loop 3\n0 0\n1 0\n1 1\n0 1\n", (ParseError, "line 5: expected 3 cell lines, got 4", 5)),
    ("# only\nloop 5\n0 0\n1 0\n1 1\n0 1\n# trailing\n",
     (ParseError, "line 6: expected 5 cell lines, got 4", 6)),
    ("loop 4\n", (ParseError, "line 1: expected 4 cell lines, got 0", 1)),
    ("loop -1\n", (ParseError, "line 1: expected -1 cell lines, got 0", 1)),
    ("", (ParseError, "empty loop file", None)),
    ("# nothing\n\n", (ParseError, "empty loop file", None)),
    # a revisit, a gap, a gap across the closing step, and too few cells
    ("loop 4\n0 0\n1 0\n0 0\n0 1\n", (MalformedLoopError, "loop revisits a cell", None)),
    ("loop 4\n0 0\n1 0\n1 2\n0 1\n",
     (MalformedLoopError, "cells (1, 0) and (1, 2) are not orthogonally adjacent", None)),
    ("loop 4\n0 0\n1 0\n1 1\n1 2\n",
     (MalformedLoopError, "cells (1, 2) and (0, 0) are not orthogonally adjacent", None)),
    ("loop 3\n0 0\n1 0\n0 1\n", (MalformedLoopError, "loop too short: 3 cells", None)),
]


class TestLoopFile:
    def test_roundtrip(self):
        loop = LoopPath(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert parse_loop(emit_loop(loop)) == loop

    def test_count_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_loop("loop 3\n0 0\n1 0\n")

    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0661"])
    def test_only_ascii_decimal_integers(self, token):
        with pytest.raises(ParseError) as e:
            parse_loop(f"loop 4\n0 0\n{token} 0\n1 1\n0 1\n")
        assert e.value.line == 3

    def test_repeated_cell_is_malformed(self):
        with pytest.raises(MalformedLoopError):
            parse_loop("loop 4\n0 0\n1 0\n0 0\n0 1\n")

    def test_gap_is_malformed(self):
        with pytest.raises(MalformedLoopError):
            parse_loop("loop 4\n0 0\n1 0\n1 2\n0 1\n")

    @pytest.mark.parametrize("text,expected", LOOP_FILE_CONTRACT)
    def test_contract_pinned(self, text, expected):
        # the cells read, or the error's type, message and line
        if isinstance(expected[0], tuple):
            assert parse_loop(text).cells == expected
            return
        kind, message, line = expected
        with pytest.raises(kind) as e:
            parse_loop(text)
        assert str(e.value) == message
        assert getattr(e.value, "line", None) == line


class TestLoopPath:
    def test_too_short(self):
        with pytest.raises(MalformedLoopError):
            LoopPath(((0, 0), (1, 0), (1, 1)))

    def test_canonical_invariance(self):
        loop = LoopPath(((1, 1), (0, 1), (0, 0), (1, 0)))
        rotated = LoopPath(((0, 0), (1, 0), (1, 1), (0, 1)))
        reversed_ = LoopPath(tuple(reversed(loop.cells)))
        assert loop.canonical() == rotated.canonical() == reversed_.canonical()

    @pytest.mark.parametrize("vertices, message", [
        (((0, 0), (0, 1), (1, 1), (0, 1)), "cycle repeats a vertex"),
        (((0, 0), (0, 1), (1, 1)), "a grid-graph cycle needs at least 4 vertices"),
    ], ids=["repeated", "three"])
    def test_ham_cycle_rejects_a_bad_sequence(self, vertices, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HamCycle(vertices)

    def test_ham_cycle_canonical(self):
        a = HamCycle(((0, 0), (0, 1), (1, 1), (1, 0)))
        b = HamCycle(((1, 1), (0, 1), (0, 0), (1, 0)))
        assert a.canonical() == b.canonical()


def labels(width, height, label=lambda c: "A"):
    """A label for every cell of a width x height board."""
    return {(x, y): label((x, y)) for x in range(width) for y in range(height)}


class TestRegions:
    def test_no_boundaries_single_region(self):
        r = regions_from_labels(2, 2, labels(2, 2))
        assert region_count(r) == 1
        assert r.leaves[0] == []

    def test_path_board_has_two_leaves(self):
        r = regions_from_labels(1, 3, labels(1, 3))
        assert region_count(r) == 1
        assert r.leaves[0] == [(0, 0), (0, 2)]

    def test_wall_splits_board(self):
        r = regions_from_labels(2, 3, labels(2, 3, lambda c: c[0]))
        assert region_count(r) == 2
        assert r.regions[r.region_at((0, 0))] == [(0, 0), (0, 1), (0, 2)]

    def test_none_labels_stay_on_the_board(self):
        # None is a label like any other: it must not match the cells past
        # the edge, which no label matches
        r = regions_from_labels(3, 2, labels(3, 2, lambda c: None))
        assert region_count(r) == 1
        assert r.regions[0] == sorted(labels(3, 2))
        assert r.ids == [0] * 6
        assert r.leaves[0] == []

    def test_equal_labels_apart_are_separate_regions(self):
        r = regions_from_labels(3, 1, labels(3, 1, lambda c: c[0] == 1))
        assert r.ids == [0, 1, 2]
        assert r.leaves == [[], [], []]
        assert r.neighbours == [0b010, 0b101, 0b010]

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 3), (3, 0)])
    @pytest.mark.parametrize("labels", [[], {}], ids=["list", "dict"])
    def test_an_empty_board_has_no_regions(self, width, height, labels):
        r = regions_from_labels(width, height, labels)
        assert (r.width, r.height, r.ids) == (width, height, [])
        assert r.regions == [] and r.leaves == []

    def test_labels_must_cover_the_board_exactly(self):
        with pytest.raises(ValueError):
            regions_from_labels(2, 2, labels(2, 1))
        with pytest.raises(ValueError):
            regions_from_labels(2, 2, labels(2, 3))
        # the right count, but a label off the board in place of one on it
        with pytest.raises(ValueError):
            regions_from_labels(1, 1, {(5, 5): "a"})
        with pytest.raises(ValueError):
            regions_from_labels(2, 1, {(0, 0): "a", (-1, 0): "a"})

    def test_sample_instance_region_sizes(self, aon_fixture):
        sizes = sorted(len(c) for c in aon_fixture.regions.regions)
        assert sizes == [1, 2, 4, 5, 5, 8]

    def test_idempotent_under_outer_border(self):
        b = boundary_edges([((1, 0), (1, 1))])
        with_border = boundary_edges([((1, 0), (1, 1))] + perimeter(3, 2))
        r1 = regions_from_boundaries(3, 2, b)
        r2 = regions_from_boundaries(3, 2, with_border)
        assert r1.regions == r2.regions

    def test_pair_order_does_not_change_regions(self):
        # the wall fill accepts a pair in either order; the gadget frame
        # with every wall stored reversed must decompose as with sorted pairs
        from loopforge.aon import FRAME

        sorted_b = frozenset(gadget_walls(0))
        assert all(a < b for a, b in sorted_b)
        reversed_b = frozenset((b, a) for a, b in sorted_b)
        r1 = regions_from_boundaries(FRAME, FRAME, sorted_b)
        r2 = regions_from_boundaries(FRAME, FRAME, reversed_b)
        assert region_count(r1) > 1
        assert r1 == r2 and r1.regions == r2.regions and r1.leaves == r2.leaves

    @given(st.data())
    def test_mixed_pair_order_does_not_change_regions(self, data):
        walls = sorted(data.draw(st.sets(st.sampled_from(WALLS_4X4), max_size=12)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(walls), max_size=len(walls)))
        mixed = frozenset((b, a) if flip else (a, b)
                          for (a, b), flip in zip(walls, flips))
        r1 = regions_from_boundaries(4, 4, boundary_edges(walls))
        r2 = regions_from_boundaries(4, 4, mixed)
        assert r1 == r2 and r1.regions == r2.regions and r1.leaves == r2.leaves

    def test_polyline_decomposition(self):
        pairs = polyline_to_boundary([(1, 0), (1, 2), (0, 2)])
        assert pairs == {
            ((0, 0), (1, 0)), ((0, 1), (1, 1)),  # vertical wall at x=1
            ((0, 1), (0, 2)),  # horizontal wall at y=2
        }


def assert_fills_agree(width, height, labels):
    """The run fill and the cell fill give the same decomposition: the
    same region ids in board order, and the same regions, leaves and
    touching pairs, the last in the same order."""
    got = regions_from_labels(width, height, labels)
    want = regions_from_labels_by_cells(width, height, labels)
    assert got.ids == want.ids
    assert got.regions == want.regions
    assert got.leaves == want.leaves
    assert list(got.touching.items()) == list(want.touching.items())


class TestRunFill:
    """``regions_from_labels`` fills runs of equal labels up each column;
    the cell fill it replaced is the oracle."""

    def test_random_boards(self):
        rng = random.Random("run-fill")
        for width in range(1, 13):
            for height in range(1, 13):
                for k in range(1, 7):
                    tokens = [rng.randrange(k) for _ in range(width * height)]
                    assert_fills_agree(width, height, tokens)

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 17), (17, 1), (1, 2), (2, 1)])
    def test_single_column_and_row(self, width, height):
        rng = random.Random(f"line/{width}x{height}")
        for k in range(1, 4):
            assert_fills_agree(width, height, [rng.randrange(k) for _ in range(width * height)])

    def test_none_labels(self):
        rng = random.Random("none")
        for width, height in ((3, 4), (7, 5), (9, 9)):
            tokens = [rng.choice([None, "a", "b"]) for _ in range(width * height)]
            assert_fills_agree(width, height, tokens)

    def test_dict_labels_in_any_order(self):
        rng = random.Random("dict")
        for width, height in ((1, 1), (4, 3), (6, 8)):
            cells = [(x, y) for x in range(width) for y in range(height)]
            rng.shuffle(cells)
            assert_fills_agree(width, height, {c: rng.randrange(3) for c in cells})

    @pytest.mark.parametrize("width,height,labels", [
        (2, 2, {(0, 0): "a"}),
        (1, 1, {(5, 5): "a"}),
        (2, 1, {(0, 0): "a", (-1, 0): "a"}),
        (2, 2, ["a"] * 5),
    ])
    def test_same_value_errors(self, width, height, labels):
        with pytest.raises(ValueError) as got:
            regions_from_labels(width, height, labels)
        with pytest.raises(ValueError) as want:
            regions_from_labels_by_cells(width, height, labels)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cols,rows", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_every_compiled_board(self, cols, rows):
        # an All or Nothing board's region names and a Water Walk board's
        # terrain, ground or not, each as labels
        for g in enumerate_candidate_subgraphs(cols, rows):
            plan = plan_for(g)
            inst = compile_aon(g, plan)
            names = list(map(inst.region_names.__getitem__, inst.regions.ids))
            assert_fills_agree(inst.width, inst.height, names)
            ww = compile_ww(g, plan)
            cells = product(range(ww.width), range(ww.height))
            assert_fills_agree(ww.width, ww.height, [c in ww.ground for c in cells])


class TestLoopRuns:
    def test_uniform_labels(self):
        loop = LoopPath(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert loop_runs(loop, lambda c: "x") == [("x", 4)]

    def test_alternating_labels(self):
        loop = LoopPath(((0, 0), (1, 0), (1, 1), (0, 1)))
        runs = loop_runs(loop, lambda c: (c[0] + c[1]) % 2)
        assert [length for _, length in runs] == [1, 1, 1, 1]

    def test_sample_solution_runs(self, ww_fixture, ww_fixture_loop):
        runs = loop_runs(ww_fixture_loop, ww_fixture.ground.__contains__)
        water = sorted(n for on_ground, n in runs if not on_ground)
        ground = sorted(n for on_ground, n in runs if on_ground)
        assert water == [1, 2, 2, 2]
        assert ground == [1, 1, 2, 3]

    @given(st.data())
    def test_runs_partition_the_loop(self, data):
        loop = LOOPS_3X3[data.draw(st.integers(0, len(LOOPS_3X3) - 1))]
        labels = data.draw(
            st.lists(st.integers(0, 2), min_size=9, max_size=9))
        grid = {(x, y): labels[3 * y + x] for x in range(3) for y in range(3)}
        runs = loop_runs(loop, grid.__getitem__)
        assert sum(n for _, n in runs) == len(loop)
        if len(runs) > 1:
            for (a, _), (b, _) in zip(runs, runs[1:] + runs[:1]):
                assert a != b


    def test_path_runs_end_at_the_path_ends(self):
        cells = ((0, 0), (1, 0), (1, 1), (0, 1))
        label = {(0, 0): "a", (1, 0): "b", (1, 1): "a", (0, 1): "a"}.__getitem__
        assert labelled_runs(cells, map(label, cells)) == [
            ("a", ((0, 0),)), ("b", ((1, 0),)), ("a", ((1, 1), (0, 1)))]
        assert labelled_runs(cells[:1], map(label, cells[:1])) == [("a", ((0, 0),))]
        assert labelled_runs((), ()) == []
        # closed into a loop, the first and last runs join, last
        assert labelled_runs(cells, map(label, cells), closed=True) == [
            ("b", ((1, 0),)), ("a", ((1, 1), (0, 1), (0, 0)))]

    @given(st.data())
    def test_each_cell_classified_once(self, data):
        loop = LOOPS_4X4[data.draw(st.integers(0, len(LOOPS_4X4) - 1))]
        labels = data.draw(
            st.lists(st.integers(0, 2), min_size=16, max_size=16))
        label = {(x, y): labels[4 * y + x] for x in range(4) for y in range(4)}
        calls = []

        def classify(c):
            calls.append(c)
            return label[c]

        runs = labelled_runs(loop.cells, map(classify, loop.cells), closed=True)
        assert len(calls) == len(loop)
        # the runs start at the loop's first label change
        cells = loop.cells
        k = next((i for i in range(len(cells)) if label[cells[i - 1]] != label[cells[i]]), 0)
        assert tuple(c for _, run in runs for c in run) == cells[k:] + cells[:k]


class TestBoundaryCrossings:
    def test_unknown_region_rejected(self):
        r = regions_from_labels(2, 2, labels(2, 2))
        loop = LoopPath(((0, 0), (1, 0), (1, 1), (0, 1)))
        with pytest.raises(ValueError):
            boundary_crossings(loop, r, 99)

    def test_off_board_cells_lie_in_no_region(self):
        # two columns, one region each: a cell at x = -1 or y = height must
        # not wrap round the board-order list onto another column's region
        r = regions_from_labels(2, 2, labels(2, 2, lambda c: c[0]))
        for cell in ((-1, 0), (-1, 1), (0, -1), (0, 2), (2, 0), (1, 2)):
            assert r.region_at(cell) is None
        assert [r.region_at(c) for c in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 0, 1, 1]
        around = LoopPath(((-1, 0), (0, 0), (1, 0), (1, 1), (1, 2), (0, 2), (-1, 2), (-1, 1)))
        assert crossings_by_region(around, r) == {0: 2, 1: 2}
        top = LoopPath(((0, 1), (0, 2), (1, 2), (1, 1)))
        assert crossings_by_region(top, r) == {0: 2, 1: 2}

    def test_loop_inside_region_crosses_zero(self):
        r = regions_from_labels(3, 3, labels(3, 3))
        loop = LoopPath(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert boundary_crossings(loop, r, 0) == 0

    def test_single_cell_region_crossed_twice(self, aon_fixture, aon_fixture_loop):
        decomp = aon_fixture.regions
        rid = decomp.region_at((2, 2))
        assert len(decomp.regions[rid]) == 1
        assert boundary_crossings(aon_fixture_loop, decomp, rid) == 2

    @given(st.data())
    def test_crossings_always_even(self, data):
        loop = LOOPS_4X4[data.draw(st.integers(0, len(LOOPS_4X4) - 1))]
        walls = data.draw(st.sets(st.sampled_from(WALLS_4X4), max_size=10))
        r = regions_from_boundaries(4, 4, boundary_edges(walls))
        for rid in range(region_count(r)):
            assert boundary_crossings(loop, r, rid) % 2 == 0

    @given(st.data())
    def test_one_pass_counts_match_per_region_counts(self, data):
        loop = LOOPS_4X4[data.draw(st.integers(0, len(LOOPS_4X4) - 1))]
        walls = data.draw(st.sets(st.sampled_from(WALLS_4X4), max_size=10))
        r = regions_from_boundaries(4, 4, boundary_edges(walls))
        counts = crossings_by_region(loop, r)
        assert set(counts) <= set(range(region_count(r)))
        n = len(loop.cells)
        for rid in range(region_count(r)):
            # the per-region definition: positions where inside flips
            flips = sum(1 for i in range(n)
                        if (r.region_at(loop.cells[i]) == rid)
                        != (r.region_at(loop.cells[(i + 1) % n]) == rid))
            assert counts.get(rid, 0) == boundary_crossings(loop, r, rid) == flips

    @given(st.data())
    def test_arc_count_matches_crossings(self, data):
        # one contiguous arc <=> 0 or 2 border crossings; k arcs <=> 2k
        # crossings unless the loop never leaves the region
        loop = LOOPS_4X4[data.draw(st.integers(0, len(LOOPS_4X4) - 1))]
        walls = data.draw(st.sets(st.sampled_from(WALLS_4X4), max_size=10))
        r = regions_from_boundaries(4, 4, boundary_edges(walls))
        for rid in range(region_count(r)):
            crossings = boundary_crossings(loop, r, rid)
            arcs = loop_arc_count(loop, r, rid)
            inside = sum(1 for c in loop.cells if r.region_at(c) == rid)
            if inside == len(loop):
                assert crossings == 0 and arcs == 1
            else:
                assert crossings == 2 * arcs
            assert (arcs <= 1) == (crossings in (0, 2))
