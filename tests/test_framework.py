import dataclasses
import random
import sys

import pytest

from loopforge import aon, waterwalk
from loopforge.framework import (
    DIRECTION_ORDER,
    ComplementGraph,
    Direction,
    build_complement,
    directions_between,
    emit_exit_plan,
    exit_plan,
    mutual_facing_holds,
    orient_complement,
    plan_for,
    rotate_cell,
    turns_between,
)
from loopforge.hamilton import enumerate_candidate_subgraphs, random_candidate_subgraph
from loopforge.model import board_cells, degree_profile, full_grid, grid_graph, regions_from_labels

from oracles import (
    aon_gadget_labels,
    aon_labels_by_offsets,
    orient_by_candidate_walks,
    plan_by_rule,
    rotate_corner,
    tiled_tokens,
    ww_gadget_terrain,
    ww_terrain_by_vertex,
)
from test_model import graph_3x4
from test_scaling import concentric_rings, serpentine


class TestDirections:
    def test_quarter_turn_cycle(self):
        assert Direction.N.rotated(1) is Direction.W
        assert Direction.W.rotated(1) is Direction.S
        assert Direction.S.rotated(1) is Direction.E
        assert Direction.E.rotated(1) is Direction.N

    def test_full_turn_identity(self):
        for d in Direction:
            assert d.rotated(4) is d

    def test_turns_between(self):
        assert turns_between(Direction.S, Direction.W) == 3
        assert turns_between(Direction.S, Direction.S) == 0

    def test_turns_between_maps_every_pair(self):
        for src in Direction:
            for dst in Direction:
                assert src.rotated(turns_between(src, dst)) is dst

    def test_opposite_is_a_half_turn(self):
        for d in Direction:
            assert d.opposite() is d.rotated(2)

    def test_direction_between_unit_offsets(self):
        us, vs = [(3, 3)] * 4, [(3, 4), (4, 3), (3, 2), (2, 3)]
        assert directions_between(us, vs) == [Direction.N, Direction.E, Direction.S, Direction.W]
        assert [Direction((x - 3, y - 3)) for x, y in vs] == directions_between(us, vs)

    def test_hashing_calls_no_python_function(self):
        # dicts and sets keyed by a side hash it in C, by identity, with
        # no call of a Python-level __hash__
        members = list(Direction)
        pairs = [(d, d.opposite()) for d in members]
        calls, profiler = [], sys.getprofile()
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
        try:
            table = dict.fromkeys(members)
            sides = set(map(frozenset, pairs))
        finally:
            sys.setprofile(profiler)
        assert calls == []
        assert list(table) == members
        assert sides == {frozenset({Direction.N, Direction.S}), frozenset({Direction.E, Direction.W})}

    @pytest.mark.parametrize("v", [(1, 1), (0, 0)])
    def test_direction_between_rejects_non_neighbours(self, v):
        # the tests name the side between two vertices by their step, and
        # a step that is no unit offset names none
        with pytest.raises(ValueError, match=rf"^\({v[0]}, {v[1]}\) is not a valid Direction$"):
            Direction(v)


class TestRotation:
    def test_cell_quarter_turn(self):
        assert rotate_cell(11, 1, (0, 5)) == (5, 0)

    def test_cell_half_turn(self):
        assert rotate_cell(5, 2, (2, 0)) == (2, 4)

    def test_corner_quarter_turn(self):
        assert rotate_corner(11, 1, (0, 4)) == (7, 0)

    def test_three_turns_equal_composition(self):
        for cell in [(0, 0), (3, 7), (10, 10), (5, 2)]:
            once = rotate_cell(11, 1, cell)
            twice = rotate_cell(11, 1, once)
            assert rotate_cell(11, 3, cell) == rotate_cell(11, 1, twice)

    def test_out_of_frame_rejected(self):
        with pytest.raises(ValueError):
            rotate_cell(5, 1, (5, 0))


def sides(mask):
    """The sides of a 4-bit side mask."""
    return {d for d in Direction if mask >> d.bit & 1}


def at(h, v):
    """The board-order index of vertex ``v`` of ``h``."""
    return v[0] * h.rows + v[1]


def internal_edges(h):
    """H's internal edges read from its masks, each from its end that
    reaches the other to the north or east."""
    return {(v, (v[0] + d.dx, v[1] + d.dy)) for v in board_cells(h.cols, h.rows)
            for d in sides(h.masks[at(h, v)] & ~h.halves[at(h, v)])
            if d in (Direction.N, Direction.E)}


class TestComplement:
    def test_interior_degree2_vertex_has_two_incidences(self):
        # 2x3 ring: middle vertices have degree 2 with one grid non-edge
        g = grid_graph(2, 3, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)),
                              ((0, 1), (0, 2)), ((1, 1), (1, 2)), ((0, 2), (1, 2))])
        h = build_complement(g)
        assert sides(h.masks[at(h, (0, 1))]) == {Direction.E, Direction.W}
        assert sides(h.halves[at(h, (0, 1))]) == {Direction.W}
        assert ((0, 1), (1, 1)) in internal_edges(h)

    def test_corner_degree2_has_two_half_edges(self):
        h = build_complement(full_grid(2, 2))
        assert internal_edges(h) == set()
        assert h.masks == h.halves
        assert sides(h.halves[at(h, (0, 0))]) == {Direction.S, Direction.W}

    def test_example_graph_internal_edges(self):
        h = build_complement(graph_3x4())
        assert internal_edges(h) == {
            ((0, 1), (1, 1)), ((0, 2), (1, 2)), ((1, 2), (1, 3)), ((2, 1), (2, 2)),
        }
        assert sum(len(sides(m)) for m in h.halves) == 14

    def test_incidence_count_is_four_minus_degree(self):
        g = graph_3x4()
        h = build_complement(g)
        deg = degree_profile(g)
        for v in g.vertices():
            assert len(sides(h.masks[at(h, v)])) == 4 - deg[v]

    def test_masks_are_the_missing_sides_and_halves_the_border_ones(self):
        for g in _small_and_random_graphs():
            h = build_complement(g)
            assert (h.cols, h.rows) == (g.cols, g.rows)
            assert h.masks == tuple(15 ^ m for m in g.side_masks)
            for v in g.vertices():
                off = {d for d in Direction if not g.in_bounds((v[0] + d.dx, v[1] + d.dy))}
                assert sides(h.halves[at(h, v)]) == off

    def test_degree_out_of_range_names_vertex(self):
        g = grid_graph(2, 2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1))])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            build_complement(g)


def assert_vertex_bounds(h, o):
    """Every out side of ``o`` is one of its vertex's incidences, and every
    vertex without one has a single incidence: each two-incidence vertex
    has an out side."""
    assert (o.cols, o.rows) == (h.cols, h.rows) and len(o.out) == len(h.masks)
    for v, m, k in zip(board_cells(h.cols, h.rows), h.masks, o.out):
        assert m >> k & 1 if k >= 0 else len(sides(m)) == 1, v


def assert_edges_oriented_once(h, o):
    """Every internal edge of H has exactly one end whose out side faces it."""
    for a, b in internal_edges(h):
        d = Direction((b[0] - a[0], b[1] - a[1]))
        assert (o.out[at(h, a)] == d.bit) + (o.out[at(h, b)] == d.opposite().bit) == 1, (a, b)


def lex_and_antilex():
    for g in _small_and_random_graphs():
        h = build_complement(g)
        yield h, orient_complement(h)
        yield h, orient_by_candidate_walks(h, "antilex")


class TestOrientation:
    def test_degree_bounds_hold(self):
        for h, o in lex_and_antilex():
            assert_vertex_bounds(h, o)

    def test_deterministic(self):
        g = graph_3x4()
        h = build_complement(g)
        assert orient_complement(h) == orient_complement(h)

    def test_seed_rules_differ_but_both_valid(self):
        g = graph_3x4()
        h = build_complement(g)
        lex = orient_complement(h)
        anti = orient_by_candidate_walks(h, "antilex")
        assert lex.out != anti.out
        for o in (lex, anti):
            assert_vertex_bounds(h, o)
            assert_edges_oriented_once(h, o)

    def test_every_incidence_oriented_exactly_once(self):
        # a half-edge is oriented by its vertex's out side, in or out
        for h, o in lex_and_antilex():
            assert_edges_oriented_once(h, o)

    def test_a_second_out_side_breaks_the_degree_bound(self):
        # a hand-built H whose ends disagree: (1, 0) has an incidence west,
        # which (0, 0), already out by its north half-edge, lacks
        h = ComplementGraph(2, 1, (1, 8), (1, 0))
        with pytest.raises(AssertionError, match=r"degree bound broken at \(0, 0\)$"):
            orient_complement(h)

    def test_path_component_walks_from_smaller_end(self):
        # the 2x3 ring's complement is one path: half-edge, (0,1), (1,1),
        # half-edge; the lex rule walks it from the smaller end
        ring = grid_graph(2, 3, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)),
                                 ((0, 1), (0, 2)), ((1, 1), (1, 2)), ((0, 2), (1, 2))])
        h = build_complement(ring)
        o, anti = orient_complement(h), orient_by_candidate_walks(h, "antilex")
        assert (o.out[at(h, (0, 1))], o.out[at(h, (1, 1))]) == (Direction.E.bit,) * 2
        assert (anti.out[at(h, (0, 1))], anti.out[at(h, (1, 1))]) == (Direction.W.bit,) * 2


def _small_and_random_graphs():
    for dims in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        yield from enumerate_candidate_subgraphs(*dims)
    rng = random.Random(88)
    for _ in range(6):
        yield random_candidate_subgraph(8, 8, rng)


def _oracle_graphs():
    yield from _small_and_random_graphs()
    for dims in [(2, 4), (2, 5)]:
        yield from enumerate_candidate_subgraphs(*dims)
    for n in (4, 6, 8, 12):
        yield concentric_rings(n)
    yield serpentine(16)[0]
    for seed in ("1/pipeline/16", "1/pipeline/16.1"):
        yield random_candidate_subgraph(16, 16, random.Random(seed))


@pytest.mark.parametrize("rule", ["lex"])
def test_orientation_matches_candidate_walks(rule):
    # the directly picked walk is the one the sort of every candidate walk
    # kept: the same out side at every vertex
    for g in _oracle_graphs():
        h = build_complement(g)
        assert orient_complement(h).out == orient_by_candidate_walks(h, rule).out


class TestExitPlan:
    def test_degree3_exits_forced(self):
        g = graph_3x4()
        plan = plan_for(g)
        assert plan.exits((1, 0)) == frozenset({Direction.W, Direction.E, Direction.N})
        assert plan.non_exits[(1, 0)] is Direction.S

    def test_every_vertex_has_three_exits(self):
        for g in enumerate_candidate_subgraphs(2, 3):
            plan = plan_for(g)
            for v in g.vertices():
                assert len(plan.exits(v)) == 3

    def test_degree2_third_exit_faces_the_out_side(self):
        for g in _small_and_random_graphs():
            o = orient_complement(build_complement(g))
            plan = exit_plan(g, o)
            for v, m, k in zip(g.vertices(), g.side_masks, o.out):
                want = sides(m) | {DIRECTION_ORDER[k]} if len(sides(m)) == 2 else sides(m)
                assert plan.exits(v) == want, v

    def test_orientation_of_another_board_is_refused(self):
        # as many vertices, the board turned a quarter
        g = graph_3x4()
        o = orient_complement(build_complement(random_candidate_subgraph(4, 3, random.Random(1))))
        with pytest.raises(AssertionError, match="orientation of another board"):
            exit_plan(g, o)

    def test_square_corner_exits(self):
        plan = plan_for(full_grid(2, 2))
        exits = plan.exits((0, 0))
        assert Direction.N in exits and Direction.E in exits
        assert plan.non_exits[(0, 0)] in (Direction.S, Direction.W)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_mutual_facing_on_all_candidates(self, dims):
        for g in enumerate_candidate_subgraphs(*dims):
            for rule in ("lex", "antilex"):
                assert mutual_facing_holds(g, plan_by_rule(g, rule))

    def test_mutual_facing_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(60):
            cols = rng.randint(2, 6)
            rows = rng.randint(2, 6)
            g = random_candidate_subgraph(cols, rows, rng)
            assert mutual_facing_holds(g, plan_for(g))

    def test_dump_format(self):
        plan = plan_for(full_grid(2, 2))
        dump = emit_exit_plan(plan)
        lines = dump.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            parts = line.split()
            assert parts[0] == "vertex" and parts[3] == "exits" and parts[5] == "rot"
            assert int(parts[6]) in (0, 90, 180, 270)


GADGETS = pytest.mark.parametrize("gadget", [aon.GADGET, waterwalk.GADGET], ids=["aon", "ww"])


class TestGadget:
    @GADGETS
    def test_exits_at_are_the_rotated_exit_cells(self, gadget):
        for turns in range(4):
            assert gadget.exits_at[turns] == {
                side.rotated(turns): rotate_cell(gadget.frame, turns, cell)
                for side, cell in gadget.exit_cells.items()}

    @GADGETS
    def test_a_cell_outside_the_frame_cannot_be_placed(self, gadget):
        n = gadget.frame
        with pytest.raises(ValueError, match=rf"^cell \({n}, 0\) outside {n}x{n} frame$"):
            gadget.place(1, [(0, 0), (n, 0)])

    @pytest.mark.parametrize("gadget, side, cell", [
        (aon.GADGET, Direction.W, (0, 4)),
        (waterwalk.GADGET, Direction.E, (4, 1)),
    ], ids=["aon", "ww"])
    def test_exit_moved_off_its_midline_fails_construction(self, gadget, side, cell):
        with pytest.raises(AssertionError, match="off midline"):
            dataclasses.replace(gadget, exit_cells={**gadget.exit_cells, side: cell})

    @GADGETS
    def test_traversal_starting_off_its_exits_fails_construction(self, gadget):
        for pair, (cells, *rest) in gadget.paths.items():
            with pytest.raises(AssertionError, match="starts off its exits"):
                dataclasses.replace(gadget, paths={**gadget.paths, pair: (cells[1:], *rest)})
            with pytest.raises(AssertionError, match="starts off its exits"):
                dataclasses.replace(gadget, paths={**gadget.paths, pair: (cells, cells[1:])})

    @GADGETS
    def test_pieces_orient_a_traversal_stored_either_way(self, gadget):
        reversed_paths = {pair: tuple(cells[::-1] for cells in found)
                          for pair, found in gadget.paths.items()}
        assert dataclasses.replace(gadget, paths=reversed_paths).pieces == gadget.pieces


def small_and_random_graphs():
    """Every 2x2/2x3/3x2/3x3 candidate under both seed rules, then 30
    seeded random candidates up to 8x8."""
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for g in enumerate_candidate_subgraphs(*dims):
            for rule in ("lex", "antilex"):
                yield g, rule
    rng = random.Random(5)
    for _ in range(30):
        g = random_candidate_subgraph(rng.randint(2, 8), rng.randint(2, 8), rng)
        yield g, "lex"


def laid_cells(gadget, tiling):
    """:func:`~oracles.tiled_tokens` of ``gadget`` and ``tiling``, after
    checking that each of ``gadget.boards`` holds one token per frame
    cell."""
    assert [len(board) for board in gadget.boards] == [gadget.frame ** 2] * 4
    return tiled_tokens(gadget, tiling)


def ww_terrain(triples):
    """Ground cells and clues of laid Water Walk cells."""
    ground = frozenset(cell for _, cell, tok in triples if tok != "~")
    return ground, {cell: int(tok) for _, cell, tok in triples if tok.isdigit()}


class TestTiler:
    """``Gadget.boards``, each metacell offset by hand, against each
    puzzle's own placement from before it, kept in ``tests/oracles.py``."""

    @pytest.mark.parametrize("turns", range(4))
    def test_lone_gadget(self, turns):
        laid = laid_cells(aon.GADGET, {(0, 0): turns})
        assert [(cell, tok) for _, cell, tok in laid] == sorted(aon_gadget_labels(turns))
        ground, numbers = ww_gadget_terrain(turns)
        laid = laid_cells(waterwalk.GADGET, {(0, 0): turns})
        assert ww_terrain(laid) == (frozenset(ground), numbers)

    def test_compiles(self):
        for g, rule in small_and_random_graphs():
            plan = plan_by_rule(g, rule)
            inst = aon.compile_aon(g, plan)
            tiling = aon.GADGET.tile(g, plan)
            labels = aon_labels_by_offsets(tiling)
            laid = laid_cells(aon.GADGET, tiling)
            assert {cell: (v, tok) if tok in "BD" else None for v, cell, tok in laid} == labels
            assert len(labels) == inst.width * inst.height
            assert inst.regions == regions_from_labels(inst.width, inst.height, labels)

            inst = waterwalk.compile_ww(g, plan)
            tiling = waterwalk.GADGET.tile(g, plan)
            ground, numbers = ww_terrain_by_vertex(tiling)
            laid = laid_cells(waterwalk.GADGET, tiling)
            assert len(laid) == inst.width * inst.height
            assert ww_terrain(laid) == (ground, numbers)
            assert (inst.ground, inst.numbers) == (ground, numbers)
