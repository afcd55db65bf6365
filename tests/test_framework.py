import dataclasses
import random
import sys

import pytest

from loopforge import aon, waterwalk
from loopforge.framework import (
    ComplementGraph,
    Direction,
    HalfEdge,
    Orientation,
    build_complement,
    direction_between,
    emit_exit_plan,
    mutual_facing_holds,
    orient_complement,
    plan_for,
    rotate_cell,
    turns_between,
)
from loopforge.hamilton import enumerate_candidate_subgraphs, random_candidate_subgraph
from loopforge.model import degree_profile, full_grid, grid_graph, regions_from_labels

from oracles import (
    aon_gadget_labels,
    aon_labels_by_offsets,
    incidences_by_scan,
    indegree_by_scan,
    orient_by_candidate_walks,
    outdegree_by_scan,
    outgoing_by_scan,
    plan_by_rule,
    rotate_corner,
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
        assert direction_between((3, 3), (3, 4)) is Direction.N
        assert direction_between((3, 3), (4, 3)) is Direction.E
        assert direction_between((3, 3), (3, 2)) is Direction.S
        assert direction_between((3, 3), (2, 3)) is Direction.W

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
        with pytest.raises(ValueError, match=rf"\(0, 0\) and \({v[0]}, {v[1]}\) are not grid-adjacent"):
            direction_between((0, 0), v)


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


class TestComplement:
    def test_interior_degree2_vertex_has_two_incidences(self):
        # 2x3 ring: middle vertices have degree 2 with one grid non-edge
        g = grid_graph(2, 3, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)),
                              ((0, 1), (0, 2)), ((1, 1), (1, 2)), ((0, 2), (1, 2))])
        h = build_complement(g)
        assert len(h.incidences((0, 1))) == 2
        assert ((0, 1), (1, 1)) in h.internal_edges

    def test_corner_degree2_has_two_half_edges(self):
        h = build_complement(full_grid(2, 2))
        assert h.internal_edges == frozenset()
        assert {he for he in h.half_edges if he.vertex == (0, 0)} == {
            HalfEdge((0, 0), Direction.S), HalfEdge((0, 0), Direction.W)}

    def test_example_graph_internal_edges(self):
        h = build_complement(graph_3x4())
        assert h.internal_edges == frozenset({
            ((0, 1), (1, 1)), ((0, 2), (1, 2)), ((1, 2), (1, 3)), ((2, 1), (2, 2)),
        })
        assert len(h.half_edges) == 14

    def test_incidence_count_is_four_minus_degree(self):
        g = graph_3x4()
        h = build_complement(g)
        deg = degree_profile(g)
        for v in g.vertices():
            assert len(h.incidences(v)) == 4 - deg[v]

    def test_degree_out_of_range_names_vertex(self):
        g = grid_graph(2, 2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1))])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            build_complement(g)


class TestOrientation:
    def test_degree_bounds_hold(self):
        for dims in [(2, 2), (2, 3), (3, 3)]:
            for g in enumerate_candidate_subgraphs(*dims):
                h = build_complement(g)
                o = orient_complement(h)
                for v in g.vertices():
                    assert o.indegree(v) <= 1 and o.outdegree(v) <= 1
                    if len(h.incidences(v)) == 2:
                        assert o.outdegree(v) == 1

    def test_deterministic(self):
        g = graph_3x4()
        h = build_complement(g)
        a = orient_complement(h)
        b = orient_complement(h)
        assert a.edge_heads == b.edge_heads and a.half_out == b.half_out

    def test_seed_rules_differ_but_both_valid(self):
        g = graph_3x4()
        h = build_complement(g)
        lex = orient_complement(h)
        anti = orient_by_candidate_walks(h, "antilex")
        assert lex.edge_heads != anti.edge_heads or lex.half_out != anti.half_out
        for o in (lex, anti):
            for v in g.vertices():
                assert o.indegree(v) <= 1 and o.outdegree(v) <= 1

    def test_every_incidence_oriented_exactly_once(self):
        for dims in [(2, 2), (2, 3), (3, 3)]:
            for g in enumerate_candidate_subgraphs(*dims):
                h = build_complement(g)
                o = orient_complement(h)
                assert set(o.edge_heads) == set(h.internal_edges)
                assert set(o.half_out) == set(h.half_edges)

    def test_path_component_walks_from_smaller_end(self):
        # the 2x3 ring's complement is one path: half-edge, (0,1), (1,1),
        # half-edge; the lex rule walks it from the smaller end
        ring = grid_graph(2, 3, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)),
                                 ((0, 1), (0, 2)), ((1, 1), (1, 2)), ((0, 2), (1, 2))])
        o = orient_complement(build_complement(ring))
        assert o.edge_heads[((0, 1), (1, 1))] == (1, 1)
        anti = orient_by_candidate_walks(build_complement(ring), "antilex")
        assert anti.edge_heads[((0, 1), (1, 1))] == (0, 1)


def _small_and_random_graphs():
    for dims in [(2, 2), (2, 3), (3, 3)]:
        yield from enumerate_candidate_subgraphs(*dims)
    rng = random.Random(88)
    for _ in range(6):
        yield random_candidate_subgraph(8, 8, rng)


def _oracle_graphs():
    yield from _small_and_random_graphs()
    for dims in [(3, 2), (2, 4), (2, 5)]:
        yield from enumerate_candidate_subgraphs(*dims)
    for n in (4, 6, 8, 12):
        yield concentric_rings(n)
    yield serpentine(16)[0]
    for seed in ("1/pipeline/16", "1/pipeline/16.1"):
        yield random_candidate_subgraph(16, 16, random.Random(seed))


@pytest.mark.parametrize("rule", ["lex"])
def test_orientation_matches_candidate_walks(rule):
    # the directly picked walk is the one the sort of every candidate walk
    # kept, arcs inserted in the same order
    for g in _oracle_graphs():
        h = build_complement(g)
        got, want = orient_complement(h), orient_by_candidate_walks(h, rule)
        assert list(got.edge_heads.items()) == list(want.edge_heads.items())
        assert list(got.half_out.items()) == list(want.half_out.items())


class TestIndexesMatchScans:
    """The per-vertex indexes answer exactly what a scan over every H edge
    answers, including the direction ``outgoing`` picks first."""

    def test_incidences(self):
        for g in _small_and_random_graphs():
            h = build_complement(g)
            for v in g.vertices():
                assert h.incidences(v) == incidences_by_scan(h, v)
            for v in ((-1, 0), (g.cols, 0), (0, -1), (0, g.rows)):
                assert h.incidences(v) == incidences_by_scan(h, v) == []

    @pytest.mark.parametrize("rule", ["lex", "antilex"])
    def test_orientation_queries(self, rule):
        for g in _small_and_random_graphs():
            h = build_complement(g)
            o = orient_complement(h) if rule == "lex" else orient_by_candidate_walks(h, rule)
            for v in g.vertices():
                assert o.outgoing(v) == outgoing_by_scan(o, v)
                assert o.indegree(v) == indegree_by_scan(o, v)
                assert o.outdegree(v) == outdegree_by_scan(o, v)

    def test_hand_built_complement_reads_its_own_edges(self):
        # the incidence masks come from H's edges, stored either way round,
        # and not from the graph it was built from
        for g in _small_and_random_graphs():
            h = build_complement(g)
            reversed_edges = frozenset((b, a) for a, b in h.internal_edges)
            flipped = ComplementGraph(h.cols, h.rows, reversed_edges, h.half_edges)
            for v in g.vertices():
                assert flipped.incidences(v) == incidences_by_scan(flipped, v)
            got, want = orient_complement(flipped), orient_complement(h)
            assert list(got.edge_heads.items()) == list(want.edge_heads.items())
            assert list(got.half_out.items()) == list(want.half_out.items())

    def test_outgoing_takes_first_edge_arc_before_half_edges(self):
        # a hand-built orientation where (1, 0) has two outgoing arcs: the
        # edge arc listed first in edge_heads wins, and any edge arc beats
        # an outgoing half-edge
        o = Orientation({((0, 0), (1, 0)): (1, 0), ((1, 0), (2, 0)): (2, 0),
                         ((1, 0), (1, 1)): (1, 1)},
                        {HalfEdge((1, 0), Direction.S): True})
        assert o.outgoing((1, 0)) == outgoing_by_scan(o, (1, 0)) == Direction.E
        assert o.outdegree((1, 0)) == 3 and o.indegree((1, 0)) == 1


class TestExitPlan:
    def test_degree3_exits_forced(self):
        g = graph_3x4()
        plan = plan_for(g)
        assert plan.exits((1, 0)) == frozenset({Direction.W, Direction.E, Direction.N})
        assert plan.non_exit((1, 0)) is Direction.S

    def test_every_vertex_has_three_exits(self):
        for g in enumerate_candidate_subgraphs(2, 3):
            plan = plan_for(g)
            for v in g.vertices():
                assert len(plan.exits(v)) == 3

    def test_square_corner_exits(self):
        plan = plan_for(full_grid(2, 2))
        exits = plan.exits((0, 0))
        assert Direction.N in exits and Direction.E in exits
        assert plan.non_exit((0, 0)) in (Direction.S, Direction.W)

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


class TestGadget:
    @pytest.mark.parametrize("gadget", [aon.GADGET, waterwalk.GADGET], ids=["aon", "ww"])
    def test_board_exit_is_the_exit_cell_offset_into_the_metacell(self, gadget):
        for v in ((0, 0), (2, 1), (1, 3)):
            for turns in range(4):
                for side in Direction:
                    if side is gadget.non_exit.rotated(turns):
                        continue
                    canonical = gadget.exit_cells[side.rotated(-turns)]
                    ex, ey = rotate_cell(gadget.frame, turns, canonical)
                    assert gadget.board_exit(v, turns, side) == \
                        (gadget.frame * v[0] + ex, gadget.frame * v[1] + ey)

    @pytest.mark.parametrize("gadget", [aon.GADGET, waterwalk.GADGET], ids=["aon", "ww"])
    def test_a_cell_outside_the_frame_cannot_be_placed(self, gadget):
        n = gadget.frame
        with pytest.raises(ValueError, match=rf"^cell \({n}, 0\) outside {n}x{n} frame$"):
            gadget.place((0, 0), 1, [(0, 0), (n, 0)])

    @pytest.mark.parametrize("gadget, side, cell", [
        (aon.GADGET, Direction.W, (0, 4)),
        (waterwalk.GADGET, Direction.E, (4, 1)),
    ], ids=["aon", "ww"])
    def test_exit_moved_off_its_midline_fails_construction(self, gadget, side, cell):
        with pytest.raises(AssertionError, match="off midline"):
            dataclasses.replace(gadget, exit_cells={**gadget.exit_cells, side: cell})


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
    """``gadget.lay(tiling)`` as (vertex, cell, token) triples, after
    checking that it lays each vertex once, in ``tiling``'s order, on a
    frame's worth of distinct cells."""
    laid = list(gadget.lay(tiling))
    assert [v for v, _, _ in laid] == list(tiling)
    assert all(len(cells) == len(tokens) for _, cells, tokens in laid)
    triples = [(v, cell, tok) for v, cells, tokens in laid for cell, tok in zip(cells, tokens)]
    assert len({cell for _, cell, _ in triples}) == len(triples) == gadget.frame ** 2 * len(tiling)
    return triples


def ww_terrain(triples):
    """Ground cells and clues of laid Water Walk cells."""
    ground = frozenset(cell for _, cell, tok in triples if tok != "~")
    return ground, {cell: int(tok) for _, cell, tok in triples if tok.isdigit()}


class TestTiler:
    """``Gadget.lay`` against each puzzle's own placement from before it,
    kept in ``tests/oracles.py``."""

    @pytest.mark.parametrize("turns", range(4))
    def test_lone_gadget(self, turns):
        laid = laid_cells(aon.GADGET, {(0, 0): turns})
        assert [(cell, tok) for _, cell, tok in laid] == list(aon_gadget_labels(turns))
        ground, numbers = ww_gadget_terrain((0, 0), turns)
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
