import dataclasses
import hashlib
import random
from functools import lru_cache, partial
from unittest import mock

import pytest

from loopforge import aon, regionsearch
from loopforge.errors import CompileError, MalformedLoopError, ParseError, SearchBudgetExceeded
from loopforge.framework import Direction, emit_exit_plan, plan_for, rotate_cell
from loopforge.hamilton import enumerate_candidate_subgraphs, random_candidate_subgraph
from loopforge.loopsearch import SearchResult, _Nodes
from loopforge.model import LoopPath, are_orthogonal, board_cells, full_grid, regions_from_labels
from loopforge.regionsearch import RegionCycles
from loopforge.aon import (
    FIXED_LEAF_CELLS,
    FRAME,
    GADGET,
    GADGET_EXIT_CELLS,
    GADGET_PATHS,
    GADGET_ROWS,
    ONE_CELL_REGION_CELL,
    RIM_LEAF_CELLS,
    AonInstance,
    DeadRegionReport,
    analyze_dead_regions,
    board_text,
    compile_aon,
    emit_aon,
    gadget_board,
    parse_aon,
    region_token,
    solve_aon,
    verify_aon,
)

import oracles
from oracles import (
    all_loops_on_board,
    analyze_dead_regions_by_scan,
    anchored_search_loops,
    big_region_ids,
    blocks,
    boundary_edges,
    check_against_anchored,
    check_against_full_fill,
    check_against_unsplit,
    check_budgeted_against_full_fill,
    compiled_walls,
    gadget_walls,
    region_count,
    regions_from_boundaries,
    solve_aon_by_cells,
    solve_aon_by_scan,
    verify_aon_by_scan,
)
from test_scaling import serpentine

# solver-vs-brute-force count on the worked 5x5 instance, frozen from the
# unpruned loop enumerator over all 9349 loops of the board
SAMPLE_SOLUTION_COUNT = 2

# which frame side each rim marker cell sits on, canonical orientation
RIM_MARKER_SIDES = {
    (0, 6): Direction.W, (0, 3): Direction.W,
    (10, 4): Direction.E, (10, 7): Direction.E,
    (6, 10): Direction.N, (3, 10): Direction.N,
}

NESTED_INSTANCE = """aon 7 5
T T T T T T T
T S S S S S T
T S S R S S T
T S S S S S T
T T T T T T T
"""


def loop(*cells):
    return LoopPath(tuple(cells))


def random_wall_boards():
    """Seeded 4x4 boards with 0-10 random walls, skipping those with a
    region dead by enclosure: leaf-rich deadness holds on any board, so the
    solver's pruning is complete on the rest (enclosure needs the
    tiled-instance context)."""
    from loopforge.aon import AonInstance, region_token

    rng = random.Random(13)
    wall_pool = ([((x, y), (x + 1, y)) for x in range(3) for y in range(4)]
                 + [((x, y), (x, y + 1)) for x in range(4) for y in range(3)])
    for _ in range(40):
        walls = rng.sample(wall_pool, rng.randint(0, 10))
        b = boundary_edges(walls)
        decomp = regions_from_boundaries(4, 4, b)
        names = tuple(map(region_token, range(region_count(decomp))))
        inst = AonInstance(4, 4, decomp, names)
        if not analyze_dead_regions(inst).enclosing:
            yield inst


def gadget_regions():
    """The canonical gadget board's decomposition, its big region (the W
    exit's), its one-cell region and its filler parts (the other regions)."""
    decomp = gadget_board(0).regions
    big_id = decomp.region_at(GADGET_EXIT_CELLS[Direction.W])
    one_id = decomp.region_at(ONE_CELL_REGION_CELL)
    parts = [cells for rid, cells in enumerate(decomp.regions) if rid not in (big_id, one_id)]
    return decomp, decomp.regions[big_id], decomp.regions[one_id], parts


class TestGadgetGeometry:
    def test_part_sizes(self):
        _, big, one_cell, parts = gadget_regions()
        assert len(big) == 71
        assert one_cell == [ONE_CELL_REGION_CELL]
        assert sorted(len(p) for p in parts) == [9, 9, 31]

    def test_each_part_has_exactly_its_three_marker_leaves(self):
        decomp, _, _, parts = gadget_regions()
        markers = set(FIXED_LEAF_CELLS) | set(RIM_LEAF_CELLS)
        for part in parts:
            rid = decomp.region_at(min(part))
            leaves = decomp.leaves[rid]
            assert len(leaves) == 3
            assert set(leaves) <= markers

    def test_exit_cells_on_midlines_of_their_sides(self):
        assert GADGET_EXIT_CELLS[Direction.W] == (0, 5)
        assert GADGET_EXIT_CELLS[Direction.E] == (10, 5)
        assert GADGET_EXIT_CELLS[Direction.N] == (5, 10)
        for cell in GADGET_EXIT_CELLS.values():
            assert cell in gadget_regions()[1]

    def test_local_paths_cover_big_region_exactly(self):
        big = gadget_regions()[1]
        for pair, paths in GADGET_PATHS.items():
            for path in paths:
                assert len(path) == len(set(path)) == 71
                assert set(path) == set(big)
                ends = {path[0], path[-1]}
                assert ends == {GADGET_EXIT_CELLS[d] for d in pair}

    def test_local_paths_pass_single_gadget_rules(self, aon_certificate):
        # each stored traversal is among the exhaustively enumerated ones
        for pair, paths in GADGET_PATHS.items():
            enumerated = {p for p in aon_certificate.traversals[pair]}
            enumerated |= {tuple(reversed(p)) for p in aon_certificate.traversals[pair]}
            for path in paths:
                assert path in enumerated


class TestInstanceFile:
    def test_sample_roundtrip(self, aon_fixture, data_dir):
        assert emit_aon(aon_fixture) == (data_dir / "sample_aon.txt").read_text()

    def test_disconnected_token_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_aon("aon 3 1\nA B A\n")
        assert e.value.line is None

    def test_non_alnum_token_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_aon("aon 2 1\nA !\n")
        assert e.value.line == 2
        # comment and blank lines count towards the reported line
        with pytest.raises(ParseError) as e:
            parse_aon("aon 2 2\n# top\nA A\n\nA B-1\n")
        assert e.value.line == 5

    def test_token_count_mismatch_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_aon("aon 3 1\nA B\n")
        assert e.value.line == 2
        with pytest.raises(ParseError) as e:
            parse_aon("aon 2 2\nA A\n# gap\nA B C\n")
        assert e.value.line == 4

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_aon("aon 2 2\nA A\n")
        assert e.value.line is None

    def test_marked_rows_keep_the_longest_id_padding(self):
        # "#" covers the only two-letter id and stays padded to its width;
        # marks off the board are ignored
        inst = parse_aon("aon 2 2\nAA B\nC D\n")
        assert board_text(inst) == "AA B\nC  D\n"
        assert board_text(inst, frozenset({(0, 1), (1, 2), (0, -1)})) == "#  B\nC  D\n"

    @pytest.mark.parametrize("text, message", [
        ("", "empty instance file"),
        ("aon 2\nA A\n", "line 1: expected 'aon <width> <height>', got 'aon 2'"),
        ("aon 2 2\nA A\n", "expected 2 rows, got 1"),
        ("aon 2 2\nA A\n# gap\nA B C\n", "line 4: row has 3 tokens, expected 2"),
        ("aon 2 2\n# top\nA A\n\nA B-1\n", "line 5: region id 'B-1' is not alphanumeric"),
        ("aon 3 1\nA B A\n", "region id 'A' names a disconnected cell set"),
    ])
    def test_parse_error_messages_pinned(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_aon(text)
        assert str(e.value) == message


class TestVerify:
    def test_sample_solution_accepted(self, aon_fixture, aon_fixture_loop):
        assert verify_aon(aon_fixture, aon_fixture_loop).ok

    def test_truncated_loop_is_malformed(self, aon_fixture, aon_fixture_loop):
        with pytest.raises(MalformedLoopError):
            LoopPath(aon_fixture_loop.cells[:-1])

    def test_off_board_loop_is_malformed(self, aon_fixture):
        with pytest.raises(MalformedLoopError):
            verify_aon(aon_fixture, loop((4, 4), (5, 4), (5, 5), (4, 5)))

    # at least three negatives per rule, tagged with that rule

    @pytest.mark.parametrize("cells", [
        ((0, 0), (1, 0), (1, 1), (0, 1)),      # region A partly visited
        ((3, 0), (4, 0), (4, 1), (3, 1)),      # region B partly visited
        ((1, 3), (2, 3), (2, 4), (1, 4)),      # region D partly visited
    ])
    def test_rule1_negatives(self, aon_fixture, cells):
        verdict = verify_aon(aon_fixture, loop(*cells))
        assert not verdict.ok and 1 in verdict.rules_broken()

    @pytest.mark.parametrize("cells", [
        # weaves crossing one region's border four times
        ((1, 1), (2, 1), (2, 0), (3, 0), (4, 0), (4, 1), (3, 1), (3, 2),
         (2, 2), (1, 2)),
        ((1, 3), (2, 3), (2, 2), (3, 2), (4, 2), (4, 3), (3, 3), (3, 4),
         (2, 4), (1, 4)),
        ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 1), (4, 1), (4, 0),
         (3, 0), (2, 0)),
    ])
    def test_rule2_negatives(self, aon_fixture, cells):
        verdict = verify_aon(aon_fixture, loop(*cells))
        assert not verdict.ok and 2 in verdict.rules_broken()

    @pytest.mark.parametrize("cells", [
        # bottom two rows: A and B complete, C/E and friends left adjacent
        ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (3, 1), (2, 1),
         (1, 1), (0, 1)),
        ((2, 2), (2, 3), (3, 3), (3, 2)),
        ((0, 2), (1, 2), (1, 3), (0, 3)),
    ])
    def test_rule3_negatives(self, aon_fixture, cells):
        verdict = verify_aon(aon_fixture, loop(*cells))
        assert not verdict.ok and 3 in verdict.rules_broken()

    def test_rule3_negative_is_pure(self, aon_fixture):
        cells = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (3, 1), (2, 1),
                 (1, 1), (0, 1))
        assert verify_aon(aon_fixture, loop(*cells)).rules_broken() == {3}

    def test_visiting_nested_one_cell_region_overdraws_host(self):
        # passing through the enclosed cell costs the host region four
        # crossings: two of its own plus two around the nested cell
        inst = parse_aon(NESTED_INSTANCE)
        cells = ((3, 2), (3, 1), (4, 1), (4, 0), (5, 0), (5, 1), (5, 2), (4, 2))
        verdict = verify_aon(inst, loop(*cells))
        assert 2 in verdict.rules_broken()
        host = inst.region_names[inst.regions.region_at((3, 1))]
        assert any(v.rule == 2 and host in v.message for v in verdict.violations)


# sha256 of the exit-plan dump and of the compiled board file for
# random_candidate_subgraph(6, 6, random.Random(7)), per seed rule; any
# moved wall, region id or exit changes them
PINNED_6X6_DIGESTS = {
    "lex": ("4b732e6d7b5959572700a88225a88b9ef68148486558bddc2eb7d7d509848d70",
            "9d506d563fb74e40a3f13a3aeb6cf62282e6083e3fe9bd2a0f94132bfa7338e8"),
    "antilex": ("4272e5fad41837930158aac08297a7e2799285008b15c66429f6d1267e3f1a5c",
                "23ffd46eb121242221f59aa0958367e7d6c958ad41c75643fab6c331138c5c9e"),
}


class TestCompile:
    @pytest.mark.parametrize("rule", sorted(PINNED_6X6_DIGESTS))
    def test_output_pinned_byte_for_byte(self, rule):
        g = random_candidate_subgraph(6, 6, random.Random(7))
        plan = plan_for(g, rule)

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        assert (digest(emit_exit_plan(plan)), digest(emit_aon(compile_aon(g, plan)))) \
            == PINNED_6X6_DIGESTS[rule]

    def test_square_board_counts(self):
        g = full_grid(2, 2)
        plan = plan_for(g)
        inst = compile_aon(g, plan)
        assert (inst.width, inst.height) == (22, 22)
        assert len(inst.regions.ids) == 484
        assert len(big_region_ids(inst, GADGET.tile(g, plan))) == 4
        one_cells = [rid for rid, cells in enumerate(inst.regions.regions)
                     if len(cells) == 1]
        assert len(one_cells) == 4

    def test_region_count_matches_flood_fill_over_emitted_file(self):
        # independent recount: group the serialized tokens by adjacency
        g = full_grid(2, 2)
        inst = compile_aon(g, plan_for(g))
        text = emit_aon(inst)
        lines = text.strip().splitlines()[1:]
        rows = [line.split() for line in lines]
        height = len(rows)
        grid = {(x, height - 1 - k): tok
                for k, row in enumerate(rows) for x, tok in enumerate(row)}
        seen = set()
        count = 0
        for cell in sorted(grid):
            if cell in seen:
                continue
            count += 1
            stack = [cell]
            seen.add(cell)
            while stack:
                x, y = stack.pop()
                for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if n in grid and n not in seen and grid[n] == grid[(x, y)]:
                        seen.add(n)
                        stack.append(n)
        assert count == region_count(inst.regions)

    def test_emit_parse_preserves_regions(self):
        g = full_grid(2, 2)
        inst = compile_aon(g, plan_for(g))
        back = parse_aon(emit_aon(inst))
        assert region_count(back.regions) == region_count(inst.regions)
        for rid, cells in enumerate(inst.regions.regions):
            assert back.regions.regions[rid] == cells

    def test_plan_graph_mismatch_rejected(self):
        g, other = full_grid(2, 2), full_grid(2, 3)
        with pytest.raises(CompileError):
            compile_aon(other, plan_for(g))

    def test_fragmented_big_region_rejected(self, monkeypatch):
        # a big cell in the top right corner, walled off by filler
        rows = GADGET_ROWS.splitlines()
        rows[0] = rows[0][:-1] + "B"
        split = dataclasses.replace(GADGET, rows="\n".join(rows) + "\n")
        monkeypatch.setattr(aon, "GADGET", split)
        g = full_grid(2, 2)
        with pytest.raises(CompileError, match=r"big region of metacell \(0, 0\) is fragmented"):
            compile_aon(g, plan_for(g))

    @pytest.mark.parametrize("source, rule", [
        ("serpentine8", "lex"), ("serpentine16", "lex"),
        ("16x16/1", "lex"), ("16x16/1", "antilex"), ("16x16/2", "lex"), ("16x16/2", "antilex")])
    def test_composed_regions_match_the_label_fill(self, source, rule):
        if source.startswith("serpentine"):
            g, _ = serpentine(int(source[len("serpentine"):]))
        else:
            g = random_candidate_subgraph(16, 16, random.Random(source))
        plan = plan_for(g, rule)
        assert_compile_matches_labels(compile_aon(g, plan), GADGET.tile(g, plan))

    def test_replaced_gadget_is_decomposed_afresh(self, monkeypatch):
        g = full_grid(2, 3)
        plan = plan_for(g)
        before = compile_aon(g, plan)  # decomposes the gadget's rotations
        # the one-cell region joins the big one
        monkeypatch.setattr(aon, "GADGET", dataclasses.replace(
            GADGET, rows=GADGET_ROWS.replace("D", "B")))
        inst = compile_aon(g, plan)
        assert region_count(inst.regions) == region_count(before.regions) - 6
        assert_compile_matches_labels(inst, GADGET.tile(g, plan))

    def test_filler_parts_touching_in_the_frame_merge(self, monkeypatch):
        # the corner cell of the top right part written as a part of its
        # own: all filler cells share one label, so nothing changes
        rows = GADGET_ROWS.splitlines()
        rows[0] = rows[0][:-1] + "F"
        g = random_candidate_subgraph(4, 3, random.Random(3))
        plan = plan_for(g)
        before = compile_aon(g, plan)
        monkeypatch.setattr(aon, "GADGET", dataclasses.replace(GADGET, rows="\n".join(rows) + "\n"))
        inst = compile_aon(g, plan)
        assert_same_regions(inst.regions, before.regions)
        assert_compile_matches_labels(inst, GADGET.tile(g, plan))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_no_two_dead_regions_adjacent(self, dims):
        for g in enumerate_candidate_subgraphs(*dims):
            for rule in ("lex", "antilex"):
                inst = compile_aon(g, plan_for(g, rule))
                report = analyze_dead_regions(inst)
                dead = report.dead_ids()
                region_at = inst.regions.region_at
                for x, y in board_cells(inst.width, inst.height):
                    rid = region_at((x, y))
                    for n in ((x + 1, y), (x, y + 1)):
                        other = region_at(n)
                        if other is None or other == rid:
                            continue
                        assert not (rid in dead and other in dead)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_no_wall_between_same_region_cells(self, dims):
        # guarantees the region-id file format loses nothing on emit/parse
        for g in enumerate_candidate_subgraphs(*dims):
            plan = plan_for(g)
            inst = compile_aon(g, plan)
            for a, b in compiled_walls(GADGET.tile(g, plan)):
                ra, rb = inst.regions.region_at(a), inst.regions.region_at(b)
                if ra is not None and rb is not None:
                    assert ra != rb

    def test_marker_cells_in_tiled_instances(self):
        # rim markers stay leaves when walled (outer border or a facing
        # stub) and otherwise join a neighboring metacell's filler part;
        # fixed markers are always leaves
        for g in enumerate_candidate_subgraphs(2, 3):
            plan = plan_for(g)
            inst = compile_aon(g, plan)
            decomp = inst.regions
            tiling = GADGET.tile(g, plan)
            filler = _filler_cells(inst, tiling)
            walls = frozenset(compiled_walls(tiling))
            for v in g.vertices():
                turns = tiling[v]
                ox, oy = FRAME * v[0], FRAME * v[1]

                def place(c):
                    rx, ry = rotate_cell(FRAME, turns, c)
                    return (ox + rx, oy + ry)

                for marker in FIXED_LEAF_CELLS:
                    cell = place(marker)
                    rid = decomp.region_at(cell)
                    assert cell in decomp.leaves[rid]
                for marker, side in RIM_MARKER_SIDES.items():
                    cell = place(marker)
                    out = side.rotated(turns)
                    across = (cell[0] + out.dx, cell[1] + out.dy)
                    rid = decomp.region_at(cell)
                    off_board = decomp.region_at(across) is None
                    walled = (not off_board) and blocks(walls, cell, across)
                    if off_board or walled:
                        assert cell in decomp.leaves[rid]
                    else:
                        assert across in filler
                        assert decomp.region_at(across) == rid


def _filler_cells(inst, tiling):
    big = set()
    for rid in big_region_ids(inst, tiling):
        big.update(inst.regions.regions[rid])
    one_cells = {cells[0] for cells in inst.regions.regions if len(cells) == 1}
    return {c for c in board_cells(inst.width, inst.height)
            if c not in big and c not in one_cells}


def assert_same_regions(labelled, walled):
    """The region-label decomposition ``labelled`` equals the wall fill's
    ``walled``: ids, cell order, regions, leaves and touching pairs."""
    assert labelled.ids == walled.ids
    assert labelled.regions == walled.regions
    assert labelled.leaves == walled.leaves
    assert list(labelled.touching.items()) == list(walled.touching.items())


def assert_compile_matches_labels(inst, tiling):
    """``inst``, compiled with ``tiling``, decomposes as
    :func:`regions_from_labels` does over the labels of the gadget
    ``aon.GADGET`` lays: its own label on each metacell's big and one-cell
    cells, one label on every filler cell.  Each metacell's W exit cell
    lies in its big cells' region."""
    labels = {cell: (v, tok) if tok in ("B", "D") else None
              for v, cells, tokens in aon.GADGET.lay(tiling)
              for cell, tok in zip(cells, tokens)}
    filled = regions_from_labels(inst.width, inst.height, labels)
    assert_same_regions(inst.regions, filled)
    assert region_count(inst.regions) == region_count(filled)
    assert big_region_ids(inst, tiling) == {filled.region_at(c) for c, lab in labels.items()
                                            if lab and lab[1] == "B"}


def assert_compile_matches_walls(g, plan):
    """The compile of ``g`` under ``plan`` and its emit-parse round trip
    decompose as the wall fill over its metacells' gadget walls does."""
    inst = compile_aon(g, plan)
    walled = regions_from_boundaries(inst.width, inst.height,
                                     compiled_walls(GADGET.tile(g, plan)))
    assert_same_regions(inst.regions, walled)
    assert_same_regions(parse_aon(emit_aon(inst)).regions, walled)


class TestWallOracle:
    """Region labels against the gadget's independent transcription as
    wall polylines (``oracles.GADGET_POLYLINES``) and the wall fill."""

    def test_gadget_rows_print_the_gadget_board(self):
        assert GADGET_ROWS == board_text(gadget_board(0))

    @pytest.mark.parametrize("turns", range(4))
    def test_gadget_board_matches_walls(self, turns):
        walled = regions_from_boundaries(FRAME, FRAME, gadget_walls(turns))
        assert_same_regions(gadget_board(turns).regions, walled)

    @pytest.mark.parametrize("turns", range(4))
    def test_no_wall_inside_a_region_and_no_filler_parts_touch(self, turns):
        decomp = gadget_board(turns).regions
        walls = gadget_walls(turns)
        assert len(walls) == 58
        for a, b in walls:
            ra, rb = decomp.region_at(a), decomp.region_at(b)
            if ra is not None and rb is not None:
                assert ra != rb
        big = decomp.region_at(GADGET.place((0, 0), turns, [GADGET_EXIT_CELLS[Direction.W]])[0])
        one = decomp.region_at(GADGET.place((0, 0), turns, [ONE_CELL_REGION_CELL])[0])
        for pair in decomp.touching:
            assert big in pair or one in pair

    @pytest.mark.parametrize("turns", range(4))
    def test_border_walls_flank_the_exits_only(self, turns):
        # so filler cells that meet across a metacell side are never
        # walled apart, and one label for all filler cells is exact
        decomp = gadget_board(turns).regions
        exits = GADGET.place((0, 0), turns, GADGET_EXIT_CELLS.values())
        big = decomp.regions[decomp.region_at(exits[0])]
        flanked = set()
        for a, b in gadget_walls(turns):
            if (decomp.region_at(a) is None) != (decomp.region_at(b) is None):
                cell = a if decomp.region_at(a) is not None else b
                assert cell in big
                assert min(abs(cell[0] - e[0]) + abs(cell[1] - e[1]) for e in exits) <= 1
                flanked.add(cell)
        assert set(exits) <= flanked

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_small_compiles_match_walls(self, dims):
        for g in enumerate_candidate_subgraphs(*dims):
            for rule in ("lex", "antilex"):
                assert_compile_matches_walls(g, plan_for(g, rule))

    def test_random_compiles_match_walls(self):
        rng = random.Random(5)
        for _ in range(30):
            cols, rows = rng.randint(2, 8), rng.randint(2, 8)
            g = random_candidate_subgraph(cols, rows, rng)
            assert_compile_matches_walls(g, plan_for(g))


class TestDeadRegions:
    def test_compiled_square_statuses(self):
        # 4 enclosed one-cell regions, each in a big region, and every
        # region dead or one of the 4 big regions
        g = full_grid(2, 2)
        plan = plan_for(g)
        inst = compile_aon(g, plan)
        report = analyze_dead_regions(inst)
        big = big_region_ids(inst, GADGET.tile(g, plan))
        dead = report.dead_ids()
        assert len(big) == 4 and not big & dead
        assert dead | big == set(range(region_count(inst.regions)))
        assert len(report.enclosing) == 4
        for rid, host in report.enclosing.items():
            assert len(inst.regions.regions[rid]) == 1
            assert host in big
        for rid in dead - report.enclosing.keys():
            assert report.leaf_counts[rid] >= 3

    def test_merged_filler_regions_are_leaf_rich(self):
        for g in enumerate_candidate_subgraphs(2, 3):
            plan = plan_for(g)
            inst = compile_aon(g, plan)
            report = analyze_dead_regions(inst)
            filler = _filler_cells(inst, GADGET.tile(g, plan))
            filler_ids = {inst.regions.region_at(c) for c in filler}
            for rid in filler_ids:
                assert rid in report.dead_ids() and rid not in report.enclosing
                assert report.leaf_counts[rid] >= 3

    def test_split_rectangle_is_unknown(self):
        inst = parse_aon("aon 4 2\nA A B B\nA A B B\n")
        report = analyze_dead_regions(inst)
        assert report.dead_ids() == set() and report.enclosing == {}

    def test_nested_singleton_is_enclosure_dead(self):
        inst = parse_aon(NESTED_INSTANCE)
        report = analyze_dead_regions(inst)
        rid = inst.regions.region_at((3, 2))
        assert rid in report.enclosing and rid in report.dead_ids()

    def test_report_equality_sees_fields(self):
        base = DeadRegionReport({0: 1}, {})
        assert base == DeadRegionReport({0: 1}, {})
        assert base != DeadRegionReport({0: 0}, {})
        assert base != DeadRegionReport({0: 1}, {0: 1})
        nested = parse_aon(NESTED_INSTANCE)
        assert analyze_dead_regions(nested) == analyze_dead_regions(parse_aon(NESTED_INSTANCE))
        assert analyze_dead_regions(nested) != analyze_dead_regions(parse_aon(
            "aon 4 2\nA A B B\nA A B B\n"))


class TestSolve:
    def test_sample_instance_count_matches_brute_force(self, aon_fixture):
        res = solve_aon(aon_fixture, mode="all")
        assert res.exhausted
        assert len(res.loops) == SAMPLE_SOLUTION_COUNT
        brute = {l.canonical().cells for l in board_loops(5, 5)
                 if verify_aon(aon_fixture, l).ok}
        assert {l.canonical().cells for l in res.loops} == brute

    def test_sample_loop_is_among_solutions(self, aon_fixture, aon_fixture_loop):
        res = solve_aon(aon_fixture, mode="all")
        assert aon_fixture_loop.canonical().cells in {
            l.canonical().cells for l in res.loops}

    def test_every_solution_verifies(self, aon_fixture):
        for l in solve_aon(aon_fixture, mode="all").loops:
            assert verify_aon(aon_fixture, l).ok

    def test_adjacent_dead_regions_unsatisfiable(self):
        # two leaf-rich plus-shapes touching each other
        text = ("aon 7 5\n"
                "C C C C C C C\n"
                "C A C C B C C\n"
                "A A A B B B C\n"
                "C A C C B C C\n"
                "C C C C C C C\n")
        inst = parse_aon(text)
        report = analyze_dead_regions(inst)
        assert len(report.dead_ids()) == 2 and not report.enclosing
        res = solve_aon(inst, mode="all")
        assert res.loops == [] and res.exhausted

    def test_compiled_square_solvable(self):
        g = full_grid(2, 2)
        inst = compile_aon(g, plan_for(g))
        res = solve_aon(inst, mode="first")
        assert res.loops and verify_aon(inst, res.loops[0]).ok

    def test_deterministic(self, aon_fixture):
        a = solve_aon(aon_fixture, mode="all")
        b = solve_aon(aon_fixture, mode="all")
        assert [l.cells for l in a.loops] == [l.cells for l in b.loops]

    def test_solver_matches_brute_force_on_random_wall_boards(self):
        loops = board_loops(4, 4)
        checked = 0
        for inst in random_wall_boards():
            checked += 1
            res = solve_aon(inst, mode="all")
            assert res.exhausted
            brute = {l.canonical().cells for l in loops if verify_aon(inst, l).ok}
            assert {l.canonical().cells for l in res.loops} == brute
        assert checked >= 25

    def test_compiled_boards_are_exact_cover(self):
        # the filler regions of a compile are dead, and each big region
        # borders a dead region (its enclosed one-cell region, and filler),
        # so the cell walk requires every cell it allows; it then has no
        # use for cells a rule makes mandatory mid-walk, and prunes for
        # none, and the region search may refute a compile by colour
        # count.  A gadget edit that breaks this fails here
        graphs = [g for cols, rows in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))
                  for g in enumerate_candidate_subgraphs(cols, rows)]
        rng = random.Random("exact-cover")
        graphs += [random_candidate_subgraph(rng.randint(2, 8), rng.randint(2, 8), rng)
                   for _ in range(30)]
        calls = []

        def recorded(allowed, required, make_constraint, **kwargs):
            calls.append((set(allowed), set(required)))
            return SearchResult([], 0, False)

        with mock.patch.object(oracles, "search_loops", recorded):
            for g in graphs:
                for seed_rule in ("lex", "antilex"):
                    solve_aon_by_cells(compile_aon(g, plan_for(g, seed_rule)))
        assert len(calls) == 2 * len(graphs) == 118
        for allowed, required in calls:
            assert required and allowed == required


class TestRooting:
    """The loop search's rooting rule against the per-anchor walks
    (``oracles.anchored_search_loops``), on All or Nothing boards through
    the cell walk (``oracles.solve_aon_by_cells``)."""

    def test_fixture(self, aon_fixture):
        check_against_anchored(oracles, solve_aon_by_cells, aon_fixture)

    def test_random_wall_boards(self):
        for inst in random_wall_boards():
            check_against_anchored(oracles, solve_aon_by_cells, inst)

    def test_compiled_board_walk_unchanged(self):
        # a compiled board requires every allowed cell, so its one anchor is
        # its smallest required cell and the walk is the same, node for node
        g = full_grid(2, 2)
        inst = compile_aon(g, plan_for(g))
        new = solve_aon_by_cells(inst, mode="first")
        with mock.patch.object(oracles, "search_loops", anchored_search_loops):
            old = solve_aon_by_cells(inst, mode="first")
        assert new.nodes == old.nodes and new.loops == old.loops


class TestFullFill:
    """The walk that reuses its parent's reach set against one that flood
    fills at every node (``oracles.full_fill_walk``), on All or Nothing
    boards through the cell walk (``oracles.solve_aon_by_cells``)."""

    def test_every_small_compile(self):
        # one 3x2 compile takes 1.6M nodes to its first loop: the walks are
        # compared over their first 8,000 nodes
        ends = []
        for cols, rows in ((2, 2), (2, 3), (3, 2)):
            for g in enumerate_candidate_subgraphs(cols, rows):
                inst = compile_aon(g, plan_for(g))
                trace = check_against_full_fill(solve_aon_by_cells, inst, "first", 8_000,
                                                budget=500)
                check_against_unsplit(solve_aon_by_cells, inst, "first", 8_000, budget=500)
                ends.append(trace[-1][0])
        assert ends == ["path", "raised", "path", "raised", "raised"]

    def test_random_wall_boards(self):
        for inst in random_wall_boards():
            check_against_full_fill(solve_aon_by_cells, inst, "all")
            check_against_unsplit(solve_aon_by_cells, inst, "all")

    def test_frontier_compile_within_a_budget(self):
        # a 3x4 compile of about 1,000 cells, where a fill reaches ten times
        # more cells than its breadth-first depth; the search runs far past
        # any budget, so the walks are compared over their first 2,000 nodes
        g = random_candidate_subgraph(3, 4, random.Random("frontier/2"))
        trace = check_budgeted_against_full_fill(solve_aon_by_cells, compile_aon(g, plan_for(g)),
                                                 "first")
        assert [event[0] for event in trace] == ["budget", "raised"]


# four regions that all touch each other (P, Q, R, S) beside two more (T, L):
# the loop around L leaves all the others unvisited; Q's first side with P
# is Q's north side, so that violation names Q before P
TOUCHING_INSTANCE = """aon 6 4
R P P P T T
R Q S P T T
R R S P L L
P P P P L L
"""
TOUCHING_LOOP = loop((4, 0), (5, 0), (5, 1), (4, 1))


def adjacency_boards(fixture):
    """Every board the region-adjacency table is checked on, each with a
    name and the solution loops it is known to have: all of them on the
    small boards, the embedded source cycle on a Hamiltonian compile."""
    from loopforge.hamilton import find_hamiltonian_cycle
    from loopforge.reduction import embed_cycle

    yield "fixture", fixture, solve_aon_by_scan(fixture, mode="all").loops
    yield "touching", parse_aon(TOUCHING_INSTANCE), [TOUCHING_LOOP]
    for k, inst in enumerate(random_wall_boards()):
        yield f"random{k}", inst, solve_aon_by_scan(inst, mode="all").loops
    for cols, rows in ((2, 2), (2, 3), (3, 2)):
        for k, g in enumerate(enumerate_candidate_subgraphs(cols, rows)):
            plan = plan_for(g)
            cycle = find_hamiltonian_cycle(g)
            sols = [] if cycle is None else [embed_cycle(g, plan, cycle, "aon").loop]
            yield f"{cols}x{rows}#{k}", compile_aon(g, plan), sols


def _shifted(lp, inst):
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        cells = tuple((x + dx, y + dy) for x, y in lp.cells)
        if all(0 <= x < inst.width and 0 <= y < inst.height for x, y in cells):
            yield LoopPath(cells)


def _rectangles(inst, stride):
    for w, h in ((2, 2), (3, 2), (2, 4), (5, 3)):
        for x0 in range(0, inst.width - w + 1, stride):
            for y0 in range(0, inst.height - h + 1, stride):
                ring = [(x, y0) for x in range(x0, x0 + w)]
                ring += [(x0 + w - 1, y) for y in range(y0 + 1, y0 + h)]
                ring += [(x, y0 + h - 1) for x in range(x0 + w - 2, x0 - 1, -1)]
                ring += [(x0, y) for y in range(y0 + h - 2, y0, -1)]
                yield LoopPath(tuple(ring))


def _solve_outcome(solve, inst, mode, budget):
    try:
        res = solve(inst, mode=mode, budget=budget)
    except SearchBudgetExceeded as e:
        return ("budget", e.nodes)
    return (res.loops, res.nodes, res.exhausted)


class TestRegionAdjacency:
    """``RegionDecomposition.touching`` against the board scans its three
    users made before it (``oracles.*_by_scan``)."""

    def test_touching_board_pins_violation_order(self):
        inst = parse_aon(TOUCHING_INSTANCE)
        verdict = verify_aon(inst, TOUCHING_LOOP)
        assert verdict == verify_aon_by_scan(inst, TOUCHING_LOOP)
        assert [v.message for v in verdict.violations] == [
            "unvisited regions P and R touch at (0, 0)|(0, 1)",
            "unvisited regions R and Q touch at (0, 2)|(1, 2)",
            "unvisited regions R and S touch at (1, 1)|(2, 1)",
            "unvisited regions Q and S touch at (1, 2)|(2, 2)",
            "unvisited regions Q and P touch at (1, 2)|(1, 3)",
            "unvisited regions P and S touch at (2, 0)|(2, 1)",
            "unvisited regions P and T touch at (3, 2)|(4, 2)",
        ]

    def test_verify_matches_scan(self, aon_fixture):
        checked = 0
        for name, inst, sols in adjacency_boards(aon_fixture):
            # the solutions, their one-cell shifts that stay on the board,
            # and rectangle perimeters at a stride
            loops = list(sols)
            for lp in sols:
                loops.extend(_shifted(lp, inst))
            loops.extend(_rectangles(inst, 1 if inst.width < 10 else 4))
            for lp in loops:
                assert verify_aon(inst, lp) == verify_aon_by_scan(inst, lp), name
                checked += 1
        assert checked > 1000

    def test_dead_region_reports_match_scan(self, aon_fixture):
        for name, inst, _ in adjacency_boards(aon_fixture):
            assert analyze_dead_regions(inst) == analyze_dead_regions_by_scan(inst), name

    def test_solve_matches_scan(self, aon_fixture):
        # the cell walk, which reads the table, against the one that scans;
        # compiled boards are solved to a first loop under a node budget
        # (one 3x2 compile takes 1.6M nodes to its first loop); the 2x2
        # compile finds its loop within it
        for name, inst, _ in adjacency_boards(aon_fixture):
            mode, budget = ("all", None) if inst.width < 10 else ("first", 3_000)
            assert _solve_outcome(solve_aon_by_cells, inst, mode, budget) == \
                _solve_outcome(solve_aon_by_scan, inst, mode, budget), name


@lru_cache(maxsize=None)
def board_loops(width, height):
    """Every loop on a width x height board (``oracles.all_loops_on_board``)."""
    return all_loops_on_board(width, height)


def label_boards():
    """300 seeded 4x4 boards of up to five labels: ``randrange(5)`` per
    cell from ``Random(5)``, columns outer."""
    rng = random.Random(5)
    for _ in range(300):
        labels = {(x, y): rng.randrange(5) for x in range(4) for y in range(4)}
        decomp = regions_from_labels(4, 4, labels)
        yield AonInstance(4, 4, decomp, tuple(map(region_token, range(region_count(decomp)))))


# hand-made edge cases: two one-cell regions side by side, and a board on
# which no region borders a dead one, so no region is required
EDGE_BOARDS = ("aon 3 3\nA B C\nC C C\nC C C\n", "aon 4 2\nA A B B\nA A B B\n")
# a one-cell region that its host encloses: a loop through the two alone
# leaves no other region unvisited, so the cell walk, which takes the one
# cell as dead, misses it
ENCLOSED_BOARD = "aon 4 3\nH H H H\nH D H H\nH H H H\n"
# two 4x4 regions side by side: every loop stays inside one of them
TWO_BLOCKS = "aon 8 4\n" + "A A A A B B B B\n" * 4


def _frontier_board():
    g = random_candidate_subgraph(3, 4, random.Random("frontier/2"))
    return compile_aon(g, plan_for(g))


class TestRegionSolve:
    """The region search against the cell walk (``oracles.solve_aon_by_cells``)
    and against brute force."""

    @staticmethod
    def check(inst):
        """``mode="all"`` gives brute force's loops, each once and in
        canonical form, and so does the cell walk; ``mode="first"`` gives
        one of them.  Returns the brute-force loops."""
        brute = sorted({l.canonical().cells for l in board_loops(inst.width, inst.height)
                        if verify_aon(inst, l).ok})
        res = solve_aon(inst, mode="all")
        assert res.exhausted
        assert sorted(l.cells for l in res.loops) == brute
        assert all(l == l.canonical() for l in res.loops)
        assert len({l.cells for l in res.loops}) == len(res.loops)
        first = solve_aon(inst, mode="first")
        assert len(first.loops) == min(1, len(brute))
        assert all(l.cells in brute for l in first.loops)
        return brute

    def test_fixture_and_touching_board(self, aon_fixture):
        # the touching board's loop around L alone leaves touching regions
        # unvisited, so that board has no solution
        for inst, count in ((aon_fixture, SAMPLE_SOLUTION_COUNT),
                            (parse_aon(TOUCHING_INSTANCE), 0)):
            brute = self.check(inst)
            assert len(brute) == count
            assert sorted(l.cells for l in solve_aon_by_cells(inst, mode="all").loops) == brute

    def test_random_wall_and_label_boards(self):
        boards = [*random_wall_boards(), *label_boards(), *map(parse_aon, EDGE_BOARDS)]
        found = 0
        for inst in boards:
            brute = self.check(inst)
            assert sorted(l.cells for l in solve_aon_by_cells(inst, mode="all").loops) == brute
            found += len(brute)
        assert len(boards) == 336 and found == 177 + 1_267 + 4

    def test_loop_through_an_enclosed_cell_and_its_host(self):
        inst = parse_aon(ENCLOSED_BOARD)
        assert 1 in analyze_dead_regions(inst).enclosing
        assert len(self.check(inst)) == 2
        assert solve_aon_by_cells(inst, mode="all").loops == []

    def test_compiled_boards_decide_and_lift(self):
        from loopforge.hamilton import find_hamiltonian_cycle
        from loopforge.reduction import lift_solution

        for cols, rows in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
            for g in enumerate_candidate_subgraphs(cols, rows):
                plan = plan_for(g)
                inst = compile_aon(g, plan)
                res = solve_aon(inst)
                assert bool(res.loops) == (find_hamiltonian_cycle(g) is not None)
                assert res.exhausted != bool(res.loops)
                for l in res.loops:
                    assert verify_aon(inst, l).ok
                    lift_solution(g, plan, l, "aon")

    def test_colour_count_refutes_before_any_search(self):
        # every 3x3 source has an odd vertex count, and every compile is
        # exact cover with one colour in excess
        for g in enumerate_candidate_subgraphs(3, 3):
            assert solve_aon(compile_aon(g, plan_for(g))) == SearchResult([], 0, True)

    @pytest.mark.parametrize("rule", ["lex", "antilex"])
    def test_rows_shared_across_rotations(self, rule):
        # every big region has the gadget's shape, at each of the four
        # turns here, so all its port pairs are answered by three rows;
        # each pair's first traversal, mapped onto the board, is a
        # Hamiltonian path of its region between the pair's ports
        g, _ = serpentine(4)
        plan = plan_for(g, rule)
        inst = compile_aon(g, plan)
        tiling = GADGET.tile(g, plan)
        assert set(tiling.values()) == {0, 1, 2, 3}
        dead = analyze_dead_regions(inst).dead_ids()
        nodes = _Nodes(None)
        search = RegionCycles(inst.regions, [r for r in range(region_count(inst.regions))
                                             if r not in dead], nodes)
        for r in big_region_ids(inst, tiling):
            for a in search.ports[r]:
                for b in search.ports[r]:
                    if a != b:
                        row, back, flip = search.pair(r, a, b)
                        assert row.has(0)
                        first = row.paths[0]
                        path = tuple(map(back.__getitem__, first[::-1] if flip else first))
                        assert (path[0], path[-1]) == (a, b)
                        assert sorted(path) == inst.regions.regions[r]
                        assert all(map(are_orthogonal, path, path[1:]))
        assert (len(search.rows), nodes.count) == (3, 338)

    def test_traversals_reach_the_board_only_in_loops(self):
        # each region shape is turned once, 4 times its cells: the gadget's
        # 71 big cells at each of the 4 turns the 3x4 compile uses
        g = random_candidate_subgraph(3, 4, random.Random(7))
        inst = compile_aon(g, plan_for(g))
        with mock.patch.object(regionsearch, "turn", wraps=regionsearch.turn) as turn:
            solve_aon(inst)
        assert turn.call_count <= 1_136

    def test_every_loop_search_is_bounded_by_its_budget(self):
        # once its rows are walked, each further loop of a cycle costs a
        # node, so a larger cap costs nodes in step
        two = compile_aon(full_grid(2, 2), plan_for(full_grid(2, 2)))

        def nodes(cap):
            return solve_aon(two, mode="all", cap=cap).nodes

        assert nodes(5_000) - nodes(2_000) >= 3_000

    @pytest.mark.parametrize("cap, found, nodes", [(1, 1, 16), (6, 6, 81), (7, 7, 183),
                                                   (None, 164, 852)])
    def test_a_capped_search_stops_at_its_cap(self, cap, found, nodes):
        # each block holds 6 loops alone, found first, A's in 81 nodes; the
        # other 152 visit both.  A capped search stops walking B once the
        # cap is met, not once B has given it a cap of its own, so it holds
        # a budget of the nodes it returns
        inst = parse_aon(TWO_BLOCKS)
        res = solve_aon(inst, mode="all", cap=cap)
        assert (len(res.loops), res.nodes, res.exhausted) == (found, nodes, cap is None)
        assert solve_aon(inst, mode="all", cap=cap, budget=nodes) == res
        if cap is None:
            assert [len(l.cells) for l in res.loops[:13]] == [16] * 12 + [32]
            assert sorted(l.cells for l in res.loops) == \
                sorted(l.cells for l in solve_aon_by_cells(inst, mode="all").loops)

    @pytest.mark.parametrize("mode, cap, paths", [("first", None, 2), ("all", 20, 21)])
    def test_row_walks_match_the_oracle_walks(self, mode, cap, paths):
        # the rows of the 2x2 compile are walked by the engine's one walk,
        # so both oracle walks stand in for it there
        two = compile_aon(full_grid(2, 2), plan_for(full_grid(2, 2)))
        trace = check_against_full_fill(solve_aon, two, mode, None, cap, budget=200)
        check_against_unsplit(solve_aon, two, mode, None, cap, budget=200)
        assert [event[0] for event in trace] == ["path"] * paths

    def test_repeat_solves_and_budgets_agree(self, aon_fixture):
        # a solve keeps nothing for the next: a repeat gives the same loops,
        # nodes and budget stops, a budget of at least the nodes gives the
        # unbounded result, and a smaller one stops one node over it, as the
        # cell walk does.  Asked for every loop, a row walks on under the
        # call's budget past the first path that decided it (a 3x4 compile
        # has about 700^12 loops, so it is solved to a first one, the 2x2
        # compile's loops are capped at 20)
        two = compile_aon(full_grid(2, 2), plan_for(full_grid(2, 2)))
        for inst, mode, cap in ((aon_fixture, "first", None), (aon_fixture, "all", None),
                                (_frontier_board(), "first", None), (two, "all", 20)):
            solve = partial(solve_aon, cap=cap)
            once = _solve_outcome(solve, inst, mode, None)
            assert once[0] != "budget" and _solve_outcome(solve, inst, mode, None) == once
            nodes = once[1]
            assert _solve_outcome(solve, inst, mode, nodes - 1) == ("budget", nodes)
            for budget in [*range(0, 5_001, 50), nodes]:
                got = _solve_outcome(solve, inst, mode, budget)
                assert _solve_outcome(solve, inst, mode, budget) == got, budget
                assert got == (once if budget >= nodes else ("budget", budget + 1)), budget
