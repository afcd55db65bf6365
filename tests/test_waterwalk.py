import dataclasses
import hashlib
import random
import sys
from unittest import mock

import pytest

from loopforge import waterwalk
from loopforge.errors import CompileError, MalformedLoopError, ParseError
from loopforge.framework import Direction, direction_between, plan_for, rotate_cell
from loopforge.hamilton import enumerate_candidate_subgraphs, random_candidate_subgraph
from loopforge.model import LoopPath, full_grid
from loopforge.waterwalk import (
    FRAME,
    GADGET,
    GADGET_EXIT_CELLS,
    GADGET_ROWS,
    WwInstance,
    board_text,
    check_crossings,
    compile_ww,
    emit_ww,
    parse_ww,
    solve_ww,
    verify_ww,
)

import oracles
from oracles import (
    all_loops_on_board,
    anchored_search_loops,
    check_against_anchored,
    check_against_full_fill,
    check_against_unsplit,
    unsplit_walk,
    ww_path_valid,
)

# solver-vs-brute-force count on the worked 5x5 instance, frozen from the
# unpruned loop enumerator over all 9349 loops of the board
SAMPLE_SOLUTION_COUNT = 7


def loop(*cells):
    return LoopPath(tuple(cells))


def random_boards():
    """25 seeded 4x4 boards: ground at 55%, a clue of 1-4 on 30% of it."""
    rng = random.Random(7)
    for _ in range(25):
        ground = frozenset((x, y) for x in range(4) for y in range(4)
                           if rng.random() < 0.55)
        numbers = {c: rng.randint(1, 4) for c in sorted(ground)
                   if rng.random() < 0.3}
        yield WwInstance(4, 4, ground, numbers)


def gadget_terrain():
    """Ground cells and clues of the canonical gadget, read from its rows."""
    inst = parse_ww(f"ww {FRAME} {FRAME}\n" + GADGET_ROWS)
    return inst.ground, inst.numbers


def harness_board(turns):
    """The lone gadget rotated by ``turns``, as its certificate harness sees it."""
    return waterwalk.gadget_harness(turns)[2]().inst


class TestGadgetData:
    def test_ground_cluster(self):
        ground, numbers = gadget_terrain()
        assert ground == frozenset({(2, 1), (2, 2), (2, 3), (3, 2)})
        assert numbers == {(2, 2): 3}

    def test_gadget_rows_print_the_gadget_board(self):
        assert GADGET_ROWS == board_text(harness_board(0))
        assert parse_ww(f"ww {FRAME} {FRAME}\n" + GADGET_ROWS) == harness_board(0)

    def test_exit_cells_sit_on_midlines(self):
        assert GADGET_EXIT_CELLS[Direction.S] == (2, 0)
        assert GADGET_EXIT_CELLS[Direction.N] == (2, 4)
        assert GADGET_EXIT_CELLS[Direction.E] == (4, 2)

    def test_exit_border_cells_are_water_with_ground_inward(self):
        ground, _ = gadget_terrain()
        for side, cell in GADGET_EXIT_CELLS.items():
            assert cell not in ground
            inward = (cell[0] - side.dx, cell[1] - side.dy)
            assert inward in ground

    def test_full_turn_is_identity_on_terrain(self):
        ground, _ = gadget_terrain()
        cells = {rotate_cell(FRAME, 4, c) for c in ground}
        assert cells == set(ground)


class TestGadgetHarness:
    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_open_path_rules_match_the_reference(self, turns):
        # finish_ok against the separate run splitting of the reference, on
        # every simple path of at most 9 frame cells from an exit cell
        cells, _, make_rules = waterwalk.gadget_harness(turns)
        rules = make_rules()
        board = set(cells)
        verdicts = []
        stack = [(rotate_cell(FRAME, turns, c),) for c in GADGET_EXIT_CELLS.values()]
        while stack:
            path = stack.pop()
            got = rules.finish_ok(path)
            assert got == ww_path_valid(rules.inst, path), path
            verdicts.append(got)
            if len(path) < 9:
                x, y = path[-1]
                for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if c in board and c not in path:
                        stack.append(path + (c,))
        assert True in verdicts and False in verdicts


class TestInstanceFile:
    def test_sample_roundtrip(self, ww_fixture, data_dir):
        assert emit_ww(ww_fixture) == (data_dir / "sample_ww.txt").read_text()

    def test_number_on_water_rejected(self):
        with pytest.raises(ValueError):
            WwInstance(2, 2, frozenset(), {(0, 0): 3})

    def test_bad_character_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_ww("ww 2 1\n.x\n")
        assert e.value.line == 2
        # comment and blank lines count towards the reported line
        with pytest.raises(ParseError) as e:
            parse_ww("ww 2 2\n# top\n..\n\n.!\n")
        assert e.value.line == 5

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_ww("ww 2 2\n..\n")
        assert e.value.line is None

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_ww("ww 2 2\n...\n..\n")
        assert e.value.line == 2
        with pytest.raises(ParseError) as e:
            parse_ww("ww 2 2\n..\n# gap\n.\n")
        assert e.value.line == 4

    @pytest.mark.parametrize("text, message", [
        ("", "empty instance file"),
        ("aon 2 2\n", "line 1: expected 'ww <width> <height>', got 'aon 2 2'"),
        ("ww 0 2\n", "line 1: board dimensions must be positive, got 0x2"),
        ("ww 2 2\n..\n", "expected 2 rows, got 1"),
        ("ww 2 2\n..\n# gap\n.\n", "line 4: row has 1 cells, expected 2"),
        ("ww 2 2\n# top\n..\n\n.!\n", "line 5: unknown terrain character '!'"),
    ])
    def test_parse_error_messages_pinned(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_ww(text)
        assert str(e.value) == message

    @pytest.mark.parametrize("clue", ["\u0663", "\u00b2"])  # Arabic-Indic 3, superscript 2
    def test_non_ascii_digit_clue_rejected(self, clue):
        with pytest.raises(ParseError) as e:
            parse_ww(f"ww 2 2\n..\n.{clue}\n")
        assert e.value.line == 3

    def test_equality_sees_numbers(self):
        a = parse_ww("ww 2 1\n.3\n")
        b = parse_ww("ww 2 1\n.2\n")
        c = parse_ww("ww 2 1\n.3\n")
        assert a != b and a == c


class TestVerify:
    def test_sample_solution_accepted(self, ww_fixture, ww_fixture_loop):
        assert verify_ww(ww_fixture, ww_fixture_loop).ok

    def test_off_board_loop_is_malformed(self, ww_fixture):
        bad = loop((4, 4), (5, 4), (5, 5), (4, 5))
        with pytest.raises(MalformedLoopError):
            verify_ww(ww_fixture, bad)

    # at least three negatives per rule, each carrying that rule's tag

    @pytest.mark.parametrize("cells", [
        # misses every numbered cell, runs all legal
        ((2, 0), (2, 1), (1, 1), (1, 0)),
        # covers the 2 clue, misses 3 and 1
        ((0, 1), (0, 2), (1, 2), (1, 1)),
        # covers the 1 clue exactly, misses 3 and 2
        ((2, 2), (2, 3), (3, 3), (3, 2)),
    ])
    def test_rule1_negatives(self, ww_fixture, cells):
        verdict = verify_ww(ww_fixture, loop(*cells))
        assert not verdict.ok and 1 in verdict.rules_broken()

    @pytest.mark.parametrize("cells", [
        # valid solution rerouted so the run through the 2 clue has length 3
        ((0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2),
         (3, 2), (2, 2), (2, 3), (1, 3), (1, 2), (0, 2)),
        # tight square: run through the 2 clue is 3 long
        ((0, 1), (0, 2), (1, 2), (1, 1)),
        # run of 2 through both the 3 and the 1 clues
        ((3, 1), (3, 2), (4, 2), (4, 1)),
    ])
    def test_rule2_negatives(self, ww_fixture, cells):
        verdict = verify_ww(ww_fixture, loop(*cells))
        assert not verdict.ok and 2 in verdict.rules_broken()

    @pytest.mark.parametrize("cells", [
        ((1, 2), (1, 3), (2, 3), (2, 2)),
        ((3, 3), (4, 3), (4, 4), (3, 4)),
        ((0, 3), (0, 4), (1, 4), (1, 3)),
    ])
    def test_rule3_negatives(self, ww_fixture, cells):
        verdict = verify_ww(ww_fixture, loop(*cells))
        assert not verdict.ok and 3 in verdict.rules_broken()

    def test_rule2_negative_is_pure(self, ww_fixture):
        cells = ((0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2),
                 (3, 2), (2, 2), (2, 3), (1, 3), (1, 2), (0, 2))
        assert verify_ww(ww_fixture, loop(*cells)).rules_broken() == {2}


# sha256 of the compiled board file for random_candidate_subgraph(6, 6,
# random.Random(7)), per seed rule
PINNED_6X6_SHA256 = {
    "lex": "908d2c1b09dce6fb1538551390fb71c95d2aa0985f766222b5fb0d09b6948a68",
    "antilex": "4397a4fcf5cde6280a14636580f531dad4a18e22124cb2de344ce12a475bb716",
}


class TestCompile:
    @pytest.mark.parametrize("rule", sorted(PINNED_6X6_SHA256))
    def test_output_pinned_byte_for_byte(self, rule):
        g = random_candidate_subgraph(6, 6, random.Random(7))
        text = emit_ww(compile_ww(g, plan_for(g, rule)))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_6X6_SHA256[rule]

    def test_square_board_counts(self):
        g = full_grid(2, 2)
        inst = compile_ww(g, plan_for(g))
        assert (inst.width, inst.height) == (10, 10)
        assert len(inst.ground) == 16
        assert sorted(inst.numbers.values()) == [3, 3, 3, 3]

    def test_ground_components_have_four_cells(self):
        for g in enumerate_candidate_subgraphs(2, 3):
            inst = compile_ww(g, plan_for(g))
            seen = set()
            for c in sorted(inst.ground):
                if c in seen:
                    continue
                comp = {c}
                stack = [c]
                while stack:
                    x, y = stack.pop()
                    for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                        if n in inst.ground and n not in comp:
                            comp.add(n)
                            stack.append(n)
                seen |= comp
                assert len(comp) == 4

    def test_every_graph_edge_crossing_passes_two_water_cells(self):
        # read off the compiled boards: across every graph edge of every
        # 2x3 candidate, the aligned exit cells and the cells one step
        # inward from them are ground, water, water, ground
        for g in enumerate_candidate_subgraphs(2, 3):
            for rule in ("lex", "antilex"):
                plan = plan_for(g, rule)
                inst = compile_ww(g, plan)
                tiling = GADGET.tile(g, plan)
                for u, w in sorted(g.edges):
                    d = direction_between(u, w)
                    a = GADGET.board_exit(u, tiling[u], d)
                    b = GADGET.board_exit(w, tiling[w], d.opposite())
                    assert b == (a[0] + d.dx, a[1] + d.dy)
                    crossing = [(a[0] - d.dx, a[1] - d.dy), a, b, (b[0] + d.dx, b[1] + d.dy)]
                    assert [inst.terrain(c) for c in crossing] == \
                        [waterwalk.GROUND, waterwalk.WATER, waterwalk.WATER, waterwalk.GROUND]

    @pytest.mark.parametrize("side", sorted(GADGET_EXIT_CELLS, key=lambda d: d.name))
    def test_crossing_check_rejects_a_dry_exit_or_a_wet_inward_cell(self, side):
        def retoken(cell, token):
            rows = [list(row) for row in GADGET_ROWS.splitlines()]
            rows[FRAME - 1 - cell[1]][cell[0]] = token
            return dataclasses.replace(GADGET, rows="".join("".join(r) + "\n" for r in rows))

        check_crossings(GADGET)
        x, y = GADGET_EXIT_CELLS[side]
        with pytest.raises(CompileError, match="is not water"):
            check_crossings(retoken((x, y), "."))
        with pytest.raises(CompileError, match="has no ground"):
            check_crossings(retoken((x - side.dx, y - side.dy), "~"))

    def test_plan_graph_mismatch_rejected(self):
        from loopforge.errors import CompileError

        g, other = full_grid(2, 2), full_grid(2, 3)
        with pytest.raises(CompileError):
            compile_ww(other, plan_for(g))

    def test_all_rotation_pairs_cross_exactly_two_water_cells(self):
        # straight crossing between side-by-side gadgets, every rotation of
        # each that leaves an exit on the shared edge
        ground_0, _ = gadget_terrain()
        assert ground_0 == frozenset({(2, 1), (2, 2), (2, 3), (3, 2)})
        for turns_a in range(4):
            if Direction.E.rotated(-turns_a) is Direction.W:
                continue  # east side of the left gadget is blocked
            for turns_b in range(4):
                if Direction.W.rotated(-turns_b) is Direction.W:
                    continue
                ground = {rotate_cell(FRAME, turns_a, c) for c in ground_0}
                ground |= {(x + FRAME, y) for x, y in
                           (rotate_cell(FRAME, turns_b, c) for c in ground_0)}
                a = GADGET.board_exit((0, 0), turns_a, Direction.E)
                b = GADGET.board_exit((1, 0), turns_b, Direction.W)
                assert a[1] == b[1] and b[0] - a[0] == 1  # aligned midlines
                crossing = [(a[0] - 1, a[1]), a, b, (b[0] + 1, b[1])]
                labels = ["g" if c in ground else "w" for c in crossing]
                assert labels == ["g", "w", "w", "g"]


class TestSolve:
    def test_sample_instance_count_matches_brute_force(self, ww_fixture):
        res = solve_ww(ww_fixture, mode="all")
        assert res.exhausted
        assert len(res.loops) == SAMPLE_SOLUTION_COUNT
        brute = {l.canonical().cells for l in all_loops_on_board(5, 5)
                 if verify_ww(ww_fixture, l).ok}
        assert {l.canonical().cells for l in res.loops} == brute

    def test_sample_loop_is_among_solutions(self, ww_fixture, ww_fixture_loop):
        res = solve_ww(ww_fixture, mode="all")
        assert ww_fixture_loop.canonical().cells in {
            l.canonical().cells for l in res.loops}

    def test_every_solution_verifies(self, ww_fixture):
        for l in solve_ww(ww_fixture, mode="all").loops:
            assert verify_ww(ww_fixture, l).ok

    def test_lone_numbered_cell_in_water_unsatisfiable(self):
        inst = WwInstance(4, 4, frozenset({(1, 1)}), {(1, 1): 1})
        res = solve_ww(inst, mode="all")
        assert res.loops == [] and res.exhausted

    def test_first_mode_returns_the_first_of_all(self, ww_fixture):
        all_res = solve_ww(ww_fixture, mode="all")
        first = solve_ww(ww_fixture, mode="first")
        assert first.loops[0] == all_res.loops[0]

    def test_deterministic(self, ww_fixture):
        a = solve_ww(ww_fixture, mode="all")
        b = solve_ww(ww_fixture, mode="all")
        assert [l.cells for l in a.loops] == [l.cells for l in b.loops]

    def test_cap_limits_enumeration(self, ww_fixture):
        res = solve_ww(ww_fixture, mode="all", cap=2)
        assert len(res.loops) == 2 and not res.exhausted

    def test_budget_exhaustion_raises(self, ww_fixture):
        from loopforge.errors import SearchBudgetExceeded

        with pytest.raises(SearchBudgetExceeded):
            solve_ww(ww_fixture, mode="all", budget=5)

    def test_compiled_square_solvable(self):
        g = full_grid(2, 2)
        inst = compile_ww(g, plan_for(g))
        res = solve_ww(inst, mode="first")
        assert res.loops and verify_ww(inst, res.loops[0]).ok

    def test_seed7_2x3_first_solution_node_count_pinned(self):
        # a regression in any prune of the search engine moves this count
        g = random_candidate_subgraph(2, 3, random.Random(7))
        res = solve_ww(compile_ww(g, plan_for(g)), mode="first")
        assert res.nodes == 52 and len(res.loops) == 1

    def test_seed7_2x3_all_solutions_node_count_pinned(self):
        g = random_candidate_subgraph(2, 3, random.Random(7))
        res = solve_ww(compile_ww(g, plan_for(g)), mode="all")
        assert res.nodes == 7472 and len(res.loops) == 144 and res.exhausted

    def test_frontier0_refuted_within_its_budget(self):
        # the 4x4 board the solve benchmark runs under 50,000 nodes; the
        # walk without the pocket test stops there undecided
        g = random_candidate_subgraph(4, 4, random.Random("frontier/0"))
        res = solve_ww(compile_ww(g, plan_for(g)), mode="first", budget=50_000)
        assert res.exhausted and not res.loops and res.nodes == 43_189

    def test_seed7_2x3_anchored_oracle_keeps_the_old_counts(self):
        # rooting at the smallest clue cell, and then acting on split
        # fills, moved the two pins above; the per-anchor walks over the
        # walk from before the split prune still spend what they used to
        g = random_candidate_subgraph(2, 3, random.Random(7))
        inst = compile_ww(g, plan_for(g))
        with mock.patch.object(waterwalk, "search_loops", anchored_search_loops), \
                mock.patch.object(oracles, "_walk", unsplit_walk):
            first = solve_ww(inst, mode="first")
            every = solve_ww(inst, mode="all")
        assert first.nodes == 3966 and len(first.loops) == 1
        assert every.nodes == 17655 and len(every.loops) == 144

    def test_cap_below_one_rejected(self, ww_fixture):
        for cap in (0, -1):
            with pytest.raises(ValueError):
                solve_ww(ww_fixture, mode="all", cap=cap)

    def test_large_board_leaves_recursion_limit_alone(self):
        from loopforge.errors import SearchBudgetExceeded

        # a 30x30 board: a recursive search would need more stack than
        # the default recursion limit gives
        g = random_candidate_subgraph(6, 6, random.Random(7))
        limit = sys.getrecursionlimit()
        with pytest.raises(SearchBudgetExceeded):
            solve_ww(compile_ww(g, plan_for(g)), mode="first", budget=10)
        assert sys.getrecursionlimit() == limit

    def test_solver_matches_brute_force_on_random_boards(self):
        loops = all_loops_on_board(4, 4)
        for inst in random_boards():
            res = solve_ww(inst, mode="all")
            assert res.exhausted
            brute = {l.canonical().cells for l in loops if verify_ww(inst, l).ok}
            assert {l.canonical().cells for l in res.loops} == brute


class TestRooting:
    """The single walk from the smallest clue cell against the per-anchor
    walks it replaced (``oracles.anchored_search_loops``)."""

    def test_fixture(self, ww_fixture):
        check_against_anchored(waterwalk, solve_ww, ww_fixture)

    def test_every_small_compile(self):
        for cols, rows in ((2, 2), (2, 3), (3, 2)):
            for g in enumerate_candidate_subgraphs(cols, rows):
                check_against_anchored(waterwalk, solve_ww, compile_ww(g, plan_for(g)))

    def test_random_boards(self):
        for inst in random_boards():
            check_against_anchored(waterwalk, solve_ww, inst)

    def test_board_without_numbers_keeps_per_anchor_walks(self, ww_fixture):
        inst = WwInstance(ww_fixture.width, ww_fixture.height, ww_fixture.ground, {})
        new, old = check_against_anchored(waterwalk, solve_ww, inst)
        assert new.loops and new.nodes == old.nodes


class TestFullFill:
    """The walk that reuses its parent's reach set against one that flood
    fills at every node (``oracles.full_fill_walk``)."""

    def test_every_small_compile(self):
        for cols, rows in ((2, 2), (2, 3), (3, 2)):
            for g in enumerate_candidate_subgraphs(cols, rows):
                inst = compile_ww(g, plan_for(g))
                trace = check_against_full_fill(solve_ww, inst, "all")
                check_against_unsplit(solve_ww, inst, "all")
                assert trace[-1][0] == "end"

    def test_random_boards(self):
        for inst in random_boards():
            check_against_full_fill(solve_ww, inst, "all")
            check_against_unsplit(solve_ww, inst, "all")

    def test_seed7_3x4_refutation_prefix(self):
        # the pocket test refutes the board inside the 20,000-node prefix;
        # the unsplit walk, which has no pocket test, is still searching
        # there, so the two are compared over a prefix the engine also spends
        g = random_candidate_subgraph(3, 4, random.Random(7))
        inst = compile_ww(g, plan_for(g))
        trace = check_against_full_fill(solve_ww, inst, "first", 20_000)
        assert trace == [("end", 11_471)]
        trace = check_against_unsplit(solve_ww, inst, "first", 10_000)
        assert trace == [("budget", 10_001), ("raised", 10_001)]
