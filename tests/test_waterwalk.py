import dataclasses
import hashlib
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopforge import loopsearch, waterwalk
from loopforge.errors import CompileError, MalformedLoopError, ParseError
from loopforge.framework import Direction, plan_for, rotate_cell
from loopforge.hamilton import (
    enumerate_candidate_subgraphs,
    find_hamiltonian_cycle,
    random_candidate_subgraph,
)
from loopforge.model import LoopPath, Violation, full_grid
from loopforge.reduction import lift_solution
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
    plan_by_rule,
    unsplit_walk,
    ww_path_valid,
)

# solver-vs-brute-force count on the worked 5x5 instance, frozen from the
# unpruned loop enumerator over all 9349 loops of the board
SAMPLE_SOLUTION_COUNT = 7


def loop(*cells):
    return LoopPath(tuple(cells))


def random_terrains():
    """25 seeded 4x4 terrains, each its ground cells and clues: ground at
    55%, a clue of 1-4 on 30% of it."""
    rng = random.Random(7)
    for _ in range(25):
        ground = frozenset((x, y) for x in range(4) for y in range(4)
                           if rng.random() < 0.55)
        numbers = {c: rng.randint(1, 4) for c in sorted(ground)
                   if rng.random() < 0.3}
        yield ground, numbers


def random_boards():
    """The boards of :func:`random_terrains`."""
    for ground, numbers in random_terrains():
        yield oracles.ww_board(4, 4, ground, numbers)


def gadget_terrain():
    """Ground cells and clues of the canonical gadget, read from its rows."""
    inst = parse_ww(f"ww {FRAME} {FRAME}\n" + GADGET_ROWS)
    return inst.ground, inst.numbers


def harness_board(turns):
    """The lone gadget rotated by ``turns``, as its certificate harness sees it."""
    return waterwalk.gadget_harness(turns)[2]().inst


def metacell_exit(v, turns, side):
    """Board cell of the exit on ``side`` of the gadget turned by ``turns``
    in the metacell of ``v``: its frame cell offset into the metacell."""
    x, y = GADGET.exits_at[turns][side]
    return FRAME * v[0] + x, FRAME * v[1] + y


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

    @pytest.mark.parametrize("cells", ["~.3", "~.0~"], ids=["wrong-length", "unknown-token"])
    def test_malformed_cells_rejected(self, cells):
        with pytest.raises(ValueError):
            WwInstance(2, 2, cells)

    def test_numbers_are_read_only(self, ww_fixture):
        # a solve trusts the board to stay as it was built
        clue = next(iter(ww_fixture.numbers))
        with pytest.raises(TypeError):
            ww_fixture.numbers[clue] = 9
        with pytest.raises(TypeError):
            del ww_fixture.numbers[clue]
        assert not hasattr(ww_fixture.numbers, "clear")
        assert len(solve_ww(ww_fixture, mode="all").loops) == SAMPLE_SOLUTION_COUNT

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


def border_ring(width, height):
    """The loop around the board's border cells, clockwise from (0, 0)."""
    return LoopPath(tuple([(0, y) for y in range(height)]
                          + [(x, height - 1) for x in range(1, width)]
                          + [(width - 1, y) for y in range(height - 2, -1, -1)]
                          + [(x, 0) for x in range(width - 2, 0, -1)]))


def reference_cases(data_dir):
    """Boards with their ground cells and clues as the set-based builder in
    ``tests/oracles.py`` fills them: the random boards, every 2x3 compile,
    from the gadget's tokens per turn offset into each metacell, and the
    fixture, from its file's characters."""
    for ground, numbers in random_terrains():
        yield oracles.ww_board(4, 4, ground, numbers), ground, numbers
    for g in enumerate_candidate_subgraphs(2, 3):
        plan = plan_for(g)
        laid = oracles.tiled_tokens(GADGET, GADGET.tile(g, plan))
        yield compile_ww(g, plan), *oracles.ww_terrain_by_cells((c, tok) for _, c, tok in laid)
    text = (data_dir / "sample_ww.txt").read_text()
    rows = text.splitlines()[1:]
    yield parse_ww(text), *oracles.ww_terrain_by_cells(
        ((x, len(rows) - 1 - k), tok) for k, row in enumerate(rows) for x, tok in enumerate(row))


class TestBoardReference:
    """Boards as one board-order token string against the set-based builder
    and the per-cell row writer kept in ``tests/oracles.py``."""

    def test_terrain_and_text_match_the_reference(self, data_dir):
        count = 0
        for inst, ground, numbers in reference_cases(data_dir):
            w, h = inst.width, inst.height
            assert inst.ground == ground
            assert inst.numbers == numbers and list(inst.numbers) == sorted(numbers)
            text = emit_ww(inst)
            assert text == f"ww {w} {h}\n" + oracles.ww_board_text_by_cells(w, h, ground, numbers)
            ring = border_ring(w, h)
            assert board_text(inst, frozenset(ring.cells)) == oracles.ww_board_text_by_cells(
                w, h, ground, numbers, frozenset(ring.cells))
            assert parse_ww(text) == inst
            count += 1
        assert count == 25 + sum(1 for _ in enumerate_candidate_subgraphs(2, 3)) + 1


class TestVerify:
    def test_sample_solution_accepted(self, ww_fixture, ww_fixture_loop):
        assert verify_ww(ww_fixture, ww_fixture_loop).ok

    def test_off_board_loop_is_malformed(self, ww_fixture):
        bad = loop((4, 4), (5, 4), (5, 5), (4, 5))
        # the first cell off the board in loop order is named
        with pytest.raises(MalformedLoopError,
                           match=r"^loop cell \(5, 4\) is off the 5x5 board$"):
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

    @pytest.mark.parametrize("cells, violations", [
        (((2, 0), (2, 1), (1, 1), (1, 0)), (
            Violation(1, "numbered cell (0, 1) is not on the loop", ((0, 1),)),
            Violation(1, "numbered cell (3, 1) is not on the loop", ((3, 1),)),
            Violation(1, "numbered cell (3, 2) is not on the loop", ((3, 2),)))),
        # the ground run through the 2 clue wraps round the loop's first cell
        (((0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2),
          (3, 2), (2, 2), (2, 3), (1, 3), (1, 2), (0, 2)), (
            Violation(2, "ground run through (0, 1) has length 3, clue says 2",
                      ((0, 2), (0, 1), (1, 1))),)),
        # one run breaks two clues
        (((3, 1), (3, 2), (4, 2), (4, 1)), (
            Violation(1, "numbered cell (0, 1) is not on the loop", ((0, 1),)),
            Violation(2, "ground run through (3, 1) has length 2, clue says 3",
                      ((3, 1), (3, 2))),
            Violation(2, "ground run through (3, 2) has length 2, clue says 1",
                      ((3, 1), (3, 2))))),
        (((3, 3), (4, 3), (4, 4), (3, 4)), (
            Violation(1, "numbered cell (0, 1) is not on the loop", ((0, 1),)),
            Violation(1, "numbered cell (3, 1) is not on the loop", ((3, 1),)),
            Violation(1, "numbered cell (3, 2) is not on the loop", ((3, 2),)),
            Violation(3, "loop passes 3 consecutive water cells starting (4, 3)",
                      ((4, 3), (4, 4), (3, 4))))),
    ], ids=["rule 1", "rule 2", "rule 2 twice", "rule 3"])
    def test_violations_pinned(self, ww_fixture, cells, violations):
        # every rule's breaches in order, with their messages and cells:
        # the missed clues in board order, then the runs in loop order
        assert verify_ww(ww_fixture, loop(*cells)).violations == violations

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
        text = emit_ww(compile_ww(g, plan_by_rule(g, rule)))
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
                plan = plan_by_rule(g, rule)
                inst = compile_ww(g, plan)
                tiling = GADGET.tile(g, plan)
                for u, w in sorted(g.edges):
                    d = Direction((w[0] - u[0], w[1] - u[1]))
                    a = metacell_exit(u, tiling[u], d)
                    b = metacell_exit(w, tiling[w], d.opposite())
                    assert b == (a[0] + d.dx, a[1] + d.dy)
                    crossing = [(a[0] - d.dx, a[1] - d.dy), a, b, (b[0] + d.dx, b[1] + d.dy)]
                    assert [c in inst.ground for c in crossing] == [True, False, False, True]

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
                a = metacell_exit((0, 0), turns_a, Direction.E)
                b = metacell_exit((1, 0), turns_b, Direction.W)
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
        inst = oracles.ww_board(4, 4, frozenset({(1, 1)}), {(1, 1): 1})
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
        assert res.nodes == 540 and len(res.loops) == 144 and res.exhausted

    def test_frontier0_refuted_within_its_budget(self):
        # the 4x4 board the solve benchmark runs under 50,000 nodes; the
        # walk without the pocket test stops there undecided, and the one
        # without the table of resolved nodes needs 43,189
        g = random_candidate_subgraph(4, 4, random.Random("frontier/0"))
        res = solve_ww(compile_ww(g, plan_for(g)), mode="first", budget=50_000)
        assert res.exhausted and not res.loops and res.nodes == 501

    def test_seed7_2x3_anchored_oracle_keeps_the_old_counts(self):
        # rooting at the smallest clue cell, and then acting on split
        # fills, moved the two pins above; the per-anchor walks over the
        # walk from before the split prune, with its finishing cells, keep
        # their own counts
        g = random_candidate_subgraph(2, 3, random.Random(7))
        inst = compile_ww(g, plan_for(g))
        with mock.patch.object(waterwalk, "search_loops", anchored_search_loops), \
                mock.patch.object(oracles, "_walk", unsplit_walk):
            first = solve_ww(inst, mode="first")
            every = solve_ww(inst, mode="all")
        assert first.nodes == 3956 and len(first.loops) == 1
        assert every.nodes == 9006 and len(every.loops) == 144

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


# Boards measured by the README and ROADMAP that the walk without its table
# of resolved nodes stopped on at 2,000,000 nodes or refuted in 1,901,161
# (6x6 seed 7): (cols, rows, seed of random_candidate_subgraph, nodes)
BASELINE_BOARDS = [
    (5, 5, 7, 4_752),
    (5, 5, "ham/5/1", 3_832),
    (6, 6, 7, 629),
    (6, 6, "ham/6/5", 848),
    (6, 6, "ham/6/16", 1_061),
    (8, 8, "ham/8/51", 785),
]


# each case is named by its board alone, so a pinned count that moves
# leaves the test's id as it is
@pytest.mark.parametrize("cols, rows, seed, nodes", BASELINE_BOARDS, ids=[
    f"{cols}x{rows} " + (f"seed {seed}" if isinstance(seed, int) else seed)
    for cols, rows, seed, _ in BASELINE_BOARDS])
def test_baseline_board_decided(cols, rows, seed, nodes):
    # a first loop lifts to a Hamiltonian cycle of the source, and a
    # refutation is exhaustive on a source that has none
    g = random_candidate_subgraph(cols, rows, random.Random(seed))
    plan = plan_for(g)
    inst = compile_ww(g, plan)
    res = solve_ww(inst, mode="first")
    assert bool(res.loops) == (find_hamiltonian_cycle(g) is not None)
    assert res.nodes == nodes
    if res.loops:
        assert verify_ww(inst, res.loops[0]).ok
        assert lift_solution(g, plan, res.loops[0], "ww").is_cycle_of(g)
    else:
        assert res.exhausted


class TestTable:
    """The table of resolved nodes under the Water Walk rules, kept from a
    walk's first node (``loopsearch.LATE`` at 0) or begun mid-walk, against
    brute force, the walk that floods at every node with the same table
    (``oracles.full_fill_walk``) and the one with no table
    (``oracles.unsplit_walk``)."""

    # a 3x4 board whose walk with a table from its first node stores nodes
    # that closed and went on, finds keys again and replays nodes that
    # closed
    BOARD = WwInstance(3, 4, "..3.~.~...~~")

    @pytest.mark.parametrize("late", [0, 1, 9, 40])
    def test_loops_that_close_and_go_on(self, late, monkeypatch):
        monkeypatch.setattr(loopsearch, "LATE", 10**9)
        unkept = solve_ww(self.BOARD, mode="all")
        monkeypatch.setattr(loopsearch, "LATE", late)
        res = solve_ww(self.BOARD, mode="all")
        brute = {l.canonical().cells for l in all_loops_on_board(3, 4)
                 if verify_ww(self.BOARD, l).ok}
        assert res.exhausted and len(res.loops) == 13
        assert {l.cells for l in res.loops} == brute
        assert res.loops == unkept.loops and res.nodes < unkept.nodes
        check_against_full_fill(solve_ww, self.BOARD, "all")
        check_against_unsplit(solve_ww, self.BOARD, "all")

    def test_every_small_board_from_the_first_node(self, ww_fixture, monkeypatch):
        insts = [ww_fixture, *random_boards()]
        insts += [compile_ww(g, plan_for(g)) for cols, rows in ((2, 2), (2, 3), (3, 2))
                  for g in enumerate_candidate_subgraphs(cols, rows)]
        monkeypatch.setattr(loopsearch, "LATE", 10**9)
        unkept = [solve_ww(inst, mode="all") for inst in insts]
        monkeypatch.setattr(loopsearch, "LATE", 0)
        for inst, old in zip(insts, unkept):
            res = solve_ww(inst, mode="all")
            assert res.loops == old.loops and res.exhausted
            check_against_full_fill(solve_ww, inst, "all")
            check_against_unsplit(solve_ww, inst, "all")


@st.composite
def small_boards(draw):
    """A Water Walk board up to 4x4, mostly ground, with at most two clues
    of 3-6: boards with many loops, so that walks are long enough to meet
    their keys again."""
    width, height = draw(st.sampled_from([(3, 4), (4, 3), (4, 4)]))
    n = width * height
    cells = list(draw(st.text(st.sampled_from("~~......"), min_size=n, max_size=n)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        cells[i] = str(draw(st.integers(3, 6)))
    return WwInstance(width, height, "".join(cells))


@settings(max_examples=80, deadline=None)
@given(small_boards(), st.integers(0, 60))
def test_table_begun_anywhere_keeps_every_loop(board, late):
    # the same loops in the same order as the walk with no table, never at
    # more nodes, and exactly the loops brute force accepts
    with mock.patch.object(loopsearch, "LATE", 10**9):
        unkept = solve_ww(board, mode="all")
    with mock.patch.object(loopsearch, "LATE", late):
        res = solve_ww(board, mode="all")
    assert res.loops == unkept.loops and res.exhausted
    assert res.nodes <= unkept.nodes
    brute = {l.canonical().cells for l in all_loops_on_board(board.width, board.height)
             if verify_ww(board, l).ok}
    assert {l.cells for l in res.loops} == brute


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
        inst = oracles.ww_board(ww_fixture.width, ww_fixture.height, ww_fixture.ground, {})
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
        # the pocket test and the table refute the board inside the
        # 20,000-node prefix; the unsplit walk, which has neither, is still
        # searching there, so the two are compared over a prefix the engine
        # also spends
        g = random_candidate_subgraph(3, 4, random.Random(7))
        inst = compile_ww(g, plan_for(g))
        trace = check_against_full_fill(solve_ww, inst, "first", 20_000)
        assert trace == [("end", 747)]
        trace = check_against_unsplit(solve_ww, inst, "first", 700)
        assert trace == [("budget", 701), ("raised", 701)]
