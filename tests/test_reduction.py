import dataclasses
import hashlib
import random
import re
import sys

import pytest

from loopforge import aon, loopsearch, reduction, waterwalk
from loopforge.errors import CompileError, LiftError, SearchBudgetExceeded
from loopforge.framework import (
    Direction,
    ExitPlan,
    mutual_facing_holds,
    plan_for,
    rotate_cell,
)
from loopforge.fileio import emit_loop
from loopforge.hamilton import (
    enumerate_candidate_subgraphs,
    find_hamiltonian_cycle,
    hamiltonian_cycles,
    random_candidate_subgraph,
)
from loopforge.loopsearch import LoopConstraint, search_loops, search_paths
from loopforge.model import (
    LoopPath,
    board_cells,
    canonical_edge,
    full_grid,
    grid_graph,
    regions_from_labels,
)
from loopforge.reduction import (
    certify_gadget,
    emit_certificate,
    emit_roundtrip_report,
    embed_cycle,
    lift_solution,
    puzzle_of,
    roundtrip_experiment,
)

from oracles import (
    check_against_full_fill,
    check_against_unsplit,
    check_budgeted_against_full_fill,
    plan_by_rule,
)

# exhaustively measured traversal counts of the 11x11 gadget, pinned as
# regression values after the first complete enumeration
AON_PAIR_COUNTS = {
    frozenset({Direction.E, Direction.N}): 593,
    frozenset({Direction.E, Direction.W}): 853,
    frozenset({Direction.N, Direction.W}): 694,
}

WW_PAIR_COUNTS = {
    frozenset({Direction.S, Direction.E}): 2,
    frozenset({Direction.N, Direction.E}): 2,
    frozenset({Direction.S, Direction.N}): 3,
}

# sha256 of emit_certificate(certify_gadget(puzzle, turns=t)) for t = 0..3:
# the certificates are pinned byte for byte, counts, findings and nodes
WW_CERT_SHA256 = (
    "932d03c06ccd9964134999004e034b64f03903588ccb415e52e739cf6197017a",
    "5e95fa954aa090fa27fdf38084d0283016b17004637d01f8229a2a5fecb1329f",
    "78d2c12b6ca4f157bf0665ec711225cb8cc8c54cd70e225123994fbc7e832f11",
    "1a61451aa796b1e95b2aaaa9d47e938c333047b08863236168a6d4c7b0c06fac",
)
AON_CERT_SHA256 = (
    "f1dea820f086ab7019718dbd2e1b0410b13eb8217ebcf9817c8fb4e26f7d03fb",
    "139d1969b13f7b9dc6759d311b847b5704dbb24738ddcccab64350c0c97ea7ac",
    "612b3c33a638542def2b47762a71d25fa592a4ac69a95d83e3e256f74ebe26db",
    "dfb86b2b5f4bd19b8ebec5284b86d0e7b9be30df7f85deaece9d0692bc3d39f4",
)

# sha256 of every traversal list of certify_gadget(puzzle, turns=t), in the
# order the search found them (see ``traversal_digest``), for t = 0..3: the
# paths themselves, not only their counts
TRAVERSAL_SHA256 = {
    "aon": ("918e320f827fa46ff15cf301170f726874d33bad3a452a228ea3e65c929da01a",
            "2b41678b184f9c771c77fd5f038bd0fbaca307f3a72b45eee2de12ccd5d392cb",
            "fc799ee2f45cf787f77cbccce4e378515789994f0767ef10d95b3a908a0f70a3",
            "e192f5b0dd7200e15efccd64dedd83ed392f9598e17def496e92244d34bf601c"),
    "ww": ("f38a1239d9476c9d356ccf58266c9c07e9617981196fc7983bf0f61d526f24ba",
           "7ed65e76508514ee2db8284acba56646e1ec5863c08aca32bcb0ac592e2279ef",
           "15a420007dd8573b49cc492b05c29448712f574a5895e2cbca28578cb5f99c79",
           "3bd9dd7a02716dac494700d5deda84d35cd37573e236ec49e919795a644a5970"),
}


# sha256 of emit_loop(embed_cycle(...).loop) for the first Hamiltonian cycle
# of random_candidate_subgraph(4, 4, random.Random(7)), per puzzle and rule
EMBED_4X4_SHA256 = {
    ("aon", "lex"): "569d2fc8d5b8d4e85728c4b8f19ec36c34788a0c8a0447acaf155dabe958cac6",
    ("aon", "antilex"): "cf6b57d3e067be486d6fa65399234dc0a06481c29b424215e2207a35a43b51f0",
    ("ww", "lex"): "edb734eaa061c3b7b9375d4fc51045917e8045848c1f305e79e77f9d20a494b0",
    ("ww", "antilex"): "edb734eaa061c3b7b9375d4fc51045917e8045848c1f305e79e77f9d20a494b0",
}


def emit_digest(cert):
    return hashlib.sha256(emit_certificate(cert).encode()).hexdigest()


def traversal_digest(cert):
    """sha256 of the certificate's traversals: per exit pair, by name, a
    line naming it, then one line per path in the order it was found."""
    h = hashlib.sha256()
    for pair in sorted(cert.traversals, key=lambda k: sorted(d.name for d in k)):
        h.update(("pair " + " ".join(sorted(d.name for d in pair)) + "\n").encode())
        for path in cert.traversals[pair]:
            h.update((" ".join(f"{x},{y}" for x, y in path) + "\n").encode())
    return h.hexdigest()


def hamiltonian_candidates(*dims_list):
    for dims in dims_list:
        for g in enumerate_candidate_subgraphs(*dims):
            for cycle in hamiltonian_cycles(g):
                yield g, cycle
                break  # one cycle per graph is enough here


class TestEmbed:
    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_embedded_cycles_verify(self, puzzle):
        p = puzzle_of(puzzle)
        for g, cycle in hamiltonian_candidates((2, 2), (2, 3)):
            plan = plan_for(g)
            inst = p.compile(g, plan)
            witness = embed_cycle(g, plan, cycle, puzzle)
            assert p.verify(inst, witness.loop).ok

    def test_witness_sides_are_plan_exits(self):
        g = full_grid(2, 2)
        plan = plan_for(g)
        (cycle,) = hamiltonian_cycles(g)
        witness = embed_cycle(g, plan, cycle, "ww")
        for v, (entry, exit_) in zip(witness.vertex_order, witness.sides):
            assert entry in plan.exits(v) and exit_ in plan.exits(v)

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_embedding_locality(self, puzzle):
        # the loop restricted to each metacell frame is exactly the rotated
        # canonical local traversal
        gadget = puzzle_of(puzzle).gadget
        g = full_grid(2, 2)
        plan = plan_for(g)
        (cycle,) = hamiltonian_cycles(g)
        witness = embed_cycle(g, plan, cycle, puzzle)
        frame = gadget.frame
        for v, (entry, exit_) in zip(witness.vertex_order, witness.sides):
            turns = gadget.tile(g, plan)[v]
            piece = gadget.paths[frozenset({entry.rotated(-turns), exit_.rotated(-turns)})][0]
            expected = {
                (frame * v[0] + rotate_cell(frame, turns, c)[0],
                 frame * v[1] + rotate_cell(frame, turns, c)[1])
                for c in piece}
            got = {c for c in witness.loop.cells
                   if c[0] // frame == v[0] and c[1] // frame == v[1]}
            assert got == expected

    @pytest.mark.parametrize("puzzle, rule", sorted(EMBED_4X4_SHA256))
    def test_embedding_pinned_byte_for_byte(self, puzzle, rule):
        g = random_candidate_subgraph(4, 4, random.Random(7))
        loop = embed_cycle(g, plan_by_rule(g, rule), find_hamiltonian_cycle(g), puzzle).loop
        digest = hashlib.sha256(emit_loop(loop).encode()).hexdigest()
        assert digest == EMBED_4X4_SHA256[(puzzle, rule)]

    def test_not_a_cycle_rejected(self):
        g = full_grid(2, 3)
        plan = plan_for(g)
        other = full_grid(2, 2)
        (cycle,) = hamiltonian_cycles(other)
        with pytest.raises(ValueError):
            embed_cycle(g, plan, cycle, "ww")

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_plan_for_another_graph_rejected(self, puzzle):
        # the compiler refuses this pair; the embedding must too, not
        # assemble a loop from the other graph's exits
        g = full_grid(2, 2)
        (cycle,) = hamiltonian_cycles(g)
        other_plan = plan_for(full_grid(2, 3))
        with pytest.raises(CompileError):
            puzzle_of(puzzle).compile(g, other_plan)
        with pytest.raises(CompileError):
            embed_cycle(g, other_plan, cycle, puzzle)

    def test_every_stored_ww_path_embeds_cleanly(self, monkeypatch):
        # rotate the path tables so each stored traversal gets picked as the
        # canonical one somewhere; junction water runs and clue runs must
        # hold for all of them
        ring23 = next(iter(enumerate_candidate_subgraphs(2, 3)))
        square = full_grid(2, 2)
        for k in range(3):
            patched = {
                pair: paths[k % len(paths):] + paths[:k % len(paths)]
                for pair, paths in waterwalk.GADGET_PATHS.items()
            }
            monkeypatch.setattr(waterwalk, "GADGET",
                                dataclasses.replace(waterwalk.GADGET, paths=patched))
            for g in (square, ring23):
                plan = plan_for(g)
                cycle = next(iter(hamiltonian_cycles(g)))
                inst = waterwalk.compile_ww(g, plan)
                witness = embed_cycle(g, plan, cycle, "ww")
                assert waterwalk.verify_ww(inst, witness.loop).ok

    def test_corrupted_path_table_is_caught_by_verifier(self, monkeypatch):
        # drop the detour through the wall notch: the loop stays well formed
        # but leaves two big-region cells unvisited
        key = frozenset({Direction.W, Direction.N})
        original = aon.GADGET_PATHS[key][0]
        i = original.index((5, 3))
        corrupted = original[:i] + original[i + 2:]
        assert (5, 3) not in corrupted and (6, 3) not in corrupted
        patched = dict(aon.GADGET_PATHS)
        patched[key] = (corrupted,)
        monkeypatch.setattr(aon, "GADGET", dataclasses.replace(aon.GADGET, paths=patched))

        g = full_grid(2, 2)
        plan = plan_for(g)
        (cycle,) = hamiltonian_cycles(g)
        inst = aon.compile_aon(g, plan)
        witness = embed_cycle(g, plan, cycle, "aon")
        verdict = aon.verify_aon(inst, witness.loop)
        assert not verdict.ok and 1 in verdict.rules_broken()


class TestLift:
    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_lift_inverts_embed(self, puzzle):
        for g, cycle in hamiltonian_candidates((2, 2), (2, 3)):
            plan = plan_for(g)
            witness = embed_cycle(g, plan, cycle, puzzle)
            lifted = lift_solution(g, plan, witness.loop, puzzle)
            assert lifted.canonical() == cycle.canonical()

    def test_off_midline_crossing_fails(self):
        # a small square hugging the corner of two metacells crosses their
        # shared border away from the exit cells
        g = full_grid(2, 2)
        plan = plan_for(g)
        bad = LoopPath(((4, 0), (5, 0), (5, 1), (4, 1)))
        with pytest.raises(LiftError, match=r"^crossing at \(4, 0\) is off the exit midline "
                                            r"of metacell \(0, 0\)$"):
            lift_solution(g, plan, bad, "ww")

    def test_a_metacell_visited_in_two_pieces_fails(self):
        # the loop enters (1, 0) at its west exit, goes back into (0, 0)
        # and round to (1, 0) again, so each is visited in two pieces.
        # A side has one exit cell and a loop's cells are distinct, so a
        # metacell's three exits let it be crossed 0 or 2 times only: the
        # crossing that starts a second piece is off its exit midline
        g = full_grid(2, 2)
        plan = plan_for(g)
        assert puzzle_of("ww").gadget.frame == 5
        bad = LoopPath(((4, 2), (5, 2), (6, 2), (6, 1), (5, 1), (4, 1), (4, 0), (5, 0),
                        (6, 0), (7, 0), (7, 1), (7, 2), (7, 3), (6, 3), (5, 3), (4, 3),
                        (3, 3), (3, 2)))
        with pytest.raises(LiftError, match=r"^crossing at \(5, 1\) is off the exit midline "
                                            r"of metacell \(1, 0\)$"):
            lift_solution(g, plan, bad, "ww")

    def test_unvisited_metacell_fails(self):
        g = full_grid(2, 2)
        plan = plan_for(g)
        # valid-shaped loop inside a single metacell
        bad = LoopPath(((1, 1), (2, 1), (2, 2), (1, 2)))
        with pytest.raises(LiftError, match=r"^metacell \(0, 0\) is crossed 0 times, expected 2$"):
            lift_solution(g, plan, bad, "ww")

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_crossing_over_a_non_exit_side_fails(self, puzzle):
        # the 2x3 ring: vertex (1, 1) has no edge to (0, 1), and its
        # non-exit side faces it; a square on that side's midline crosses
        # it from (1, 1) first
        g = grid_graph(2, 3, full_grid(2, 3).edges - {((0, 1), (1, 1))})
        plan = plan_for(g)
        assert plan.non_exits[1, 1] is Direction.W
        n = puzzle_of(puzzle).gadget.frame
        mid = n + n // 2
        bad = LoopPath(((n, mid), (n - 1, mid), (n - 1, mid + 1), (n, mid + 1)))
        with pytest.raises(LiftError, match=r"^loop crosses a non-exit side W of metacell "
                                            r"\(1, 1\)$"):
            lift_solution(g, plan, bad, puzzle)

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_plan_for_another_graph_rejected(self, puzzle):
        g = full_grid(2, 2)
        (cycle,) = hamiltonian_cycles(g)
        loop = embed_cycle(g, plan_for(g), cycle, puzzle).loop
        with pytest.raises(CompileError):
            lift_solution(g, plan_for(full_grid(2, 3)), loop, puzzle)

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    @pytest.mark.parametrize("dx, dy", [(-1, 0), (1, 0), (0, -1), (0, 1)])
    def test_crossing_into_a_metacell_outside_the_graph_fails(self, puzzle, dx, dy):
        # the embedded loop moved one frame over crosses into metacells
        # beyond the 2x2 graph.  Moved north, it first leaves metacell
        # (0, 1) by its north side, a non-exit, and that is named first
        g = full_grid(2, 2)
        plan = plan_for(g)
        (cycle,) = hamiltonian_cycles(g)
        frame = puzzle_of(puzzle).gadget.frame
        cells = embed_cycle(g, plan, cycle, puzzle).loop.cells
        moved = LoopPath(tuple((x + dx * frame, y + dy * frame) for x, y in cells))
        message = {(-1, 0): "loop enters metacell (-1, 0) outside the graph",
                   (1, 0): "loop enters metacell (2, 1) outside the graph",
                   (0, -1): "loop enters metacell (0, -1) outside the graph",
                   (0, 1): "loop crosses a non-exit side N of metacell (0, 1)"}[dx, dy]
        with pytest.raises(LiftError, match=f"^{re.escape(message)}$"):
            lift_solution(g, plan, moved, puzzle)

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_crossing_over_a_side_that_is_no_graph_edge_fails(self, puzzle):
        # the full 2x3 grid's cycle, lifted against the grid less one of its
        # edges under the same exit sides: every crossing is at an exit, yet
        # one is over a side that is no edge of that graph, as the plan's
        # mutual-facing check tells
        g = full_grid(2, 3)
        plan = plan_for(g)
        (cycle,) = hamiltonian_cycles(g)
        loop = embed_cycle(g, plan, cycle, puzzle).loop
        cut = grid_graph(2, 3, g.edges - {canonical_edge(*cycle.vertices[:2])})
        cut_plan = ExitPlan(cut, plan.non_exits)
        assert mutual_facing_holds(g, plan) and not mutual_facing_holds(cut, cut_plan)
        with pytest.raises(LiftError, match="^induced vertex sequence is not a "
                                            "Hamiltonian cycle of the graph$"):
            lift_solution(cut, cut_plan, loop, puzzle)

    @pytest.mark.parametrize("puzzle", ["aon", "ww"])
    def test_solver_solutions_lift_to_hamiltonian_cycles(self, puzzle):
        p = puzzle_of(puzzle)
        for g in enumerate_candidate_subgraphs(2, 3):
            plan = plan_for(g)
            inst = p.compile(g, plan)
            res = p.solve(inst, mode="first", budget=5_000_000)
            assert res.loops, "expected a solution on a Hamiltonian candidate"
            lifted = lift_solution(g, plan, res.loops[0], puzzle)
            assert lifted.is_cycle_of(g)


class TestCertificates:
    def test_ww_counts(self):
        cert = certify_gadget("ww")
        assert cert.pair_counts == WW_PAIR_COUNTS
        assert all(n == 0 for n in cert.blocked_side_counts.values())
        assert len(cert.blocked_side_counts) == 3
        assert "locally-unique no" in cert.findings

    def test_ww_table_matches_enumeration(self):
        cert = certify_gadget("ww")
        for pair, stored in waterwalk.GADGET_PATHS.items():
            enumerated = set(cert.traversals[pair])
            enumerated |= {tuple(reversed(p)) for p in cert.traversals[pair]}
            assert set(stored) <= enumerated
            assert len(stored) == len(cert.traversals[pair])

    def test_aon_counts_pinned(self, aon_certificate):
        cert = aon_certificate
        assert cert.pair_counts == AON_PAIR_COUNTS
        assert all(n >= 1 for n in cert.pair_counts.values())
        assert any(n >= 2 for n in cert.pair_counts.values())
        assert "parts-entered no" in cert.findings
        assert "one-cell-entered no" in cert.findings
        assert "rule-permitted-escapes 0" in cert.findings
        assert "fixed-markers-leaves 3" in cert.findings
        assert "rim-markers-leaves 6" in cert.findings
        assert "one-cell-enclosed-by 1" in cert.findings
        assert "locally-unique no" in cert.findings

    def test_equality_sees_counts_not_wall_time(self):
        # two runs, each taking its own time, give equal certificates
        a, b = certify_gadget("ww"), certify_gadget("ww")
        assert a == b
        raised = {k: n + 1 for k, n in a.pair_counts.items()}
        assert a != dataclasses.replace(a, pair_counts=raised)
        blocked = {k: n + 1 for k, n in a.blocked_side_counts.items()}
        assert a != dataclasses.replace(a, blocked_side_counts=blocked)
        assert a != dataclasses.replace(a, traversals={})

    def test_certificate_leaves_recursion_limit_alone(self):
        limit = sys.getrecursionlimit()
        certify_gadget("ww")
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("turns", [1, 2, 3])
    def test_ww_counts_invariant_under_rotation(self, turns):
        base = certify_gadget("ww")
        rotated = certify_gadget("ww", turns=turns)
        base_counts = {frozenset(d.rotated(turns) for d in k): v
                       for k, v in base.pair_counts.items()}
        assert rotated.pair_counts == base_counts
        assert rotated.findings == base.findings
        assert rotated.nodes == base.nodes

    @pytest.mark.parametrize("turns", [1, 2, 3])
    def test_aon_counts_invariant_under_rotation(self, turns, aon_certificate):
        rotated = certify_gadget("aon", turns=turns)
        base_counts = {frozenset(d.rotated(turns) for d in k): v
                       for k, v in aon_certificate.pair_counts.items()}
        assert rotated.pair_counts == base_counts
        assert rotated.findings == aon_certificate.findings
        assert rotated.nodes == aon_certificate.nodes
        assert emit_digest(rotated) == AON_CERT_SHA256[turns]
        assert traversal_digest(rotated) == TRAVERSAL_SHA256["aon"][turns]

    def test_aon_certificate_spends_as_much_again(self, aon_certificate):
        # each walk keeps its own table of resolved nodes, so a second
        # certificate in the process walks as many nodes as the first
        again = certify_gadget("aon")
        assert again == aon_certificate
        assert again.nodes == aon_certificate.nodes == 22_023

    @pytest.mark.parametrize("puzzle", ["ww", "aon"])
    @pytest.mark.parametrize("turns", [4, 5, -1])
    def test_turns_are_taken_modulo_four(self, puzzle, turns):
        # the emission holds the pair counts, blocked-side counts and
        # findings: any turns give the certificate of their remainder by 4
        pins = {"ww": WW_CERT_SHA256, "aon": AON_CERT_SHA256}[puzzle]
        assert emit_digest(certify_gadget(puzzle, turns=turns)) == pins[turns % 4]

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_ww_emission_pinned(self, turns):
        cert = certify_gadget("ww", turns=turns)
        assert emit_digest(cert) == WW_CERT_SHA256[turns]
        assert traversal_digest(cert) == TRAVERSAL_SHA256["ww"][turns]

    def test_aon_emission_pinned(self, aon_certificate):
        assert emit_digest(aon_certificate) == AON_CERT_SHA256[0]
        assert traversal_digest(aon_certificate) == TRAVERSAL_SHA256["aon"][0]


    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_ww_walks_match_full_fill(self, turns):
        # one pinned-path walk per exit pair and per blocked-side probe
        trace = check_against_full_fill(certify_gadget, "ww", None, turns, budget=50)
        check_against_unsplit(certify_gadget, "ww", None, turns, budget=50)
        assert sum(1 for event in trace if event[0] == "path") == 7

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_ww_walks_with_a_table_from_the_first_node(self, turns, monkeypatch):
        # the walks are shorter than loopsearch.LATE, so they keep no table
        # unless it begins at once; with it the traversals stay the same
        monkeypatch.setattr(loopsearch, "LATE", 0)
        assert traversal_digest(certify_gadget("ww", turns=turns)) == TRAVERSAL_SHA256["ww"][turns]
        check_against_full_fill(certify_gadget, "ww", None, turns, budget=50)
        check_against_unsplit(certify_gadget, "ww", None, turns, budget=50)

    def test_aon_walks_match_full_fill_within_a_budget(self):
        # the certificate's 22,023 nodes compared over their first 2,000:
        # the first 110 traversals of the E-N pair
        trace = check_budgeted_against_full_fill(certify_gadget, "aon", None, 0)
        assert [event[0] for event in trace] == ["path"] * 110 + ["budget", "raised"]

    def test_harness_and_audit_are_looked_up_at_call_time(self, monkeypatch):
        calls = []
        for name in ("gadget_harness", "gadget_audit"):
            def counted(*args, _orig=getattr(waterwalk, name), _name=name):
                calls.append(_name)
                return _orig(*args)
            monkeypatch.setattr(waterwalk, name, counted)
        cert = certify_gadget("ww", turns=1)
        assert calls == ["gadget_harness", "gadget_audit"]
        assert emit_digest(cert) == WW_CERT_SHA256[1]

    @pytest.mark.parametrize("puzzle, nodes, digest", [("ww", 402, WW_CERT_SHA256[0]),
                                                       ("aon", 22_023, AON_CERT_SHA256[0])],
                             ids=["ww", "aon"])
    def test_budget_bounds_the_whole_certificate(self, puzzle, nodes, digest):
        # every search of the certificate needs fewer nodes than it does
        with pytest.raises(SearchBudgetExceeded) as e:
            certify_gadget(puzzle, budget=nodes - 1)
        assert e.value.nodes == nodes
        assert emit_digest(certify_gadget(puzzle, budget=nodes)) == digest

    @pytest.mark.parametrize("arm, entered", [
        ([(10, y) for y in range(6, 11)] + [(x, 10) for x in range(5, 10)],
         ("parts-entered yes", "one-cell-entered no")),
        ([(5, y) for y in range(6, 11)], ("parts-entered no", "one-cell-entered yes")),
    ])
    def test_traversals_out_of_the_big_region_flip_the_audit(self, monkeypatch, arm, entered):
        # a harness domain of the W-E midline and one arm up to the N exit,
        # through the east and north filler parts or through the one-cell
        # region: both traversals that end at N leave the big region
        domain = sorted({(x, 5) for x in range(aon.FRAME)} | set(arm))
        monkeypatch.setattr(aon, "gadget_harness", lambda turns: (domain, [], LoopConstraint))
        cert = certify_gadget("aon")
        assert cert.findings[:3] == (*entered, "rule-permitted-escapes 2")

    @pytest.mark.parametrize("turns", [1, 2, 3])
    def test_aon_audit_reads_the_rotated_board(self, monkeypatch, turns):
        # the fixed marker (1, 7) moved into the big region on the board
        # rotated by ``turns`` alone: its part keeps two leaves
        board = aon.gadget_board

        def altered(t):
            inst = board(t)
            if t != turns:
                return inst
            marker, exit_cell = aon.GADGET.place(
                t, [aon.FIXED_LEAF_CELLS[0], aon.GADGET_EXIT_CELLS[Direction.W]])
            labels = dict(zip(board_cells(aon.FRAME, aon.FRAME), inst.regions.ids))
            labels[marker] = labels[exit_cell]
            return dataclasses.replace(
                inst, regions=regions_from_labels(aon.FRAME, aon.FRAME, labels))

        _, before = aon.gadget_audit(turns, {}, None)
        monkeypatch.setattr(aon, "gadget_board", altered)
        _, after = aon.gadget_audit(turns, {}, None)
        assert [(a, b) for a, b in zip(before, after) if a != b] == [
            ("part 0 6 leaves 3", "part 0 6 leaves 2"),
            ("fixed-markers-leaves 3", "fixed-markers-leaves 2")]

    def test_certificate_emission_schema(self):
        text = emit_certificate(certify_gadget("ww"))
        lines = text.strip().splitlines()
        assert lines[0] == "certificate ww"
        assert "pair E N count 2" in lines
        assert "pair N S count 3" in lines
        assert "pair E W count 0" in lines
        assert lines[-1].startswith("nodes ")

    def test_emission_deterministic(self):
        a = emit_certificate(certify_gadget("ww"))
        b = emit_certificate(certify_gadget("ww"))
        assert a == b


class TestBudgets:
    @staticmethod
    def entries(budget):
        g = full_grid(2, 2)
        plan = plan_for(g)
        cells = sorted(g.vertices())
        return {
            "search_loops": lambda: search_loops(cells, cells, LoopConstraint, budget=budget),
            "search_paths": lambda: search_paths(cells, (0, 0), (1, 0), cells, LoopConstraint,
                                                 budget=budget),
            "find_hamiltonian_cycle": lambda: find_hamiltonian_cycle(g, budget),
            "solve_aon": lambda: aon.solve_aon(aon.compile_aon(g, plan), budget=budget),
            "solve_ww": lambda: waterwalk.solve_ww(waterwalk.compile_ww(g, plan), budget=budget),
            "certify_gadget": lambda: certify_gadget("ww", budget=budget),
            "roundtrip_experiment solver": lambda: roundtrip_experiment(
                2, 2, "ww", solver_budget=budget),
            "roundtrip_experiment ham": lambda: roundtrip_experiment(2, 2, "ww", ham_budget=budget),
        }

    @pytest.mark.parametrize("name", sorted(entries(0)))
    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_rejected(self, name, budget):
        with pytest.raises(ValueError, match=f"budget must be at least 0, got {budget}"):
            self.entries(budget)[name]()

    @pytest.mark.parametrize("name", ["search_loops", "search_paths", "find_hamiltonian_cycle",
                                      "solve_aon", "solve_ww", "certify_gadget"])
    def test_zero_budget_stops_at_the_first_node(self, name):
        with pytest.raises(SearchBudgetExceeded) as e:
            self.entries(0)[name]()
        assert e.value.nodes == 1


class TestRoundtrip:
    def test_square_both_puzzles(self):
        for puzzle in ("aon", "ww"):
            report = roundtrip_experiment(2, 2, puzzle)
            assert len(report.results) == 1
            (r,) = report.results
            assert r.hamiltonian == "yes" and r.solvable == "yes"
            assert r.lift_ok is True and r.agreement is True

    def test_report_schema(self):
        report = roundtrip_experiment(2, 2, "ww")
        text = emit_roundtrip_report(report)
        lines = text.strip().splitlines()
        assert lines[0] == "roundtrip ww 2 2"
        assert lines[1] == "instance 0 hamiltonian yes solvable yes lift ok agreement yes"
        assert lines[-1] == "summary instances 1 agreements 1 disagreements 0 timeouts 0"

    def test_timeouts_never_count_as_agreement(self):
        report = roundtrip_experiment(2, 3, "aon", solver_budget=10)
        assert report.disagreements == 0
        assert report.timeouts == len(report.results)
        assert all(r.agreement is None for r in report.results)

    def test_a_hamiltonian_budget_stop_is_a_timeout(self):
        # a Hamiltonian search stopped by its budget gives no verdict, so
        # the instance is neither an agreement nor a disagreement
        report = roundtrip_experiment(2, 2, "ww", ham_budget=0)
        (r,) = report.results
        assert r.hamiltonian == "timeout" and r.agreement is None
        assert report.timeouts == 1
        assert report.agreements == report.disagreements == 0

    def test_budget_stops_on_both_sides_are_timeouts(self):
        report = roundtrip_experiment(2, 3, "aon", ham_budget=0, solver_budget=0)
        assert len(report.results) == 2
        assert all(r.hamiltonian == r.solvable == "timeout" for r in report.results)
        assert report.timeouts == 2 and report.agreements == report.disagreements == 0

    def test_3x3_candidates_all_unsolvable(self):
        # the largest exhaustible size is entirely non-Hamiltonian (odd
        # vertex count), so both solvers must prove every compile empty
        for puzzle in ("aon", "ww"):
            report = roundtrip_experiment(3, 3, puzzle, solver_budget=50_000_000)
            assert len(report.results) == 10
            assert report.disagreements == 0 and report.timeouts == 0
            assert all(r.hamiltonian == "no" and r.solvable == "no"
                       for r in report.results)

    @pytest.mark.parametrize("cols, rows", [(3, 4), (4, 3)])
    def test_aon_3x4_decided_within_the_frontier_budget(self, cols, rows):
        # the AoN solver decides every 3x4 and 4x3 compile within 5,000
        # nodes, the budget of the benchmark's AoN frontier boards, and
        # within 600, over the costliest compile's 467
        for budget in (5_000, 600):
            report = roundtrip_experiment(cols, rows, "aon", solver_budget=budget)
            assert len(report.results) == report.agreements == 93
            assert report.timeouts == 0
            solved = [r for r in report.results if r.solvable == "yes"]
            assert len(solved) == 35 and all(r.lift_ok is True for r in solved)


class TestAtScale:
    def test_embed_lift_on_random_6x6_graphs(self):
        import random

        from loopforge.hamilton import random_candidate_subgraph
        from loopforge.hamilton import find_hamiltonian_cycle

        rng = random.Random(99)
        found = 0
        while found < 2:
            g = random_candidate_subgraph(6, 6, rng)
            cycle = find_hamiltonian_cycle(g, budget=3_000_000)
            if cycle is None:
                continue
            found += 1
            for puzzle in ("aon", "ww"):
                p = puzzle_of(puzzle)
                plan = plan_for(g)
                inst = p.compile(g, plan)
                witness = embed_cycle(g, plan, cycle, puzzle)
                assert p.verify(inst, witness.loop).ok
                lifted = lift_solution(g, plan, witness.loop, puzzle)
                assert lifted.canonical() == cycle.canonical()


class TestPuzzleRecord:
    @pytest.mark.parametrize("name", ["xyz", "AON", ""])
    def test_unknown_name_rejected_before_any_work(self, name, monkeypatch):
        g = full_grid(2, 2)
        plan = plan_for(g)
        (cycle,) = hamiltonian_cycles(g)
        loop = embed_cycle(g, plan, cycle, "ww").loop
        with pytest.raises(ValueError):
            puzzle_of(name)
        with pytest.raises(ValueError):
            embed_cycle(g, plan, cycle, name)
        with pytest.raises(ValueError):
            lift_solution(g, plan, loop, name)
        with pytest.raises(ValueError):
            certify_gadget(name)

        def no_graphs(cols, rows):
            pytest.fail("roundtrip enumerated graphs for an unknown puzzle")

        monkeypatch.setattr(reduction, "enumerate_candidate_subgraphs", no_graphs)
        with pytest.raises(ValueError):
            roundtrip_experiment(2, 2, name)

    @pytest.mark.parametrize("mode, cap", [("first", 0), ("first", -2), ("all", 0),
                                           ("every", None)])
    def test_solvers_reject_a_cap_below_one_in_every_mode(self, mode, cap):
        g = full_grid(2, 2)
        plan = plan_for(g)
        for solve, inst in ((aon.solve_aon, aon.compile_aon(g, plan)),
                            (waterwalk.solve_ww, waterwalk.compile_ww(g, plan))):
            with pytest.raises(ValueError, match="cap must be at least 1|unknown mode"):
                solve(inst, mode=mode, cap=cap)

    def test_operations_are_looked_up_at_call_time(self, monkeypatch):
        # a function rebound on the puzzle module after import (as a
        # tracing wrapper is) must be the one every entry point reaches
        calls = []
        for mod, name in ((aon, "compile_aon"), (waterwalk, "solve_ww")):
            def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)

        assert roundtrip_experiment(2, 2, "aon").agreements == 1
        assert roundtrip_experiment(2, 2, "ww").agreements == 1
        assert calls == ["compile_aon", "solve_ww"]

        g = full_grid(2, 2)
        plan = plan_for(g)
        puzzle_of("aon").compile(g, plan)
        ww = puzzle_of("ww")
        assert ww.solve(ww.compile(g, plan)).loops
        assert calls == ["compile_aon", "solve_ww", "compile_aon", "solve_ww"]
