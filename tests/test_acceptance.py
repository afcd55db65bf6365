"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Budgets and tolerances are pinned here, not tuned elsewhere.
"""

import random
import time

from loopforge.aon import (
    GADGET,
    analyze_dead_regions,
    compile_aon,
    verify_aon,
)
from loopforge.framework import Direction, mutual_facing_holds, plan_for
from loopforge.hamilton import (
    enumerate_candidate_subgraphs,
    find_hamiltonian_cycle,
    hamiltonian_cycles,
    random_candidate_subgraph,
)
from loopforge.model import HamCycle, LoopPath, board_cells
from loopforge.reduction import (
    certify_gadget,
    embed_cycle,
    lift_solution,
    puzzle_of,
    roundtrip_experiment,
)
from loopforge.waterwalk import verify_ww

from oracles import (
    big_region_ids,
    candidate_subgraphs_by_subset,
    ham_cycles_by_permutation,
    plan_by_rule,
)


def _report(n, elapsed, detail):
    print(f"\nPASS criterion {n} ({elapsed:.2f}s): {detail}")


def test_criterion_1_ww_gadget_path_counts():
    t0 = time.perf_counter()
    cert = certify_gadget("ww")
    counts = {tuple(sorted(d.name for d in k)): v for k, v in cert.pair_counts.items()}
    assert counts == {("E", "S"): 2, ("E", "N"): 2, ("N", "S"): 3}
    assert all(v == 0 for v in cert.blocked_side_counts.values())
    assert len(cert.blocked_side_counts) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(1, elapsed, "gadget traversals 2/2 adjacent, 3 opposite, 0 through W")


def test_criterion_2_aon_gadget_existence():
    t0 = time.perf_counter()
    cert = certify_gadget("aon")
    assert set(cert.pair_counts) == {
        frozenset({Direction.W, Direction.E}),
        frozenset({Direction.W, Direction.N}),
        frozenset({Direction.E, Direction.N}),
    }
    assert all(v >= 1 for v in cert.pair_counts.values())
    assert any(v >= 2 for v in cert.pair_counts.values())
    assert "parts-entered no" in cert.findings
    assert "one-cell-entered no" in cert.findings
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600
    counts = sorted(cert.pair_counts.values())
    _report(2, elapsed, f"big-region traversals per pair {counts}, no part entered")


def test_criterion_3_fixture_verification(aon_fixture, aon_fixture_loop,
                                          ww_fixture, ww_fixture_loop):
    t0 = time.perf_counter()
    assert verify_aon(aon_fixture, aon_fixture_loop).ok
    assert verify_ww(ww_fixture, ww_fixture_loop).ok

    aon_negatives = {
        1: [((0, 0), (1, 0), (1, 1), (0, 1)),
            ((3, 0), (4, 0), (4, 1), (3, 1)),
            ((1, 3), (2, 3), (2, 4), (1, 4))],
        2: [((1, 1), (2, 1), (2, 0), (3, 0), (4, 0), (4, 1), (3, 1), (3, 2),
             (2, 2), (1, 2)),
            ((1, 3), (2, 3), (2, 2), (3, 2), (4, 2), (4, 3), (3, 3), (3, 4),
             (2, 4), (1, 4)),
            ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 1), (4, 1), (4, 0),
             (3, 0), (2, 0))],
        3: [((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (3, 1), (2, 1),
             (1, 1), (0, 1)),
            ((2, 2), (2, 3), (3, 3), (3, 2)),
            ((0, 2), (1, 2), (1, 3), (0, 3))],
    }
    ww_negatives = {
        1: [((2, 0), (2, 1), (1, 1), (1, 0)),
            ((0, 1), (0, 2), (1, 2), (1, 1)),
            ((2, 2), (2, 3), (3, 3), (3, 2))],
        2: [((0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2),
             (3, 2), (2, 2), (2, 3), (1, 3), (1, 2), (0, 2)),
            ((0, 1), (0, 2), (1, 2), (1, 1)),
            ((3, 1), (3, 2), (4, 2), (4, 1))],
        3: [((1, 2), (1, 3), (2, 3), (2, 2)),
            ((3, 3), (4, 3), (4, 4), (3, 4)),
            ((0, 3), (0, 4), (1, 4), (1, 3))],
    }
    for rule, loops in aon_negatives.items():
        for cells in loops:
            verdict = verify_aon(aon_fixture, LoopPath(cells))
            assert not verdict.ok and rule in verdict.rules_broken()
    for rule, loops in ww_negatives.items():
        for cells in loops:
            verdict = verify_ww(ww_fixture, LoopPath(cells))
            assert not verdict.ok and rule in verdict.rules_broken()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _report(3, elapsed, "fixtures accepted; 9 tagged negatives per puzzle rejected")


def test_criterion_4_dead_region_suite_on_compiled_instances():
    t0 = time.perf_counter()
    instances = 0
    for dims in ((2, 2), (2, 3)):
        for g in enumerate_candidate_subgraphs(*dims):
            for rule in ("lex", "antilex"):
                plan = plan_by_rule(g, rule)
                inst = compile_aon(g, plan)
                instances += 1
                report = analyze_dead_regions(inst)
                decomp = inst.regions
                big = big_region_ids(inst, GADGET.tile(g, plan))
                dead = report.dead_ids()
                for rid, cells in enumerate(decomp.regions):
                    if len(cells) == 1:
                        assert rid in report.enclosing
                    elif rid not in big:
                        assert rid in dead and report.leaf_counts[rid] >= 3
                for x, y in board_cells(inst.width, inst.height):
                    rid = decomp.region_at((x, y))
                    for n in ((x + 1, y), (x, y + 1)):
                        other = decomp.region_at(n)
                        if other is not None and other != rid:
                            assert not (rid in dead and other in dead)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(4, elapsed, f"dead-region arguments hold on {instances} compiled instances")


def test_criterion_5_forward_reduction_completeness():
    t0 = time.perf_counter()
    checked = 0
    for dims in ((2, 2), (2, 3), (3, 3)):
        for g in enumerate_candidate_subgraphs(*dims):
            for cycle in hamiltonian_cycles(g):
                for puzzle in ("aon", "ww"):
                    p = puzzle_of(puzzle)
                    plan = plan_for(g)
                    inst = p.compile(g, plan)
                    witness = embed_cycle(g, plan, cycle, puzzle)
                    assert p.verify(inst, witness.loop).ok
                    lifted = lift_solution(g, plan, witness.loop, puzzle)
                    assert lifted.canonical() == cycle.canonical()
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(5, elapsed, f"{checked} embed/lift roundtrips accepted and inverted")


def test_criterion_6_desk_scale_equivalence():
    t0 = time.perf_counter()
    ww_t0 = time.perf_counter()
    for dims in ((2, 2), (2, 3)):
        report = roundtrip_experiment(*dims, "ww")
        assert report.disagreements == 0
        assert report.timeouts == 0
    ww_elapsed = time.perf_counter() - ww_t0
    assert ww_elapsed <= 900

    aon_t0 = time.perf_counter()
    report = roundtrip_experiment(2, 2, "aon")
    assert report.disagreements == 0
    assert report.timeouts == 0
    aon22_elapsed = time.perf_counter() - aon_t0
    assert aon22_elapsed <= 900

    report = roundtrip_experiment(2, 3, "aon", solver_budget=5_000_000)
    assert report.disagreements == 0  # per-instance timeouts tolerated
    aon23_timeouts = report.timeouts

    elapsed = time.perf_counter() - t0
    _report(6, elapsed,
            f"solvable iff Hamiltonian on all candidates "
            f"(aon 2x3 timeouts: {aon23_timeouts})")


def test_criterion_7_oracle_agreement():
    t0 = time.perf_counter()
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        mine = {g.edges for g in enumerate_candidate_subgraphs(*dims)}
        oracle = {g.edges for g in candidate_subgraphs_by_subset(*dims)}
        assert mine == oracle
        for g in enumerate_candidate_subgraphs(*dims):
            found = {c.canonical().vertices for c in hamiltonian_cycles(g)}
            expected = {HamCycle(s).canonical().vertices
                        for s in ham_cycles_by_permutation(g)}
            assert found == expected
            first = find_hamiltonian_cycle(g)
            assert (first is not None) == bool(expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(7, elapsed, "search and enumeration match brute-force oracles up to 3x3")


def test_criterion_8_mutual_facing_soundness():
    t0 = time.perf_counter()
    checked = 0
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for g in enumerate_candidate_subgraphs(*dims):
            for rule in ("lex", "antilex"):
                assert mutual_facing_holds(g, plan_by_rule(g, rule))
                checked += 1
    rng = random.Random(20240)
    for _ in range(200):
        cols = rng.randint(2, 6)
        rows = rng.randint(2, 6)
        g = random_candidate_subgraph(cols, rows, rng)
        assert mutual_facing_holds(g, plan_for(g))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(8, elapsed, f"mutual-facing equivalence holds on {checked} exit plans")
