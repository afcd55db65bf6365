import hashlib
import random
import sys

import pytest

from loopforge.errors import SearchBudgetExceeded
from loopforge.hamilton import (
    count_hamiltonian_cycles,
    enumerate_candidate_subgraphs,
    find_hamiltonian_cycle,
    hamiltonian_cycles,
    random_candidate_subgraph,
)
from loopforge.model import HamCycle, degree_profile, full_grid

from oracles import (
    candidate_subgraphs_by_subset,
    check_against_full_fill,
    check_against_unsplit,
    ham_cycles_by_permutation,
)
from test_scaling import concentric_rings, serpentine


class TestFindHamiltonianCycle:
    def test_square_has_the_four_cycle(self):
        cycle = find_hamiltonian_cycle(full_grid(2, 2))
        assert cycle is not None and cycle.is_cycle_of(full_grid(2, 2))

    def test_3x3_has_none(self):
        # 9 vertices: grid graphs are bipartite, odd cycles impossible
        assert find_hamiltonian_cycle(full_grid(3, 3)) is None

    def test_2x3_count_matches_permutation_oracle(self):
        g = full_grid(2, 3)
        assert count_hamiltonian_cycles(g) == len(ham_cycles_by_permutation(g)) == 1

    @pytest.mark.parametrize("cols, rows, cycles, nodes, digest", [
        (6, 6, 1_072, 17_177, "676c7b934297ff8d5869ccf66f1cc72dd7c43591907c43caf410fbdd0486c1da"),
        (6, 7, 5_320, 65_624, "79946441b48213b521d33f3c37e35d600eb91c38e2b8a32e9a4f4d5afd3f71bb"),
    ], ids=["6x6", "6x7"])
    def test_full_grid_cycles_pinned(self, cols, rows, cycles, nodes, digest):
        # every cycle once, in the order found (the sha256 of one line per
        # cycle), with each resolved node's cycles read back from the walk's
        # table: 60,815 and 331,919 nodes when every node was walked
        g = full_grid(cols, rows)
        h = hashlib.sha256()
        found = 0
        for cycle in hamiltonian_cycles(g, budget=nodes):
            h.update((" ".join(f"{x},{y}" for x, y in cycle.vertices) + "\n").encode())
            found += 1
        assert (found, h.hexdigest()) == (cycles, digest)
        with pytest.raises(SearchBudgetExceeded) as e:
            count_hamiltonian_cycles(g, budget=nodes - 1)
        assert e.value.nodes == nodes

    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(SearchBudgetExceeded):
            find_hamiltonian_cycle(full_grid(4, 4), budget=3)

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            find_hamiltonian_cycle(full_grid(1, 3))

    def test_deterministic(self):
        g = full_grid(3, 4)
        assert find_hamiltonian_cycle(g) == find_hamiltonian_cycle(g)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_agrees_with_permutation_oracle_on_candidates(self, dims):
        for g in enumerate_candidate_subgraphs(*dims):
            mine = {c.canonical().vertices for c in hamiltonian_cycles(g)}
            oracle = {HamCycle(s).canonical().vertices
                      for s in ham_cycles_by_permutation(g)}
            assert mine == oracle

    def test_long_cycle_without_recursion(self, ring_2x1000):
        limit = sys.getrecursionlimit()
        cycle = find_hamiltonian_cycle(ring_2x1000)
        assert cycle is not None and cycle.is_cycle_of(ring_2x1000)
        assert len(cycle.vertices) == 2000
        assert sys.getrecursionlimit() == limit

    def test_odd_boards_have_no_cycles(self):
        for g in enumerate_candidate_subgraphs(3, 3):
            assert find_hamiltonian_cycle(g) is None


class TestEnumerateCandidates:
    @pytest.mark.parametrize("dims,count", [((2, 2), 1), ((2, 3), 2), ((3, 2), 2),
                                            ((3, 3), 10), ((2, 4), 7)])
    def test_counts(self, dims, count):
        assert sum(1 for _ in enumerate_candidate_subgraphs(*dims)) == count

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_set_equality_with_subset_oracle(self, dims):
        mine = {g.edges for g in enumerate_candidate_subgraphs(*dims)}
        oracle = {g.edges for g in candidate_subgraphs_by_subset(*dims)}
        assert mine == oracle

    def test_2x2_yields_only_the_cycle(self):
        (g,) = enumerate_candidate_subgraphs(2, 2)
        assert g == full_grid(2, 2)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            next(enumerate_candidate_subgraphs(4, 4))

    def test_all_yielded_satisfy_degree_bounds(self):
        for g in enumerate_candidate_subgraphs(3, 3):
            assert all(d in (2, 3) for d in degree_profile(g).values())

    def test_order_is_stable(self):
        first = [g.edges for g in enumerate_candidate_subgraphs(2, 3)]
        second = [g.edges for g in enumerate_candidate_subgraphs(2, 3)]
        assert first == second


class TestRandomCandidates:
    def test_2x2_forced(self):
        g = random_candidate_subgraph(2, 2, random.Random(1))
        assert g == full_grid(2, 2)

    def test_reproducible(self):
        a = random_candidate_subgraph(5, 5, random.Random(42))
        b = random_candidate_subgraph(5, 5, random.Random(42))
        assert a == b

    @pytest.mark.parametrize("seed", range(5))
    def test_degrees_in_bounds(self, seed):
        g = random_candidate_subgraph(6, 6, random.Random(seed))
        assert all(d in (2, 3) for d in degree_profile(g).values())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_candidate_subgraph(1, 5, random.Random(0))


class TestFullFill:
    """The walk that reuses its parent's reach set against one that flood
    fills at every node (``oracles.full_fill_walk``)."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_candidates(self, dims):
        for g in enumerate_candidate_subgraphs(*dims):
            check_against_full_fill(hamiltonian_cycles, g)
            check_against_unsplit(hamiltonian_cycles, g)

    def test_concentric_rings(self):
        trace = check_against_full_fill(hamiltonian_cycles, concentric_rings(8))
        check_against_unsplit(hamiltonian_cycles, concentric_rings(8))
        assert trace == [("end", 9)]

    def test_serpentine(self):
        g, cycle = serpentine(8)
        trace = check_against_full_fill(hamiltonian_cycles, g)
        check_against_unsplit(hamiltonian_cycles, g)
        assert [event[0] for event in trace] == ["path", "end"]
        assert HamCycle(trace[0][1]) == cycle.canonical()
