import hashlib
import random
import sys

import pytest

from loopforge.errors import SearchBudgetExceeded
from loopforge.fileio import emit_graph
from loopforge.hamilton import (
    count_hamiltonian_cycles,
    enumerate_candidate_subgraphs,
    find_hamiltonian_cycle,
    hamiltonian_cycles,
    random_candidate_subgraph,
)
from loopforge.model import HamCycle, degree_profile, full_grid, grid_graph

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
        (6, 6, 1_072, 6_909, "676c7b934297ff8d5869ccf66f1cc72dd7c43591907c43caf410fbdd0486c1da"),
        (6, 7, 5_320, 25_840, "79946441b48213b521d33f3c37e35d600eb91c38e2b8a32e9a4f4d5afd3f71bb"),
    ], ids=["6x6", "6x7"])
    def test_full_grid_cycles_pinned(self, cols, rows, cycles, nodes, digest):
        # every cycle once, in the order found (the sha256 of one line per
        # cycle), with each resolved node's cycles read back from the walk's
        # table: 60,815 and 331,919 nodes when every node was walked (before
        # the walk took forced moves), 17,177 and 65,624 with the table alone
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

    def test_vertex_of_degree_one_refuted_at_the_first_node(self):
        # the walk's root peel takes out (1, 0), left with one neighbor; a
        # budget of 0 now stops there, where a check of every degree once
        # answered None first
        g = grid_graph(2, 3, full_grid(2, 3).edges - {((0, 0), (1, 0))})
        assert find_hamiltonian_cycle(g, budget=1) is None
        with pytest.raises(SearchBudgetExceeded) as e:
            find_hamiltonian_cycle(g, budget=0)
        assert e.value.nodes == 1
        assert ham_cycles_by_permutation(g) == []

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


def graph_digest(g):
    return hashlib.sha256(emit_graph(g).encode()).hexdigest()


class TestSampledGraphsByteForByte:
    """The sha256 of ``emit_graph`` of sampled candidates, measured when the
    sampler rescanned every vertex per removed edge: keeping the degree-4
    vertices as a sorted list must draw the same graphs."""

    @pytest.mark.parametrize("cols,rows,digest", [
        (2, 2, "26dc7a1102b560664765fb6e2731d0731dc0a16d2517f25324504d3482c997f7"),
        (2, 7, "673e8cebc70f5abf4e8901cb046d9ff3b16a59d0ef7254a5bd7620ef5591a663"),
        (7, 2, "536b1c2c4ab35d3205666af322adb73cb484f3b41dbafaeaaa0ac2b6f82a2cc9"),
        (5, 5, "6b0f51e4c1d58fc2cdf013d0d52a5ba7ce53d28e03da1ecc3f6f842690c2a7bb"),
        (8, 8, "945cc33c6c5d2a418a2886ab458da6ee33e92c88fe67600b491e80b6667a264d"),
        (13, 20, "27b795eed2063d3d1d0aabf801600233231c06aacdca3583a3047ae2e3c5cefb"),
        (32, 32, "77d73ce59699281b339f438dd55b23048a99306d4874d2662e275339585af37a"),
    ])
    def test_seed_0(self, cols, rows, digest):
        assert graph_digest(random_candidate_subgraph(cols, rows, random.Random(0))) == digest

    @pytest.mark.parametrize("seed,digest", [
        (24, "ff7e881c629217b3af7d63e4ae68ffa42a24778b3a76940ce74378350b4e0163"),
        (174, "b639ff14e01021ad3e5d42274f9488cdedb39c7d538dc0c8304e5d0b700966bd"),
    ])
    def test_16x16_after_a_resample(self, seed, digest):
        # these seeds get stuck once and sample again
        assert graph_digest(random_candidate_subgraph(16, 16, random.Random(seed))) == digest

    def test_one_rng_draws_three_graphs_in_turn(self):
        # each call leaves the rng where the next graph's draws start
        rng = random.Random(1)
        assert [graph_digest(random_candidate_subgraph(12, 12, rng)) for _ in range(3)] == [
            "9d9de98ff4f3b75cf212deaa87e0e9c1839d9d8b9f970f07102d5e7455383aef",
            "da08345c487cc33c4e13d5932633eff5f56cbaf19f8f8843e9ab031dd93a2266",
            "32f34a81bf46416fd5f56d03464a2cba6de6d359d157b66d827a2bbbd13b5d46",
        ]


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
        assert trace == [("end", 5)]

    def test_serpentine(self):
        g, cycle = serpentine(8)
        trace = check_against_full_fill(hamiltonian_cycles, g)
        check_against_unsplit(hamiltonian_cycles, g)
        assert [event[0] for event in trace] == ["path", "end"]
        assert HamCycle(trace[0][1]) == cycle.canonical()
