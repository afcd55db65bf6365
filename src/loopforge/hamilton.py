"""Hamiltonian-cycle search and candidate-subgraph enumeration on grid graphs.

The search is the package's loop engine (:mod:`loopforge.loopsearch`) run
with every vertex required and no puzzle rules, so its prunes (color
counts and a peel at the root, connectivity, forced moves) are sound and
a ``None`` answer is an exhaustive proof of absence.  Budgets are counted
in search nodes and exhaustion is reported distinctly from "no cycle".
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterator

from .loopsearch import cycles_through
from .model import (
    Edge,
    GridGraph,
    HamCycle,
    canonical_edge,
    degree_profile,
    full_grid,
    grid_graph,
)

ENUMERATION_FREE_EDGE_LIMIT = 12
SAMPLE_ATTEMPTS = 1000


def hamiltonian_cycles(g: GridGraph, budget: int | None = None) -> Iterator[HamCycle]:
    """Yield every Hamiltonian cycle of ``g`` exactly once, in canonical form.

    Cycles are rooted at the smallest vertex and deduplicated by requiring the
    second vertex to be smaller than the last, so each cycle appears once up
    to rotation and reversal.
    """
    verts = sorted(g.vertices())
    n = len(verts)
    if n < 4:
        raise ValueError(f"need at least 4 vertices, got {n}")
    # each vertex's neighbors in sorted order, read once from the edges
    adj = {v: [] for v in verts}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    for cells in cycles_through(verts, adj.__getitem__, budget):
        yield HamCycle(cells)


def find_hamiltonian_cycle(g: GridGraph, budget: int | None = None) -> HamCycle | None:
    """First Hamiltonian cycle of ``g``, or None after exhaustive search.

    Raises :class:`SearchBudgetExceeded` when the node budget runs out first.
    """
    for cycle in hamiltonian_cycles(g, budget):
        return cycle
    return None


def count_hamiltonian_cycles(g: GridGraph, budget: int | None = None) -> int:
    return sum(1 for _ in hamiltonian_cycles(g, budget))


def candidate_free_edges(cols: int, rows: int) -> tuple[list[Edge], list[Edge]]:
    """Split the full grid's edges into (forced, free) for candidate enumeration.

    Edges at a vertex of full-grid degree 2 are forced: dropping one would
    push that vertex below degree 2.
    """
    g = full_grid(cols, rows)
    deg = degree_profile(g)
    forced, free = [], []
    for e in sorted(g.edges):
        if deg[e[0]] == 2 or deg[e[1]] == 2:
            forced.append(e)
        else:
            free.append(e)
    return forced, free


def enumerate_candidate_subgraphs(cols: int, rows: int) -> Iterator[GridGraph]:
    """All spanning subgraphs of the full grid with every degree in {2, 3}.

    Enumerates subsets of the non-forced edges in ascending bitmask order
    (bit i selects the i-th free edge in sorted order), so the output order
    is canonical.  Refuses grids with more than 12 free edges.
    """
    forced, free = candidate_free_edges(cols, rows)
    if len(free) > ENUMERATION_FREE_EDGE_LIMIT:
        raise ValueError(
            f"{cols}x{rows} grid has {len(free)} free edges; "
            f"exhaustive enumeration is limited to {ENUMERATION_FREE_EDGE_LIMIT}"
        )
    for mask in range(1 << len(free)):
        edges = list(forced)
        for i, e in enumerate(free):
            if mask >> i & 1:
                edges.append(e)
        g = grid_graph(cols, rows, edges)
        if all(d in (2, 3) for d in degree_profile(g).values()):
            yield g


def random_candidate_subgraph(cols: int, rows: int, rng: random.Random) -> GridGraph:
    """Random spanning subgraph with degrees in {2, 3}, reproducible per rng state.

    Removes edges from the full grid while any vertex still has degree 4,
    never dropping an endpoint below degree 2; resamples on dead ends, up to
    ``SAMPLE_ATTEMPTS`` times.  Each step draws a vertex from the sorted
    degree-4 vertices, then one of its edges, in sorted order, whose other
    end keeps degree 2 or more.  Degrees only fall, so the sorted list is
    kept by deleting each vertex once, as its degree drops from 4, and a
    degree-4 vertex still has all four of its edges.  The draws thus see the
    same lists, in the same order, as a rescan of every vertex after each
    removed edge would give, so each graph and the rng state left for the
    next one are unchanged, while the Python work per step falls from O(V)
    to O(log V); each deletion still shifts the rest of the list, an O(V)
    memmove.
    """
    if cols < 2 or rows < 2:
        raise ValueError(f"need at least a 2x2 grid, got {cols}x{rows}")
    base = full_grid(cols, rows)
    for _ in range(SAMPLE_ATTEMPTS):
        edges = set(base.edges)
        deg = degree_profile(base)
        over = sorted(v for v, d in deg.items() if d == 4)
        while over:
            v = rng.choice(over)
            x, y = v
            removable = [canonical_edge(v, u)
                         for u in ((x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y))
                         if deg[u] >= 3]
            if not removable:
                break
            e = rng.choice(removable)
            edges.remove(e)
            for u in e:
                deg[u] -= 1
                if deg[u] == 3:
                    del over[bisect_left(over, u)]
        else:
            return grid_graph(cols, rows, edges)
    raise ValueError(f"could not sample a candidate subgraph on {cols}x{rows}")
