"""Source-graph helpers the benchmark owns: candidate masks, serpentine
graphs and an independent Hamiltonian-cycle check.

None of these call the code under test except to build a ``GridGraph``, so
the answer key they produce depends on the source graph alone.
"""

from __future__ import annotations

from loopforge.model import GridGraph, grid_graph


def grid_edges(cols: int, rows: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every unit edge of the full cols x rows grid, smaller endpoint first, sorted."""
    edges = []
    for x in range(cols):
        for y in range(rows):
            if x + 1 < cols:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 < rows:
                edges.append(((x, y), (x, y + 1)))
    return sorted(edges)


def _full_degree(cols: int, rows: int, v: tuple[int, int]) -> int:
    x, y = v
    return (x > 0) + (x + 1 < cols) + (y > 0) + (y + 1 < rows)


def free_edges(cols: int, rows: int) -> list:
    """Grid edges a candidate may drop: both endpoints have full-grid degree
    at least 3.  The others are forced, because a degree-2 vertex keeps both
    of its edges."""
    return [e for e in grid_edges(cols, rows)
            if _full_degree(cols, rows, e[0]) >= 3 and _full_degree(cols, rows, e[1]) >= 3]


def candidate_masks(cols: int, rows: int) -> list[int]:
    """Masks over ``free_edges`` (bit i keeps free edge i) of every spanning
    subgraph whose degrees are all 2 or 3, in ascending order."""
    free = free_edges(cols, rows)
    deg0 = {(x, y): 0 for x in range(cols) for y in range(rows)}
    for u, v in grid_edges(cols, rows):
        if (u, v) not in free:
            deg0[u] += 1
            deg0[v] += 1
    masks = []
    for mask in range(1 << len(free)):
        deg = dict(deg0)
        for i, (u, v) in enumerate(free):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if all(d in (2, 3) for d in deg.values()):
            masks.append(mask)
    return masks


def graph_from_mask(cols: int, rows: int, mask: int) -> GridGraph:
    free = free_edges(cols, rows)
    edges = [e for e in grid_edges(cols, rows) if e not in free]
    edges += [e for i, e in enumerate(free) if mask >> i & 1]
    return grid_graph(cols, rows, edges)


def graph_mask(g: GridGraph) -> int:
    """Inverse of ``graph_from_mask``; raises ValueError for a graph that
    lacks a forced edge."""
    free = free_edges(g.cols, g.rows)
    forced = set(grid_edges(g.cols, g.rows)) - set(free)
    if not forced <= g.edges:
        raise ValueError("graph drops a forced edge")
    return sum(1 << i for i, e in enumerate(free) if e in g.edges)


def serpentine(n: int) -> tuple[GridGraph, tuple[tuple[int, int], ...]]:
    """The 2-regular n x n grid graph that is one Hamiltonian cycle, with
    that cycle: along row 0, snake through columns n-1 .. 1, down column 0.
    ``n`` must be even for the snake to end next to column 0."""
    if n < 2 or n % 2:
        raise ValueError(f"serpentine needs an even size, got {n}")
    order = [(x, 0) for x in range(n)]
    for k, x in enumerate(range(n - 1, 0, -1)):
        ys = range(1, n) if k % 2 == 0 else range(n - 1, 0, -1)
        order += [(x, y) for y in ys]
    order += [(0, y) for y in range(n - 1, 0, -1)]
    edges = [tuple(sorted((order[i], order[(i + 1) % len(order)])))
             for i in range(len(order))]
    return grid_graph(n, n, edges), tuple(order)


def is_hamiltonian_cycle(g: GridGraph, vertices) -> bool:
    """True when ``vertices`` visits every vertex of ``g`` once and each
    consecutive pair, wrapping around, is an edge of ``g``."""
    n = g.cols * g.rows
    if len(vertices) != n or len(set(vertices)) != n:
        return False
    if not all(0 <= x < g.cols and 0 <= y < g.rows for x, y in vertices):
        return False
    return all(tuple(sorted((vertices[i], vertices[(i + 1) % n]))) in g.edges
               for i in range(n))
