"""Layers the README calls linear stay linear, pinned by operation counts.

Wall time depends on the machine; the number of Python lines a layer
executes does not.  Each check counts the line events ``sys.settrace``
reports inside ``loopforge`` modules while one call runs, at a source size
n and at 2n.  Doubling n quadruples the vertices, so linear work grows
about 4x; the bound of 8x is twice linear, and a layer that redoes an
O(board) pass per vertex or per region (as verification and the
complement queries once did) grows past it.
"""

import os
import sys
import tracemalloc

import pytest

import loopforge
from loopforge.aon import compile_aon, emit_aon, parse_aon, verify_aon
from loopforge.framework import plan_for
from loopforge.hamilton import find_hamiltonian_cycle
from loopforge.model import HamCycle, full_grid, grid_graph
from loopforge.reduction import embed_cycle, puzzle_of
from loopforge.waterwalk import compile_ww, emit_ww, parse_ww

PACKAGE_DIR = os.path.dirname(loopforge.__file__) + os.sep
SIZES = (6, 12)
MAX_GROWTH = 8.0
MAX_TILE_LINES_PER_VERTEX = 8


def serpentine(n):
    """The 2-regular n x n grid graph that is a single Hamiltonian cycle,
    with that cycle: along row 0, snaking back through columns n-1 .. 1,
    then down column 0 (n even)."""
    order = [(x, 0) for x in range(n)]
    for k, x in enumerate(range(n - 1, 0, -1)):
        ys = range(1, n) if k % 2 == 0 else range(n - 1, 0, -1)
        order += [(x, y) for y in ys]
    order += [(0, y) for y in range(n - 1, 0, -1)]
    edges = [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]
    return grid_graph(n, n, edges), HamCycle(tuple(order))


def concentric_rings(n):
    """The n x n grid graph minus the ring edges of every layer but the
    outermost, layer k holding the vertices k steps from the border.  Every
    degree is 2 or 3, and the complement of each inner layer is a cycle."""
    def layer(v):
        return min(v[0], v[1], n - 1 - v[0], n - 1 - v[1])

    return grid_graph(n, n, [(u, v) for u, v in full_grid(n, n).edges
                             if layer(u) != layer(v) or layer(u) == 0])


def count_lines(fn, *args):
    """Line events inside loopforge modules while ``fn(*args)`` runs; the
    previous tracer is restored afterwards."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE_DIR) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def peak_bytes(fn, *args):
    """The peak of memory traced by ``tracemalloc`` while ``fn(*args)``
    runs, above what was allocated when it was called."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _plan_for_cost(n):
    g, _ = serpentine(n)
    return count_lines(plan_for, g)


def _verify_aon_cost(n):
    g, cycle = serpentine(n)
    plan = plan_for(g)
    inst = compile_aon(g, plan)
    loop = embed_cycle(g, plan, cycle, "aon").loop
    assert verify_aon(inst, loop).ok
    return count_lines(verify_aon, inst, loop)


def _compile_aon_cost(n):
    g, _ = serpentine(n)
    return count_lines(compile_aon, g, plan_for(g))


def _parse_aon_cost(n):
    g, _ = serpentine(n)
    return count_lines(parse_aon, emit_aon(compile_aon(g, plan_for(g))))


def _emit_aon_cost(n):
    g, _ = serpentine(n)
    return count_lines(emit_aon, compile_aon(g, plan_for(g)))


def _compile_ww_cost(n):
    g, _ = serpentine(n)
    return count_lines(compile_ww, g, plan_for(g))


def _parse_ww_cost(n):
    g, _ = serpentine(n)
    return count_lines(parse_ww, emit_ww(compile_ww(g, plan_for(g))))


def _emit_ww_cost(n):
    g, _ = serpentine(n)
    return count_lines(emit_ww, compile_ww(g, plan_for(g)))


@pytest.mark.parametrize("cost", [_plan_for_cost, _verify_aon_cost,
                                  _compile_aon_cost, _parse_aon_cost, _emit_aon_cost,
                                  _compile_ww_cost, _parse_ww_cost, _emit_ww_cost],
                         ids=["plan_for", "verify_aon", "compile_aon", "parse_aon",
                              "emit_aon", "compile_ww", "parse_ww", "emit_ww"])
def test_layer_grows_at_most_twice_linear(cost):
    small, large = (cost(n) for n in SIZES)
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} line events"


def test_hamiltonian_search_on_corridor_graphs_grows_at_most_twice_linear():
    # every vertex of a serpentine has two neighbors, so no head can cut
    # the free vertices and the search needs no fill past its root
    small, large = (count_lines(find_hamiltonian_cycle, serpentine(n)[0]) for n in (16, 32))
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} line events"


def test_hamiltonian_search_memory_on_corridor_graphs_grows_at_most_twice_linear():
    # a node whose head cannot cut the free cells shares its parent's set of
    # reachable cells, so the search holds one such set per fill on the
    # path; one per depth would be n^2 sets of n^2 / 30 words each
    small, large = (peak_bytes(find_hamiltonian_cycle, serpentine(n)[0]) for n in (16, 32))
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} bytes"


@pytest.mark.parametrize("rule", ["lex", "antilex"])
def test_orientation_of_complement_cycles_grows_at_most_twice_linear(rule):
    small, large = (count_lines(plan_for, concentric_rings(n), rule) for n in (8, 16))
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} line events"


@pytest.mark.parametrize("puzzle", ["aon", "ww"])
def test_tile_is_a_lookup_per_vertex(puzzle):
    # the gadget checks its exit midlines once, when it is built, so a
    # tiling reads one non-exit side per vertex and rotates nothing
    gadget = puzzle_of(puzzle).gadget
    for n in SIZES:
        g, _ = serpentine(n)
        plan = plan_for(g)
        lines = count_lines(gadget.tile, g, plan)
        assert lines <= MAX_TILE_LINES_PER_VERTEX * n * n, f"{lines} line events at {n}x{n}"
