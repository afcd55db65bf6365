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
import random
import sys
import tracemalloc

import pytest

import loopforge
from loopforge.aon import compile_aon, emit_aon, parse_aon, verify_aon
from loopforge.fileio import emit_loop, parse_loop
from loopforge.framework import build_complement, exit_plan, orient_complement, plan_for
from loopforge.hamilton import find_hamiltonian_cycle, random_candidate_subgraph
from loopforge.model import HamCycle, full_grid, grid_graph
from loopforge.reduction import embed_cycle, lift_solution, puzzle_of
from loopforge.render import render_svg
from loopforge.waterwalk import compile_ww, emit_ww, parse_ww, verify_ww

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


def _metacell_cost(layer):
    """The cost of one step of ``plan_for`` on serpentine n, given what the
    steps before it return; ``build_complement`` reads a graph whose side
    masks are not built yet."""
    def cost(n):
        g, _ = serpentine(n)
        if layer == "build_complement":
            return count_lines(build_complement, g)
        h = build_complement(g)
        if layer == "orient_complement":
            return count_lines(orient_complement, h)
        return count_lines(exit_plan, g, orient_complement(h))
    return cost


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


def _grid_graph_cost(n):
    return count_lines(grid_graph, n, n, list(full_grid(n, n).edges))


def _layer_call(layer, puzzle, n):
    """``layer`` on serpentine n compiled for ``puzzle``: the function, its
    arguments, and the units of its cost, board cells for ``render_svg``,
    ``compile_aon`` and ``parse_aon`` and loop cells for the others."""
    g, cycle = serpentine(n)
    plan = plan_for(g)
    inst = puzzle_of(puzzle).compile(g, plan)
    loop = embed_cycle(g, plan, cycle, puzzle).loop
    cells = inst.width * inst.height
    if layer == "render_svg":
        return render_svg, (inst, loop), cells
    if layer == "compile_aon":
        return compile_aon, (g, plan), cells
    if layer == "parse_aon":
        return parse_aon, (emit_aon(inst),), cells
    if layer == "parse_loop":
        return parse_loop, (emit_loop(loop),), len(loop)
    if layer == "embed_cycle":
        return embed_cycle, (g, plan, cycle, puzzle), len(loop)
    if layer == "verify_ww":
        return verify_ww, (inst, loop), len(loop)
    return lift_solution, (g, plan, loop, puzzle), len(loop)


def _layer_cost(layer, puzzle):
    def cost(n):
        fn, args, _ = _layer_call(layer, puzzle, n)
        return count_lines(fn, *args)
    return cost


@pytest.mark.parametrize("cost", [_plan_for_cost, _metacell_cost("build_complement"),
                                  _metacell_cost("orient_complement"),
                                  _metacell_cost("exit_plan"), _verify_aon_cost,
                                  _compile_aon_cost, _parse_aon_cost, _emit_aon_cost,
                                  _compile_ww_cost, _parse_ww_cost, _emit_ww_cost,
                                  _layer_cost("render_svg", "aon"),
                                  _layer_cost("render_svg", "ww"),
                                  _layer_cost("parse_loop", "aon"),
                                  _layer_cost("embed_cycle", "aon"),
                                  _layer_cost("embed_cycle", "ww"),
                                  _layer_cost("lift_solution", "aon"),
                                  _layer_cost("lift_solution", "ww"),
                                  _layer_cost("verify_ww", "ww"), _grid_graph_cost],
                         ids=["plan_for", "build_complement", "orient_complement",
                              "exit_plan", "verify_aon", "compile_aon", "parse_aon",
                              "emit_aon", "compile_ww", "parse_ww", "emit_ww",
                              "render_svg_aon", "render_svg_ww", "parse_loop",
                              "embed_cycle_aon", "embed_cycle_ww",
                              "lift_solution_aon", "lift_solution_ww", "verify_ww",
                              "grid_graph"])
def test_layer_grows_at_most_twice_linear(cost):
    small, large = (cost(n) for n in SIZES)
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} line events"


# Line events per unit at serpentine 12 when these layers did per-cell
# Python work (tuple-keyed lookups, a call or a split per cell); reading
# board-order arrays and per-gadget tables, each makes at most half as many.
PER_CELL_LINES = {
    ("render_svg", "aon"): 10.7,
    ("render_svg", "ww"): 10.2,
    ("compile_aon", "aon"): 3.06,
    ("parse_aon", "aon"): 18.2,
    ("parse_loop", "aon"): 22.0,
    ("embed_cycle", "aon"): 14.5,
    ("embed_cycle", "ww"): 20.6,
    ("lift_solution", "aon"): 12.0,
    ("lift_solution", "ww"): 24.6,
    ("verify_ww", "ww"): 12.0,
}


@pytest.mark.parametrize("layer,puzzle", list(PER_CELL_LINES),
                         ids=[f"{layer}-{puzzle}" for layer, puzzle in PER_CELL_LINES])
def test_layer_makes_at_most_half_its_per_cell_line_events(layer, puzzle):
    fn, args, units = _layer_call(layer, puzzle, 12)
    per_unit = count_lines(fn, *args) / units
    assert per_unit <= PER_CELL_LINES[layer, puzzle] / 2, f"{per_unit:.2f} line events per unit"


def test_render_svg_holds_its_output_at_most_twice():
    # its parts and their one join; adding the closing newline to the
    # joined text made a third copy, for a peak of 3.2 times the text
    fn, args, _ = _layer_call("render_svg", "ww", 24)
    size = len(fn(*args))
    peak = peak_bytes(fn, *args)
    assert peak <= 2.5 * size, f"{peak} bytes at peak for {size} bytes of SVG"


def test_hamiltonian_search_on_corridor_graphs_grows_at_most_twice_linear():
    # every vertex of a serpentine has two neighbors, so no head can cut
    # the free vertices and the search needs no fill past its root
    small, large = (count_lines(find_hamiltonian_cycle, serpentine(n)[0]) for n in (16, 32))
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} line events"


def test_candidate_sampling_grows_at_most_twice_linear():
    # seed 0 samples both sizes at the first attempt; rescanning every
    # vertex for the degree-4 ones after each removed edge grew 10.5x.
    # Line events count the Python work only, not the memmove of each
    # deletion from the sorted list of degree-4 vertices
    small, large = (count_lines(random_candidate_subgraph, n, n, random.Random(0))
                    for n in (12, 24))
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} line events"


def test_hamiltonian_search_memory_on_corridor_graphs_grows_at_most_twice_linear():
    # a node whose head cannot cut the free cells shares its parent's set of
    # reachable cells, so the search holds one such set per fill on the
    # path; one per depth would be n^2 sets of n^2 / 30 words each
    small, large = (peak_bytes(find_hamiltonian_cycle, serpentine(n)[0]) for n in (16, 32))
    assert small > 0
    assert large / small <= MAX_GROWTH, f"{small} -> {large} bytes"


def test_orientation_of_complement_cycles_grows_at_most_twice_linear():
    small, large = (count_lines(plan_for, concentric_rings(n)) for n in (8, 16))
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
