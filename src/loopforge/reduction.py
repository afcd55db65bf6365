"""End-to-end reduction machinery: embed cycles as puzzle solutions, lift
solutions back to cycles, certify gadget path counts, and run exhaustive
equivalence experiments at desk scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import ne, or_
from typing import Callable

from . import aon, waterwalk
from .errors import LiftError, SearchBudgetExceeded
from .framework import (
    Direction,
    ExitPlan,
    Gadget,
    directions_between,
    plan_for,
)
from .hamilton import enumerate_candidate_subgraphs, find_hamiltonian_cycle
# search_paths stays importable from here: perfbench's tracer rebinds it
# wherever a module holds it, and its tests read it from this module
from .loopsearch import _Nodes, path_search, search_paths  # noqa: F401
from .model import Cell, GridGraph, HamCycle, LoopPath

_MODULES = {"aon": aon, "ww": waterwalk}
PUZZLES = tuple(_MODULES)


@dataclass(frozen=True)
class Puzzle:
    """What one puzzle adds to the shared reduction: its gadget, its
    board's compile, verify, solve, parse and emit operations, its board
    rows as text, and its gadget certificate's search domain and audit.

    ``gadget_harness(turns)`` gives the allowed cells, the required cells
    and the rules factory of the pinned traversal search with the gadget
    rotated by ``turns``.  ``gadget_audit(turns, traversals, paths)`` gives
    the blocked-side counts and the puzzle's findings from the traversals
    found per exit pair; ``paths(start, goal)`` gives, as a tuple, the
    traversals of one more such search from ``start`` to ``goal``, walked
    under the certificate's budget and counted in its nodes."""

    name: str
    gadget: Gadget
    compile: Callable
    verify: Callable
    solve: Callable
    parse: Callable
    emit: Callable
    board_text: Callable
    gadget_harness: Callable
    gadget_audit: Callable


def puzzle_of(name: str) -> Puzzle:
    """The puzzle named ``name`` ("aon" or "ww"); any other name raises
    ``ValueError``.  The record is read from the puzzle's module on every
    call, so a function rebound there (a tracing wrapper, say) is the one
    the record holds."""
    mod = _MODULES.get(name)
    if mod is None:
        raise ValueError(f"unknown puzzle kind: {name!r}")
    ops = {op: getattr(mod, f"{op}_{name}")
           for op in ("compile", "verify", "solve", "parse", "emit")}
    return Puzzle(name, mod.GADGET, **ops, board_text=mod.board_text,
                  gadget_harness=mod.gadget_harness, gadget_audit=mod.gadget_audit)


@dataclass(frozen=True)
class TraversalWitness:
    """A Hamiltonian cycle realized as a puzzle loop: the vertex order, the
    (entry, exit) sides used in each metacell, and the assembled loop."""

    puzzle: str
    vertex_order: tuple[tuple[int, int], ...]
    sides: tuple[tuple[Direction, Direction], ...]
    loop: LoopPath


def embed_cycle(g: GridGraph, plan: ExitPlan, cycle: HamCycle, puzzle: str) -> TraversalWitness:
    """Assemble a puzzle loop from a Hamiltonian cycle by concatenating one
    rotated local gadget traversal per metacell, each read from the
    gadget's table of placed pieces.  Raises :class:`CompileError` when
    ``plan`` was built for another graph."""
    gadget = puzzle_of(puzzle).gadget
    if not cycle.is_cycle_of(g):
        raise ValueError("not a Hamiltonian cycle of the given graph")
    tiling = gadget.tile(g, plan)
    verts = cycle.vertices
    # per vertex, its sides toward the vertices before and after it
    sides = tuple(zip(directions_between(verts, verts[-1:] + verts[:-1]),
                      directions_between(verts, verts[1:] + verts[:1])))
    pieces, n = gadget.pieces, gadget.frame
    cells: list[Cell] = []
    for (x, y), turns, (entry, exit_) in zip(verts, map(tiling.__getitem__, verts), sides):
        ox, oy = n * x, n * y
        cells += [(ox + a, oy + b) for a, b in pieces[turns, entry, exit_]]
    return TraversalWitness(puzzle, tuple(verts), sides, LoopPath(tuple(cells)))


def lift_solution(g: GridGraph, plan: ExitPlan, loop: LoopPath, puzzle: str) -> HamCycle:
    """Map a verified puzzle loop back to a Hamiltonian cycle of the graph.

    Checks the reduction's structural promises along the way: every metacell
    is visited, crossed exactly twice, and only through aligned mutual-exit
    border cells.  Any breach raises :class:`LiftError` (a soundness
    counterexample, never silently patched); a ``plan`` built for another
    graph raises :class:`CompileError`.
    """
    gadget = puzzle_of(puzzle).gadget
    tiling = gadget.tile(g, plan)
    cells, frame = loop.cells, gadget.frame
    n = len(cells)
    # the metacell of every cell, as its column and its row, in one pass
    # over the loop, and the steps that cross into another metacell
    mx = [x // frame for x, _ in cells]
    my = [y // frame for _, y in cells]
    steps = list(compress(range(n), map(or_, map(ne, mx, mx[1:] + mx[:1]),
                                        map(ne, my, my[1:] + my[:1]))))

    # both ends of every crossing in loop order, the near end first: the
    # cell, its metacell and the side of that metacell it crosses
    heads = [i + 1 for i in steps]
    if heads and heads[-1] == n:
        heads[-1] = 0
    ends = list(chain.from_iterable(zip(steps, heads)))
    metas = [(mx[i], my[i]) for i in ends]
    sides = directions_between(metas, list(chain.from_iterable(zip(metas[1::2], metas[::2]))))
    exits_at, non_exits = gadget.exits_at, plan.non_exits
    for i, v, side in zip(ends, metas, sides):
        if v not in tiling:
            raise LiftError(f"loop enters metacell {v} outside the graph")
        if side is non_exits[v]:
            raise LiftError(f"loop crosses a non-exit side {side.name} of metacell {v}")
        x, y = exits_at[tiling[v]][side]
        if cells[i] != (frame * v[0] + x, frame * v[1] + y):
            raise LiftError(f"crossing at {cells[i]} is off the exit midline of metacell {v}")

    # every metacell crossed is a vertex, as checked: each is crossed twice,
    # so the loop visits each in one piece
    vertices, crossings = g.vertices(), Counter(metas)
    if len(crossings) < len(vertices) or set(crossings.values()) - {2}:
        v = next(v for v in vertices if crossings[v] != 2)  # the first in board order
        raise LiftError(f"metacell {v} is crossed {crossings[v]} times, expected 2")

    # the metacell of each piece of the loop, in loop order: cell 0's, and
    # each crossing's far end's but that of the crossing back to cell 0
    firsts = [0, *filter(None, heads)]
    order = list(zip(map(mx.__getitem__, firsts), map(my.__getitem__, firsts)))
    if order and order[0] == order[-1]:
        order.pop()
    cycle = HamCycle(tuple(order))
    if not cycle.is_cycle_of(g):
        raise LiftError("induced vertex sequence is not a Hamiltonian cycle of the graph")
    return cycle


@dataclass(frozen=True)
class GadgetCertificate:
    """Exhaustive single-gadget traversal counts plus structural findings.

    Counts come only from completed enumerations; a budget blow-up refuses
    the certificate instead of reporting partial numbers.
    """

    puzzle: str
    pair_counts: dict[frozenset[Direction], int]
    blocked_side_counts: dict[frozenset[Direction], int]
    traversals: dict[frozenset[Direction], tuple[tuple[Cell, ...], ...]]
    findings: tuple[str, ...]
    nodes: int


def _pair_key(a: Direction, b: Direction) -> str:
    names = sorted((a.name, b.name))
    return f"{names[0]} {names[1]}"


def emit_certificate(cert: GadgetCertificate) -> str:
    lines = [f"certificate {cert.puzzle}"]
    for counts in (cert.pair_counts, cert.blocked_side_counts):
        for key in sorted(counts, key=lambda k: _pair_key(*k)):
            lines.append(f"pair {_pair_key(*key)} count {counts[key]}")
    for f in cert.findings:
        lines.append(f"finding {f}")
    lines.append(f"nodes {cert.nodes}")
    return "\n".join(lines) + "\n"


def certify_gadget(puzzle: str, budget: int | None = 50_000_000,
                   turns: int = 0) -> GadgetCertificate:
    """Exhaustively enumerate local gadget traversals between every exit pair
    and record the puzzle's blocked-side counts and structural findings.

    ``budget`` bounds the certificate's nodes, every search's together.
    ``turns`` rotates the whole harness; counts must not depend on it.
    """
    p, turns = puzzle_of(puzzle), turns % 4
    gadget = p.gadget
    nodes = _Nodes(budget)
    search = path_search(*p.gadget_harness(turns))

    def paths(start: Cell, goal: Cell) -> tuple[tuple[Cell, ...], ...]:
        return tuple(search(start, goal, nodes))

    exits = [d.rotated(turns) for d in sorted(gadget.exit_cells, key=lambda d: d.name)]
    exits_at = gadget.exits_at[turns]
    traversals: dict[frozenset[Direction], tuple] = {}
    for i, a in enumerate(exits):
        for b in exits[i + 1:]:
            traversals[frozenset({a, b})] = paths(exits_at[a], exits_at[b])
    pair_counts = {pair: len(found) for pair, found in traversals.items()}
    blocked_counts, findings = p.gadget_audit(turns, traversals, paths)

    unique = all(c <= 1 for c in pair_counts.values())
    findings = (*findings, f"locally-unique {'yes' if unique else 'no'}")
    return GadgetCertificate(puzzle, pair_counts, blocked_counts,
                             traversals, findings, nodes.count)


@dataclass(frozen=True)
class InstanceResult:
    index: int
    hamiltonian: str  # yes | no | timeout
    solvable: str  # yes | no | timeout
    lift_ok: bool | None

    @property
    def resolved(self) -> bool:
        return "timeout" not in (self.hamiltonian, self.solvable)

    @property
    def agreement(self) -> bool | None:
        if not self.resolved:
            return None
        return (self.hamiltonian == "yes") == (self.solvable == "yes")


@dataclass(frozen=True)
class RoundtripReport:
    puzzle: str
    cols: int
    rows: int
    results: tuple[InstanceResult, ...]

    @property
    def disagreements(self) -> int:
        return sum(1 for r in self.results if r.agreement is False)

    @property
    def timeouts(self) -> int:
        return sum(1 for r in self.results if not r.resolved)

    @property
    def agreements(self) -> int:
        return sum(1 for r in self.results if r.agreement is True)


def emit_roundtrip_report(report: RoundtripReport) -> str:
    lines = [f"roundtrip {report.puzzle} {report.cols} {report.rows}"]
    for r in report.results:
        lift = "n/a" if r.lift_ok is None else ("ok" if r.lift_ok else "FAIL")
        agree = "n/a" if r.agreement is None else ("yes" if r.agreement else "NO")
        lines.append(
            f"instance {r.index} hamiltonian {r.hamiltonian} "
            f"solvable {r.solvable} lift {lift} agreement {agree}")
    lines.append(
        f"summary instances {len(report.results)} agreements {report.agreements} "
        f"disagreements {report.disagreements} timeouts {report.timeouts}")
    return "\n".join(lines) + "\n"


def roundtrip_experiment(
    cols: int,
    rows: int,
    puzzle: str,
    solver_budget: int | None = None,
    ham_budget: int | None = None,
    dump_dir: str | None = None,
) -> RoundtripReport:
    """For every candidate subgraph: check Hamiltonicity, compile, solve, and
    compare.  Timeouts are reported per instance and never counted as
    agreement; disagreements dump the offending files when a directory is
    given.  A grid narrower than 2 has no candidate, so it raises
    ``ValueError`` rather than report agreement on nothing."""
    if cols < 2 or rows < 2:
        raise ValueError(f"need at least a 2x2 grid, got {cols}x{rows}")
    p = puzzle_of(puzzle)
    results = []
    for idx, g in enumerate(enumerate_candidate_subgraphs(cols, rows)):
        plan = plan_for(g)
        inst = p.compile(g, plan)

        try:
            cycle = find_hamiltonian_cycle(g, ham_budget)
            ham = "yes" if cycle is not None else "no"
        except SearchBudgetExceeded:
            ham = "timeout"

        lift_ok = None
        found_loop = None
        try:
            res = p.solve(inst, mode="first", budget=solver_budget)
            if res.loops:
                solvable = "yes"
                found_loop = res.loops[0]
                lift_ok = p.verify(inst, found_loop).ok
                if lift_ok:
                    try:
                        lift_solution(g, plan, found_loop, puzzle)
                    except LiftError:
                        lift_ok = False
            else:
                solvable = "no" if res.exhausted else "timeout"
        except SearchBudgetExceeded:
            solvable = "timeout"

        r = InstanceResult(idx, ham, solvable, lift_ok)
        results.append(r)
        if dump_dir is not None and (r.agreement is False or lift_ok is False):
            _dump_counterexample(dump_dir, p, idx, g, inst, found_loop)
    return RoundtripReport(puzzle, cols, rows, tuple(results))


def _dump_counterexample(dump_dir, p: Puzzle, idx, g, inst, loop):
    import os

    from .fileio import emit_graph, emit_loop

    os.makedirs(dump_dir, exist_ok=True)
    base = os.path.join(dump_dir, f"{p.name}-{idx}")
    with open(base + ".graph", "w", encoding="utf-8") as f:
        f.write(emit_graph(g))
    with open(base + ".inst", "w", encoding="utf-8") as f:
        f.write(p.emit(inst))
    if loop is not None:
        with open(base + ".loop", "w", encoding="utf-8") as f:
            f.write(emit_loop(loop))
