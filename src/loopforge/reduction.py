"""End-to-end reduction machinery: embed cycles as puzzle solutions, lift
solutions back to cycles, certify gadget path counts, and run exhaustive
equivalence experiments at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from . import aon, waterwalk
from .errors import LiftError, SearchBudgetExceeded
from .framework import (
    Direction,
    ExitPlan,
    Gadget,
    direction_between,
    plan_for,
    rotate_cell,
    rotate_corner,
)
from .hamilton import enumerate_candidate_subgraphs, find_hamiltonian_cycle
from .loopsearch import search_paths
from .model import (
    BoundaryEdgeSet,
    Cell,
    GridGraph,
    HamCycle,
    LoopPath,
    corner_segment_to_cells,
    perimeter_boundary,
    regions_from_boundaries,
)

PUZZLES = ("aon", "ww")


@dataclass(frozen=True)
class Puzzle:
    """What one puzzle adds to the shared reduction: its gadget, and its
    board's compile, verify, solve, parse and emit operations."""

    name: str
    gadget: Gadget
    compile: Callable
    verify: Callable
    solve: Callable
    parse: Callable
    emit: Callable


def puzzle_of(name: str) -> Puzzle:
    """The puzzle named ``name`` ("aon" or "ww"); any other name raises
    ``ValueError``.  The record is read from the puzzle's module on every
    call, so a function rebound there (a tracing wrapper, say) is the one
    the record holds."""
    if name == "aon":
        mod = aon
    elif name == "ww":
        mod = waterwalk
    else:
        raise ValueError(f"unknown puzzle kind: {name!r}")
    ops = {op: getattr(mod, f"{op}_{name}")
           for op in ("compile", "verify", "solve", "parse", "emit")}
    return Puzzle(name, mod.GADGET, **ops)


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
    rotated local gadget traversal per metacell."""
    gadget = puzzle_of(puzzle).gadget
    if not cycle.is_cycle_of(g):
        raise ValueError("not a Hamiltonian cycle of the given graph")
    frame = gadget.frame
    verts = cycle.vertices
    n = len(verts)
    cells: list[Cell] = []
    sides = []
    for i, v in enumerate(verts):
        prev_v = verts[(i - 1) % n]
        next_v = verts[(i + 1) % n]
        entry = direction_between(v, prev_v)
        exit_ = direction_between(v, next_v)
        turns = gadget.turns(plan, v)
        piece = gadget.local_path(entry.rotated(-turns), exit_.rotated(-turns))
        ox, oy = frame * v[0], frame * v[1]
        for c in piece:
            rx, ry = rotate_cell(frame, turns, c)
            cells.append((ox + rx, oy + ry))
        sides.append((entry, exit_))
    loop = LoopPath(tuple(cells))
    return TraversalWitness(puzzle, tuple(verts), tuple(sides), loop)


def lift_solution(g: GridGraph, plan: ExitPlan, loop: LoopPath, puzzle: str) -> HamCycle:
    """Map a verified puzzle loop back to a Hamiltonian cycle of the graph.

    Checks the reduction's structural promises along the way: every metacell
    is visited, crossed exactly twice, and only through aligned mutual-exit
    border cells.  Any breach raises :class:`LiftError` (a soundness
    counterexample, never silently patched).
    """
    gadget = puzzle_of(puzzle).gadget
    frame = gadget.frame
    cells = loop.cells
    n = len(cells)

    def metacell(c: Cell):
        return (c[0] // frame, c[1] // frame)

    crossings: dict[tuple[int, int], int] = {}
    for i in range(n):
        a, b = cells[i], cells[(i + 1) % n]
        ma, mb = metacell(a), metacell(b)
        if ma == mb:
            continue
        crossings[ma] = crossings.get(ma, 0) + 1
        crossings[mb] = crossings.get(mb, 0) + 1
        d = direction_between(ma, mb)
        for v, cell, side in ((ma, a, d), (mb, b, d.opposite())):
            if side not in plan.exits(v):
                raise LiftError(f"loop crosses a non-exit side {side.name} of metacell {v}")
            expected = gadget.exit_cell(side, gadget.turns(plan, v))
            local = (cell[0] - frame * v[0], cell[1] - frame * v[1])
            if local != expected:
                raise LiftError(
                    f"crossing at {cell} is off the exit midline of metacell {v}")

    for v in g.vertices():
        got = crossings.get(v, 0)
        if got != 2:
            raise LiftError(f"metacell {v} is crossed {got} times, expected 2")

    order = []
    for c in cells:
        m = metacell(c)
        if not order or order[-1] != m:
            order.append(m)
    if order and order[0] == order[-1]:
        order.pop()
    if len(order) != len(g.vertices()):
        raise LiftError("loop visits some metacell in more than one piece")
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
    pair_counts: dict[frozenset[Direction], int] = field(compare=False)
    blocked_side_counts: dict[frozenset[Direction], int] = field(compare=False)
    traversals: dict[frozenset[Direction], tuple[tuple[Cell, ...], ...]] = field(compare=False)
    findings: tuple[str, ...]
    nodes: int
    elapsed: float

    def count(self, a: Direction, b: Direction) -> int:
        key = frozenset({a, b})
        if key in self.pair_counts:
            return self.pair_counts[key]
        return self.blocked_side_counts[key]


def _pair_key(a: Direction, b: Direction) -> str:
    names = sorted((a.name, b.name))
    return f"{names[0]} {names[1]}"


def emit_certificate(cert: GadgetCertificate) -> str:
    lines = [f"certificate {cert.puzzle}"]
    for key in sorted(cert.pair_counts, key=lambda k: _pair_key(*k)):
        a, b = sorted(key, key=lambda d: d.name)
        lines.append(f"pair {a.name} {b.name} count {cert.pair_counts[key]}")
    for key in sorted(cert.blocked_side_counts, key=lambda k: _pair_key(*k)):
        a, b = sorted(key, key=lambda d: d.name)
        lines.append(f"pair {a.name} {b.name} count {cert.blocked_side_counts[key]}")
    for f in cert.findings:
        lines.append(f"finding {f}")
    lines.append(f"nodes {cert.nodes}")
    return "\n".join(lines) + "\n"


def _ww_harness_paths(start_side: Direction, goal: Cell,
                      budget: int | None, turns: int = 0):
    """All gadget traversals pinned from an exit to ``goal`` under the
    in-frame puzzle rules."""
    frame = waterwalk.FRAME
    ground = frozenset(rotate_cell(frame, turns, c) for c in waterwalk.GADGET_GROUND)
    numbers = {rotate_cell(frame, turns, c): v
               for c, v in waterwalk.GADGET_NUMBERS.items()}
    inst = waterwalk.WwInstance(frame, frame, ground, numbers)
    cells = [(x, y) for x in range(frame) for y in range(frame)]
    start = waterwalk.GADGET.exit_cell(start_side, turns)

    class Harness(waterwalk.WwLoopRules):
        def finish_ok(self, path_cells) -> bool:
            return _ww_path_valid(inst, path_cells)

    return search_paths(cells, start, goal, sorted(numbers),
                        lambda: Harness(inst), budget=budget)


def _ww_path_valid(inst: waterwalk.WwInstance, cells: tuple[Cell, ...]) -> bool:
    """Open-path rule check: runs are evaluated inside the frame only."""
    for c in inst.numbers:
        if c not in cells:
            return False
    runs: list[tuple[str, list[Cell]]] = []
    for c in cells:
        label = inst.terrain(c)
        if runs and runs[-1][0] == label:
            runs[-1][1].append(c)
        else:
            runs.append((label, [c]))
    for label, run in runs:
        if label == waterwalk.WATER and len(run) >= 3:
            return False
        if label == waterwalk.GROUND:
            for c in run:
                if c in inst.numbers and inst.numbers[c] != len(run):
                    return False
    return True


def _aon_harness(turns: int = 0) -> aon.AonInstance:
    """Canonical gadget rotated by ``turns``, sealed by the frame border."""
    frame = aon.FRAME
    pairs = set()
    for p, q in aon.gadget_wall_segments():
        rp = rotate_corner(frame, turns, p)
        rq = rotate_corner(frame, turns, q)
        pairs.add(tuple(sorted(corner_segment_to_cells(rp, rq))))
    boundary = BoundaryEdgeSet(frozenset(pairs)).union(perimeter_boundary(frame, frame))
    decomp = regions_from_boundaries(frame, frame, boundary)
    names = tuple(aon.region_token(rid) for rid in sorted(decomp.regions))
    return aon.AonInstance(frame, frame, decomp, names, boundary)


def _aon_harness_paths(start_side: Direction, goal_side: Direction,
                       budget: int | None, turns: int = 0):
    """Pinned-end traversals of the sealed canonical gadget.

    The two pinned border cells stand for the loop stubs continuing
    off-frame, so the big region starts with both its crossings spent and a
    valid traversal can never step into another region (any departure would
    be a third crossing).  The search domain is therefore the big region;
    :func:`_aon_escape_audit` separately certifies that every single-step
    departure is rejected by the rules.
    """
    inst = _aon_harness(turns)
    decomp = inst.regions
    start = aon.GADGET.exit_cell(start_side, turns)
    goal = aon.GADGET.exit_cell(goal_side, turns)
    big_id = decomp.region_of[start]
    big_cells = decomp.regions[big_id]
    return search_paths(
        sorted(big_cells), start, goal, sorted(big_cells),
        lambda: aon.AonLoopRules(inst, pre_crossings={big_id: 2}),
        budget=budget,
    ), inst, big_cells


def _aon_escape_audit(turns: int = 0) -> int:
    """Count big-region border adjacencies whose crossing the rules permit.

    Under the harness semantics (both big-region crossings already spent on
    the pinned stubs) every such step must be vetoed; the return value is
    the number of escapes the rules failed to reject, expected 0.
    """
    inst = _aon_harness(turns)
    decomp = inst.regions
    big_id = decomp.region_of[aon.GADGET.exit_cell(Direction.N.rotated(turns), turns)]
    escapes = 0
    for b in sorted(decomp.regions[big_id]):
        for nb in _on_board_neighbors(b, aon.FRAME):
            if decomp.region_of[nb] == big_id:
                continue
            rules = aon.AonLoopRules(inst, pre_crossings={big_id: 2})
            assert rules.push([], b)
            if rules.push([b], nb):
                escapes += 1
    return escapes


def certify_gadget(puzzle: str, budget: int | None = 50_000_000,
                   turns: int = 0) -> GadgetCertificate:
    """Exhaustively enumerate local gadget traversals between every exit pair
    (and toward the blocked side) and record structural findings.

    ``turns`` rotates the whole harness; counts must not depend on it.
    """
    gadget = puzzle_of(puzzle).gadget
    t0 = time.perf_counter()
    nodes = 0
    findings: list[str] = []
    pair_counts: dict[frozenset[Direction], int] = {}
    blocked_counts: dict[frozenset[Direction], int] = {}
    traversals: dict[frozenset[Direction], tuple] = {}

    exits = [d.rotated(turns) for d in sorted(gadget.exit_cells, key=lambda d: d.name)]
    blocked = gadget.non_exit.rotated(turns)

    if puzzle == "ww":
        for i, a in enumerate(exits):
            for b in exits[i + 1:]:
                goal = gadget.exit_cell(b, turns)
                res = _ww_harness_paths(a, goal, budget, turns)
                nodes += res.nodes
                pair_counts[frozenset({a, b})] = len(res.loops)
                traversals[frozenset({a, b})] = tuple(res.loops)
        # toward the blocked side's midline border cell, no traversal
        # should survive the rules
        blocked_goal = _midline_cell(blocked, gadget.frame)
        for a in exits:
            res = _ww_harness_paths(a, blocked_goal, budget, turns)
            nodes += res.nodes
            blocked_counts[frozenset({a, blocked})] = len(res.loops)
    else:
        stray = False
        for i, a in enumerate(exits):
            for b in exits[i + 1:]:
                res, inst, big_cells = _aon_harness_paths(a, b, budget, turns)
                nodes += res.nodes
                pair_counts[frozenset({a, b})] = len(res.loops)
                traversals[frozenset({a, b})] = tuple(res.loops)
                stray = stray or any(set(p) - set(big_cells) for p in res.loops)
        escapes = _aon_escape_audit(turns)
        entered = stray or escapes > 0
        findings.append(f"parts-entered {'yes' if entered else 'no'}")
        findings.append(f"one-cell-entered {'yes' if entered else 'no'}")
        findings.append(f"rule-permitted-escapes {escapes}")
        parts = aon.gadget_parts()
        decomp = parts["decomposition"]
        all_leaves = set()
        for part in parts["parts"]:
            rid = decomp.region_of[min(part)]
            all_leaves |= decomp.leaves[rid]
            findings.append(
                f"part {min(part)[0]} {min(part)[1]} leaves {len(decomp.leaves[rid])}")
        fixed = sum(1 for c in aon.FIXED_LEAF_CELLS if c in all_leaves)
        rim = sum(1 for c in aon.RIM_LEAF_CELLS if c in all_leaves)
        findings.append(f"fixed-markers-leaves {fixed}")
        findings.append(f"rim-markers-leaves {rim}")
        one_id = decomp.region_of[aon.ONE_CELL_REGION_CELL]
        around = {decomp.region_of[n]
                  for n in _on_board_neighbors(aon.ONE_CELL_REGION_CELL, aon.FRAME)}
        around.discard(one_id)
        findings.append(f"one-cell-enclosed-by {len(around)}")

    unique = all(c <= 1 for c in pair_counts.values())
    findings.append(f"locally-unique {'yes' if unique else 'no'}")
    elapsed = time.perf_counter() - t0
    return GadgetCertificate(puzzle, pair_counts, blocked_counts,
                             traversals, tuple(findings), nodes, elapsed)


def _on_board_neighbors(c: Cell, size: int):
    return [n for n in ((c[0] + 1, c[1]), (c[0] - 1, c[1]), (c[0], c[1] + 1),
                        (c[0], c[1] - 1)) if 0 <= n[0] < size and 0 <= n[1] < size]


def _midline_cell(side: Direction, frame: int) -> Cell:
    mid = frame // 2
    return {
        Direction.W: (0, mid),
        Direction.E: (frame - 1, mid),
        Direction.S: (mid, 0),
        Direction.N: (mid, frame - 1),
    }[side]


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
    given."""
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
