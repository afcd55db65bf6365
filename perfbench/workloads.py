"""The benchmark's workloads: inputs made from a seed, the op list of one
pass, and the check of every op's output against the pinned answer key.

An op returns its verdict: "yes" (a solution, checked), "no" (an exhaustive
refutation, checked), "ok" (all outputs match the key) or "budget" (the node
budget ran out first, so no verdict).  An output that disagrees with the key
raises :class:`WrongAnswer`.  Library functions are looked up on their
modules at call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from loopforge import aon, fileio, framework, hamilton, reduction, render, waterwalk
from loopforge.errors import SearchBudgetExceeded
from loopforge.framework import Direction
from loopforge.model import GridGraph, HamCycle, full_grid

from graphs import graph_mask, is_hamiltonian_cycle, serpentine

KEY_PATH = Path(__file__).resolve().parent / "answer_key.json"
MODULES = {"aon": aon, "ww": waterwalk}

# Node budgets pinned per board class.  Decided boards stay far below
# DECIDE_BUDGET; the frontier budgets end those searches in about a second.
DECIDE_BUDGET = 2_000_000
ROUNDTRIP_AON_BUDGET = 5_000_000
FRONTIER_BUDGET = {"ww": 50_000, "aon": 5_000}


class WrongAnswer(Exception):
    """An op's output disagrees with the answer key."""


@dataclass(frozen=True)
class Op:
    """One operation.  ``cost_s`` is about the time of one run on a 2-core
    x86 host (Python 3.11); it sets how often the op runs, see
    ``run.plan``, and never enters a metric."""
    id: str
    run: Callable[[], str]
    cost_s: float


class AnswerKey:
    def __init__(self, data: dict):
        self.gadgets = data["gadgets"]
        self.boards = {k: (v["candidates"], frozenset(v["hamiltonian"]))
                       for k, v in data["boards"].items()}

    @classmethod
    def load(cls) -> "AnswerKey":
        return cls(json.loads(KEY_PATH.read_text()))

    def hamiltonian(self, g) -> bool:
        candidates, ham = self.boards[f"{g.cols}x{g.rows}"]
        mask = graph_mask(g)
        if mask not in candidates:
            raise ValueError(f"{g.cols}x{g.rows} graph is not a pinned candidate")
        return mask in ham


def _fn(puzzle: str, verb: str):
    return getattr(MODULES[puzzle], f"{verb}_{puzzle}")


def _expect(ok: bool, what: str):
    if not ok:
        raise WrongAnswer(what)


def _pair_name(pair, turns: int) -> str:
    """Exit pair in the gadget's canonical orientation, e.g. "E-N"."""
    return "-".join(sorted(d.rotated(-turns).name for d in pair))


def check_plan(g, plan):
    """Three exits per vertex, every graph edge an exit, and mutual facing:
    two neighbours face each other exactly when they share an edge."""
    for v in g.vertices():
        exits = plan.exits(v)
        _expect(len(exits) == 3, f"vertex {v} has {len(exits)} exits")
        for d in Direction:
            w = (v[0] + d.dx, v[1] + d.dy)
            if g.in_bounds(w):
                mutual = d in exits and d.opposite() in plan.exits(w)
                _expect(mutual == g.has_edge(v, w), f"exit plan breaks mutual facing at {v}")


def _check_svg(svg: str, inst, loop):
    w, h = inst.width * render.CELL, inst.height * render.CELL
    _expect(svg.startswith("<svg") and svg.rstrip().endswith("</svg>"), "svg not closed")
    _expect(f'width="{w}" height="{h}"' in svg, "svg size")
    polyline = svg[svg.index("<polyline points=\""):].split('"')[1]
    _expect(len(polyline.split()) == len(loop.cells) + 1, "svg loop length")


def roundtrip_op(key: AnswerKey, puzzle: str, cols: int, rows: int, cost_s: float,
                 budget=None) -> Op:
    candidates, ham = key.boards[f"{cols}x{rows}"]

    def run():
        report = reduction.roundtrip_experiment(cols, rows, puzzle, solver_budget=budget)
        _expect(len(report.results) == len(candidates), "candidate count")
        verdict = "ok"
        for r, mask in zip(report.results, candidates):
            want = "yes" if mask in ham else "no"
            _expect(r.hamiltonian == want, f"instance {r.index} Hamiltonicity")
            if r.solvable == "timeout":
                verdict = "budget"
                continue
            _expect(r.solvable == want, f"instance {r.index} solvability")
            _expect(want == "no" or r.lift_ok is True, f"instance {r.index} lift")
        return verdict
    return Op(f"roundtrip/{puzzle}/{cols}x{rows}", run, cost_s)


def certify_op(key: AnswerKey, puzzle: str, turns: int, cost_s: float) -> Op:
    want = key.gadgets[puzzle]

    def run():
        cert = reduction.certify_gadget(puzzle, turns=turns)
        pairs = {_pair_name(p, turns): n for p, n in cert.pair_counts.items()}
        _expect(pairs == want["pairs"], f"pair counts {pairs}")
        if "blocked" in want:
            blocked = {_pair_name(p, turns): n for p, n in cert.blocked_side_counts.items()}
            _expect(blocked == want["blocked"], f"blocked-side counts {blocked}")
        for finding in want.get("findings", ()):
            _expect(finding in cert.findings, f"missing finding {finding!r}")
        return "ok"
    return Op(f"certify/{puzzle}/turns{turns}", run, cost_s)


def solve_op(key: AnswerKey, label: str, puzzle: str, g, budget: int, cost_s: float) -> Op:
    """Compile, solve in first mode, and check: a "yes" must verify and lift
    to a Hamiltonian cycle of a Hamiltonian source, a "no" must be
    exhaustive on a non-Hamiltonian source."""
    hamiltonian = key.hamiltonian(g)

    def run():
        plan = framework.plan_for(g)
        inst = _fn(puzzle, "compile")(g, plan)
        try:
            res = _fn(puzzle, "solve")(inst, mode="first", budget=budget)
        except SearchBudgetExceeded:
            return "budget"
        if res.loops:
            _expect(hamiltonian, "solved a board whose source has no Hamiltonian cycle")
            loop = res.loops[0]
            _expect(_fn(puzzle, "verify")(inst, loop).ok, "solution fails the verifier")
            cycle = reduction.lift_solution(g, plan, loop, puzzle)
            _expect(is_hamiltonian_cycle(g, cycle.vertices), "lifted loop is not a cycle of g")
            return "yes"
        if not res.exhausted:
            return "budget"
        _expect(not hamiltonian, "refuted a board whose source is Hamiltonian")
        return "no"
    return Op(f"solve/{puzzle}/{g.cols}x{g.rows}/{label}", run, cost_s)


def chain_op(puzzle: str, n: int, cost_s: float) -> Op:
    """Every layer on the serpentine n x n graph, whose one Hamiltonian cycle
    the benchmark knows: complement, orientation, exit plan, compile, board
    and loop file round trips, embed, verify, lift and render."""
    g, order = serpentine(n)

    def run():
        h = framework.build_complement(g)
        o = framework.orient_complement(h)
        plan = framework.exit_plan(g, o)
        check_plan(g, plan)
        inst = _fn(puzzle, "compile")(g, plan)
        board = _fn(puzzle, "parse")(_fn(puzzle, "emit")(inst))
        _expect(board == inst, "board file round trip")
        witness = reduction.embed_cycle(g, plan, HamCycle(order), puzzle)
        loop = fileio.parse_loop(fileio.emit_loop(witness.loop))
        _expect(loop == witness.loop, "loop file round trip")
        _expect(_fn(puzzle, "verify")(board, loop).ok, "embedded cycle fails the verifier")
        cycle = reduction.lift_solution(g, plan, loop, puzzle)
        _expect(is_hamiltonian_cycle(g, cycle.vertices), "lifted loop is not a cycle of g")
        _check_svg(render.render_svg(board, loop), board, loop)
        return "yes"
    return Op(f"chain/{puzzle}/serpentine{n}", run, cost_s)


def compile_op(label: str, graphs: list, cost_s: float) -> Op:
    """``plan_for`` and both compilers on each graph; the graphs share a size."""
    def run():
        for g in graphs:
            plan = framework.plan_for(g)
            check_plan(g, plan)
            for puzzle, mod in MODULES.items():
                inst = _fn(puzzle, "compile")(g, plan)
                _expect((inst.width, inst.height) == (mod.FRAME * g.cols, mod.FRAME * g.rows),
                        f"{puzzle} board size")
        return "ok"
    return Op(f"compile/{graphs[0].cols}x{graphs[0].rows}/{label}", run, cost_s)


def hamilton_op(n: int, cost_s: float) -> Op:
    g, _ = serpentine(n)

    def run():
        cycle = hamilton.find_hamiltonian_cycle(g)
        _expect(cycle is not None, "no cycle found on a Hamiltonian graph")
        _expect(is_hamiltonian_cycle(g, cycle.vertices), "returned sequence is not a cycle")
        return "yes"
    return Op(f"hamilton/serpentine{n}", run, cost_s)


def probe_op(key: AnswerKey) -> Op:
    """Every traced layer once on the full 2x2 grid, so that each workload
    reports a measured time for each layer; about 0.1 s."""
    g = full_grid(2, 2)

    def run():
        cycle = hamilton.find_hamiltonian_cycle(g)
        _expect(cycle is not None and is_hamiltonian_cycle(g, cycle.vertices), "2x2 cycle")
        for puzzle in MODULES:
            plan = framework.plan_for(g)
            inst = _fn(puzzle, "parse")(_fn(puzzle, "emit")(_fn(puzzle, "compile")(g, plan)))
            res = _fn(puzzle, "solve")(inst, mode="first", budget=DECIDE_BUDGET)
            _expect(bool(res.loops) and _fn(puzzle, "verify")(inst, res.loops[0]).ok,
                    f"{puzzle} 2x2 solve")
            loop = fileio.parse_loop(fileio.emit_loop(
                reduction.embed_cycle(g, plan, cycle, puzzle).loop))
            _expect(_fn(puzzle, "verify")(inst, loop).ok, f"{puzzle} 2x2 embed")
            lifted = reduction.lift_solution(g, plan, loop, puzzle)
            _expect(is_hamiltonian_cycle(g, lifted.vertices), f"{puzzle} 2x2 lift")
            _check_svg(render.render_svg(inst, loop), inst, loop)
        for op in (certify_op(key, "ww", 0, 0.006), roundtrip_op(key, "ww", 2, 2, 0.007)):
            _expect(op.run() == "ok", op.id)
        return "ok"
    return Op("probe/2x2", run, 0.07)


def _random_graph(cols: int, rows: int, seed) -> GridGraph:
    return hamilton.random_candidate_subgraph(cols, rows, random.Random(seed))


def roundtrip_ops(key: AnswerKey, seed: int) -> list[Op]:
    """The paper's experiment; exhaustive, so the seed does not enter."""
    ops = [probe_op(key)]
    ops += [roundtrip_op(key, "ww", c, r, cost) for c, r, cost in
            ((2, 2, 0.007), (2, 3, 0.08), (3, 2, 0.08), (3, 3, 13.5))]
    ops += [roundtrip_op(key, "aon", 2, 2, 0.036),
            roundtrip_op(key, "aon", 2, 3, 2.3, ROUNDTRIP_AON_BUDGET)]
    ops += [certify_op(key, "ww", t, 0.006) for t in range(4)]
    ops.append(certify_op(key, "aon", 0, 4.8))
    return ops


def solve_ops(key: AnswerKey, seed: int) -> list[Op]:
    ops = [probe_op(key)]
    for puzzle, c, r, cost in (("ww", 2, 4, 0.43), ("ww", 4, 2, 0.4), ("aon", 2, 3, 0.73),
                               ("aon", 2, 4, 1.6)):
        ops.append(solve_op(key, f"seed{seed}", puzzle,
                            _random_graph(c, r, f"{seed}/first/{puzzle}{c}x{r}"),
                            DECIDE_BUDGET, cost))
    for i in range(4):
        ops.append(solve_op(key, f"seed{seed}.{i}", "aon",
                            _random_graph(3, 3, f"{seed}/refute/{i}"), DECIDE_BUDGET, 0.02))
    # the baseline boards: seed 7 as in random_candidate_subgraph(c, r, Random(7))
    ops.append(solve_op(key, "seed7", "ww", _random_graph(2, 3, 7), DECIDE_BUDGET, 0.05))
    ops.append(solve_op(key, "seed7", "ww", _random_graph(3, 4, 7), DECIDE_BUDGET, 10.2))
    # the frontier boards are the same for every seed: a solver that decides
    # some of them moves decided_frac by the same step on every seed
    for i, (puzzle, c, r, cost) in enumerate((("ww", 4, 4, 1.6), ("ww", 4, 4, 0.75),
                                              ("aon", 3, 4, 1.4), ("aon", 4, 2, 0.7))):
        ops.append(solve_op(key, f"frontier{i}", puzzle, _random_graph(c, r, f"frontier/{i}"),
                            FRONTIER_BUDGET[puzzle], cost))
    return ops


def pipeline_ops(key: AnswerKey, seed: int) -> list[Op]:
    ops = [probe_op(key)]
    ops += [chain_op("aon", n, cost) for n, cost in ((8, 0.3), (12, 0.87), (16, 2.6))]
    ops += [chain_op("ww", n, cost) for n, cost in ((16, 0.074), (32, 0.67), (48, 2.7))]
    # two 16x16 candidates in one op: a single one's cost moves by 10% from
    # seed to seed, and this op sits at the workload's median latency
    ops += [compile_op(f"seed{seed}", [_random_graph(n, n, f"{seed}/pipeline/{n}{suffix}")
                                       for suffix in suffixes], cost)
            for n, suffixes, cost in ((16, ("", ".1"), 0.72), (32, ("",), 1.75))]
    # serpentine 32 recurses past the interpreter's default limit today; it
    # stays in the list and counts as a failed op until the search is fixed
    ops += [hamilton_op(n, cost) for n, cost in ((16, 0.035), (24, 0.16), (32, 0.33))]
    return ops


WORKLOADS = {"roundtrip": roundtrip_ops, "solve": solve_ops, "pipeline": pipeline_ops}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](AnswerKey.load(), seed)
