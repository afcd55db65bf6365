"""Command-line surface: thin wrappers over the library operations.

Exit codes: 0 accept/solved/agreement, 1 reject/unsatisfiable/disagreement
(for ``roundtrip``, also a found loop that fails to lift), 2 budget
exhaustion, 3 malformed or missing input or a usage error, 4 internal error
(a crash, which must never read as a verdict).
"""

from __future__ import annotations

import argparse
import random
import sys
import traceback

from .errors import LiftError, LoopforgeError, MalformedLoopError, ParseError, \
    SearchBudgetExceeded
from .fileio import emit_graph, emit_loop, parse_graph, parse_loop
from .framework import emit_exit_plan, plan_for
from .hamilton import find_hamiltonian_cycle, random_candidate_subgraph
from .model import LoopPath
from .reduction import (
    CERTIFICATE_BUDGET,
    PUZZLES,
    certify_gadget,
    emit_certificate,
    emit_roundtrip_report,
    lift_solution,
    puzzle_of,
    roundtrip_experiment,
)
from .render import render_svg

OK, REJECT, BUDGET, BAD_INPUT, INTERNAL = 0, 1, 2, 3, 4


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rng = random.Random(args.seed)
    for i in range(args.count):
        g = random_candidate_subgraph(args.cols, args.rows, rng)
        path = args.out if args.count == 1 else f"{args.out}.{i}"
        _write(path, emit_graph(g))
    return OK


def cmd_ham(args) -> int:
    g = parse_graph(_read(args.infile))
    cycle = find_hamiltonian_cycle(g, args.budget)
    if cycle is None:
        print("no hamiltonian cycle", file=sys.stderr)
        return REJECT
    _write(args.out, emit_loop(LoopPath(cycle.vertices)))
    return OK


def cmd_orient(args) -> int:
    g = parse_graph(_read(args.infile))
    plan = plan_for(g)
    _write(args.out, emit_exit_plan(plan))
    return OK


def cmd_compile(args) -> int:
    p = puzzle_of(args.puzzle)
    g = parse_graph(_read(args.infile))
    _write(args.out, p.emit(p.compile(g, plan_for(g))))
    return OK


def cmd_solve(args) -> int:
    if args.cap is not None and not args.all:
        raise ValueError("--cap applies only with --all")
    p = puzzle_of(args.puzzle)
    inst = p.parse(_read(args.infile))
    mode = "all" if args.all else "first"
    result = p.solve(inst, mode=mode, budget=args.budget, cap=args.cap)
    if not result.loops:
        print("unsatisfiable" if result.exhausted else "no solution within cap",
              file=sys.stderr)
        return REJECT
    if mode == "first":
        _write(args.out, emit_loop(result.loops[0]))
    else:
        for i, loop in enumerate(result.loops):
            path = args.out if args.out is None else f"{args.out}.{i}"
            _write(path, emit_loop(loop))
        note = "" if result.exhausted else " (stopped at the cap; not exhaustive)"
        print(f"{len(result.loops)} solutions{note}", file=sys.stderr)
    return OK


def cmd_verify(args) -> int:
    p = puzzle_of(args.puzzle)
    inst = p.parse(_read(args.infile))
    loop = parse_loop(_read(args.loop))
    verdict = p.verify(inst, loop)
    lines = ["accept"] if verdict.ok else [
        f"rule {v.rule}: {v.message}" for v in verdict.violations]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    print(text, end="", file=sys.stderr)
    return OK if verdict.ok else REJECT


def cmd_lift(args) -> int:
    p = puzzle_of(args.puzzle)
    g = parse_graph(_read(args.infile))
    plan = plan_for(g)
    loop = parse_loop(_read(args.loop))
    verdict = p.verify(p.compile(g, plan), loop)
    if not verdict.ok:
        for v in verdict.violations:
            print(f"rule {v.rule}: {v.message}", file=sys.stderr)
        return REJECT
    try:
        cycle = lift_solution(g, plan, loop, args.puzzle)
    except LiftError as e:
        print(f"lift failure: {e}", file=sys.stderr)
        return REJECT
    _write(args.out, emit_loop(LoopPath(cycle.vertices)))
    return OK


def cmd_roundtrip(args) -> int:
    report = roundtrip_experiment(
        args.cols, args.rows, args.puzzle,
        solver_budget=args.budget, ham_budget=args.budget,
        dump_dir=args.dump)
    _write(args.out, emit_roundtrip_report(report))
    if report.disagreements or any(r.lift_ok is False for r in report.results):
        return REJECT
    if report.timeouts:
        return BUDGET
    return OK


def cmd_lab(args) -> int:
    cert = certify_gadget(args.puzzle, budget=args.budget)
    _write(args.out, emit_certificate(cert))
    return OK


def cmd_render(args) -> int:
    p = puzzle_of(args.puzzle)
    inst = p.parse(_read(args.infile))
    loop = parse_loop(_read(args.loop)) if args.loop else None
    if loop is not None:
        loop.check_on_board(inst.width, inst.height)
    marked = frozenset(loop.cells if loop else ())
    text = p.board_text(inst, marked) if args.format == "ascii" else render_svg(inst, loop)
    _write(args.out, text)
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopforge",
        description="Compile grid-graph Hamiltonicity into All or Nothing and "
                    "Water Walk puzzles; solve, verify, lift, and certify.")
    sub = p.add_subparsers(dest="command", required=True)

    # the flags several commands share, each defined once in a parent parser
    puzzle, infile, size, budget, out = (argparse.ArgumentParser(add_help=False)
                                         for _ in range(5))
    puzzle.add_argument("--puzzle", choices=PUZZLES, required=True)
    infile.add_argument("--in", dest="infile", required=True)
    size.add_argument("--rows", type=int, required=True)
    size.add_argument("--cols", type=int, required=True)
    budget.add_argument("--budget", type=int, default=None)
    out.add_argument("--out", default=None)

    def add(name, fn, parents, **kwargs):
        sp = sub.add_parser(name, parents=parents, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("gen", cmd_gen, [size], help="emit random degree-{2,3} candidate subgraphs")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--out", required=True)

    add("ham", cmd_ham, [infile, budget, out], help="find a Hamiltonian cycle of a graph file")
    add("orient", cmd_orient, [infile, out], help="dump the per-vertex exit plan")
    add("compile", cmd_compile, [puzzle, infile, out],
        help="compile a graph into a puzzle instance")

    sp = add("solve", cmd_solve, [puzzle, infile, budget, out], help="solve a puzzle instance")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--cap", type=int, default=None)

    sp = add("verify", cmd_verify, [puzzle, infile, out],
             help="check a loop against an instance")
    sp.add_argument("--loop", required=True)

    sp = add("lift", cmd_lift, [puzzle, out], help="map a puzzle solution back to a cycle")
    sp.add_argument("--in", dest="infile", required=True,
                    help="source graph file (the instance is recompiled)")
    sp.add_argument("--loop", required=True)

    sp = add("roundtrip", cmd_roundtrip, [puzzle, size, budget, out],
             help="equivalence experiment over all candidate subgraphs")
    sp.add_argument("--dump", default=None, help="directory for counterexample files")

    sp = add("lab", cmd_lab, [puzzle, out], help="certify gadget traversal counts")
    sp.add_argument("--budget", type=int, default=CERTIFICATE_BUDGET,
                    help="node budget of the whole certificate, all of its searches together")

    sp = add("render", cmd_render, [puzzle, infile, out],
             help="render an instance (optionally with a loop)")
    sp.add_argument("--loop", default=None)
    sp.add_argument("--format", choices=("ascii", "svg"), default="ascii")

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which here would read as a
        # budget stop; --help exits 0
        return BAD_INPUT if e.code else OK
    try:
        return args.fn(args)
    except SearchBudgetExceeded as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return BUDGET
    except (ParseError, MalformedLoopError, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT
    except (LoopforgeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
