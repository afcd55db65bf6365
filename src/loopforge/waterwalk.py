"""Water Walk: terrain boards, rule checking, metacell compilation, solving.

Rules enforced by the verifier:

1. the loop passes through every numbered cell;
2. the maximal run of consecutive ground cells (along the loop) containing
   a numbered cell has length exactly that number;
3. the loop never passes through three consecutive water cells.

Runs are cyclic, so wrap-around runs count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .errors import CompileError
from .fileio import WW_BOARD
from .framework import Direction, ExitPlan, Gadget
from .model import (
    Cell,
    GridGraph,
    LoopPath,
    Verdict,
    Violation,
    loop_runs_with_cells,
    orthogonal_neighbors,
    path_runs,
)
from .loopsearch import LoopConstraint, SearchResult, search_loops, solver_cap

GROUND = "ground"
WATER = "water"

# Canonical gadget as a Water Walk board, top row first: non-exit side W;
# a 4-cell ground cluster with a single "3" clue, everything else water.
# Exit border cells sit on the midline of their side (index 2), one step
# outside the ground cluster.
GADGET_ROWS = """\
~~~~~
~~.~~
~~3.~
~~.~~
~~~~~
"""
GADGET_NON_EXIT = Direction.W
GADGET_EXIT_CELLS = {
    Direction.S: (2, 0),
    Direction.N: (2, 4),
    Direction.E: (4, 2),
}

# Local traversals between exit border cells, complete per pair: two ways
# between adjacent sides, three between the opposite pair.
GADGET_PATHS: dict[frozenset[Direction], tuple[tuple[Cell, ...], ...]] = {
    frozenset({Direction.S, Direction.E}): (
        ((2, 0), (2, 1), (2, 2), (3, 2), (4, 2)),
        ((2, 0), (2, 1), (2, 2), (2, 3), (3, 3), (3, 2), (4, 2)),
    ),
    frozenset({Direction.N, Direction.E}): (
        ((2, 4), (2, 3), (2, 2), (3, 2), (4, 2)),
        ((2, 4), (2, 3), (2, 2), (2, 1), (3, 1), (3, 2), (4, 2)),
    ),
    frozenset({Direction.S, Direction.N}): (
        ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4)),
        ((2, 0), (2, 1), (3, 1), (3, 2), (2, 2), (2, 3), (2, 4)),
        ((2, 0), (2, 1), (2, 2), (3, 2), (3, 3), (2, 3), (2, 4)),
    ),
}

GADGET = Gadget(GADGET_ROWS, WW_BOARD, GADGET_NON_EXIT, GADGET_EXIT_CELLS, GADGET_PATHS)
FRAME = GADGET.frame


def check_crossings(gadget: Gadget) -> None:
    """Raise :class:`CompileError` unless each exit cell of ``gadget`` is
    water with ground one step inward.  Rotation carries the terrain with
    the cells and the exit cells sit on their sides' midlines, so across
    every graph edge of a compile the loop then passes ground, water,
    water, ground."""
    ((_, cells, tokens),) = gadget.lay({(0, 0): 0})
    token_of = dict(zip(cells, tokens))
    for side, (x, y) in gadget.exit_cells.items():
        inward = (x - side.dx, y - side.dy)
        if token_of[x, y] != "~":
            raise CompileError(f"exit cell {(x, y)} on side {side.name} is not water")
        if token_of[inward] == "~":
            raise CompileError(f"exit on side {side.name} has no ground at {inward}")


check_crossings(GADGET)

# Midline border cell of the non-exit side; certification checks that no
# traversal from an exit can end there.
GADGET_BLOCKED_CELL = (0, 2)


@dataclass(frozen=True)
class WwInstance:
    width: int
    height: int
    ground: frozenset[Cell]
    numbers: dict[Cell, int]

    def __post_init__(self):
        for c in self.ground:
            if not self.on_board(c):
                raise ValueError(f"ground cell {c} off the board")
        for c, n in self.numbers.items():
            if c not in self.ground:
                raise ValueError(f"number on water cell {c}")
            if not 1 <= n <= 9:
                raise ValueError(f"number out of range at {c}: {n}")

    def on_board(self, c: Cell) -> bool:
        return 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def terrain(self, c: Cell) -> str:
        return GROUND if c in self.ground else WATER


_LAND = re.compile("[^~]")  # a ground cell's token in a board row


def _board(width: int, height: int, tokens: Iterable[tuple[Cell, str]]) -> WwInstance:
    """The board whose cells hold the ``(cell, token)`` pairs ``tokens``:
    ``~`` water, ``.`` ground, a digit a clue on ground."""
    ground, numbers = set(), {}
    for cell, tok in tokens:
        if tok != "~":
            ground.add(cell)
            if tok != ".":
                numbers[cell] = int(tok)
    return WwInstance(width, height, frozenset(ground), numbers)


def parse_ww(text: str) -> WwInstance:
    width, height, rows = WW_BOARD.read_rows(text)
    return _board(width, height, (((m.start(), y), m.group())
                                  for y, row in zip(range(height - 1, -1, -1), rows)
                                  for m in _LAND.finditer(row)))


def board_text(inst: WwInstance, marked=frozenset()) -> str:
    """Board rows, top row first: ``#`` on a ``marked`` cell, else the
    cell's clue, ``.`` for ground or ``~`` for water."""
    numbers, ground = inst.numbers, inst.ground

    def token(c: Cell) -> str:
        return str(numbers[c]) if c in numbers else "." if c in ground else "~"

    return WW_BOARD.write(inst.width, inst.height, token, marked)


def emit_ww(inst: WwInstance) -> str:
    return f"ww {inst.width} {inst.height}\n" + board_text(inst)


def compile_ww(g: GridGraph, plan: ExitPlan) -> WwInstance:
    """Tile one rotated gadget per vertex on a 5x5-per-metacell board.

    Every graph edge crosses two water exit cells flanked by ground, as
    :func:`check_crossings` checked once for the gadget, so the board is
    laid without looking at the edges again."""
    laid = GADGET.lay(GADGET.tile(g, plan))
    return _board(FRAME * g.cols, FRAME * g.rows,
                  chain.from_iterable(zip(cells, tokens) for _, cells, tokens in laid))


def verify_ww(inst: WwInstance, loop: LoopPath) -> Verdict:
    loop.check_on_board(inst.width, inst.height)
    return Verdict(_violations(inst, loop.cells, loop_runs_with_cells(loop, inst.terrain)))


def _violations(inst: WwInstance, cells: tuple[Cell, ...], runs) -> tuple[Violation, ...]:
    """Rule breaches of a loop or an open path through ``cells``, whose
    terrain ``runs`` are cyclic for a loop and end at a path's ends."""
    violations = []
    on_loop = set(cells)

    for c in sorted(inst.numbers):
        if c not in on_loop:
            violations.append(Violation(1, f"numbered cell {c} is not on the loop", (c,)))

    for label, run in runs:
        if label == GROUND:
            numbered = [c for c in run if c in inst.numbers]
            for c in numbered:
                n = inst.numbers[c]
                if len(run) != n:
                    violations.append(Violation(
                        2,
                        f"ground run through {c} has length {len(run)}, clue says {n}",
                        tuple(run),
                    ))
        else:
            if len(run) >= 3:
                violations.append(Violation(
                    3,
                    f"loop passes {len(run)} consecutive water cells starting {run[0]}",
                    tuple(run),
                ))
    return tuple(violations)


class WwLoopRules(LoopConstraint):
    """Incremental prunes for the loop search: no water triples, and no
    ground run already longer than a clue it contains.  Interior runs are
    checked exactly when they get sealed by water; runs touching the path
    start are left to the final verification."""

    def __init__(self, inst: WwInstance):
        self.inst = inst
        # per pushed cell, (run_len, run_min, run_max, run_start) for the
        # ground run it ends, or None for water; run_start is a path index
        self.run_stack: list[tuple[int, int, int, int] | None] = []

    def push(self, cell) -> bool:
        inst = self.inst
        is_ground = cell in inst.ground
        prev_run = self.run_stack[-1] if self.run_stack else None

        if not is_ground:
            if self.run_stack[-2:] == [None, None]:  # a third water cell in a row
                return False
            if prev_run is not None:
                run_len, run_min, run_max, run_start = prev_run
                if run_min <= 9 and run_start > 0:  # sealed interior run with a clue
                    if not (run_min == run_max == run_len):
                        return False
            self.run_stack.append(None)
            return True

        if prev_run is None:
            n = inst.numbers.get(cell)
            entry = (1, n if n else 10, n if n else 0, len(self.run_stack))
        else:
            run_len, run_min, run_max, run_start = prev_run
            n = inst.numbers.get(cell)
            run_len += 1
            if n:
                run_min = min(run_min, n)
                run_max = max(run_max, n)
            entry = (run_len, run_min, run_max, run_start)
        if entry[1] <= 9 and entry[0] > entry[1]:  # longer than its smallest clue
            return False
        self.run_stack.append(entry)
        return True

    def pop(self):
        self.run_stack.pop()

    def close_ok(self, cells) -> bool:
        return verify_ww(self.inst, LoopPath(cells)).ok

    def finish_ok(self, cells) -> bool:
        # open-path variant (pinned gadget traversal): runs end at the
        # path's ends, inside the frame
        return not _violations(self.inst, cells, path_runs(cells, self.inst.terrain))


def gadget_harness(turns: int):
    """Search domain of the gadget certificate with the gadget rotated by
    ``turns``: every frame cell, the clue cells as required, and the rules
    on the lone gadget, whose runs end at the frame."""
    ((_, cells, tokens),) = GADGET.lay({(0, 0): turns})
    inst = _board(FRAME, FRAME, zip(cells, tokens))
    cells = [(x, y) for x in range(FRAME) for y in range(FRAME)]
    return cells, sorted(inst.numbers), lambda: WwLoopRules(inst)


def gadget_audit(turns: int, traversals, paths):
    """Blocked-side counts and findings of the gadget certificate: the
    traversals ``paths`` finds from each exit of the certified pairs
    ``traversals`` to the blocked side's midline cell (0 expected), and no
    finding of its own."""
    blocked = GADGET_NON_EXIT.rotated(turns)
    (goal,) = GADGET.place((0, 0), turns, [GADGET_BLOCKED_CELL])
    exits = sorted({d for pair in traversals for d in pair}, key=lambda d: d.name)
    counts = {frozenset({a, blocked}):
              len(paths(GADGET.board_exit((0, 0), turns, a), goal)) for a in exits}
    return counts, ()


def solve_ww(
    inst: WwInstance,
    mode: str = "first",
    budget: int | None = None,
    cap: int | None = None,
) -> SearchResult:
    """Search for verified loops.  ``mode`` is "first" or "all"; "all" may be
    capped.  The result's ``exhausted`` flag reports whether the search space
    was fully covered (meaningful for empty results and exact counts)."""
    cap = solver_cap(mode, cap)
    # a water run is at most 2 long, so every water cell on a loop has a
    # ground loop-neighbor; cells with no adjacent ground can never be used
    cells = [
        (x, y)
        for x in range(inst.width)
        for y in range(inst.height)
        if (x, y) in inst.ground
        or any(n in inst.ground for n in orthogonal_neighbors((x, y)))
    ]
    return search_loops(
        cells,
        sorted(inst.numbers),
        lambda: WwLoopRules(inst),
        cap=cap,
        budget=budget,
    )
