"""Water Walk: terrain boards, rule checking, metacell compilation, solving.

Rules enforced by the verifier:

1. the loop passes through every numbered cell;
2. the maximal run of consecutive ground cells (along the loop) containing
   a numbered cell has length exactly that number;
3. the loop never passes through three consecutive water cells.

Runs are cyclic, so wrap-around runs count.

A board is one string of cell tokens in board order, as the board file
spells them (:class:`WwInstance`); parsing joins the file's columns into
it, and compiling joins the columns of the gadget's rotations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Mapping

from .errors import CompileError
from .fileio import WW_BOARD
from .framework import Direction, ExitPlan, Gadget
from .model import (
    Cell,
    GridGraph,
    LoopPath,
    Verdict,
    Violation,
    board_cells,
    labelled_runs,
    orthogonal_neighbors,
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
    board, n = gadget.boards[0], gadget.frame
    for side, (x, y) in gadget.exit_cells.items():
        inward = (x - side.dx, y - side.dy)
        if board[x * n + y] != "~":
            raise CompileError(f"exit cell {(x, y)} on side {side.name} is not water")
        if board[inward[0] * n + inward[1]] == "~":
            raise CompileError(f"exit on side {side.name} has no ground at {inward}")


check_crossings(GADGET)

# Midline border cell of the non-exit side; certification checks that no
# traversal from an exit can end there.
GADGET_BLOCKED_CELL = (0, 2)


_LAND, _CLUE = re.compile("[^~]"), re.compile("[1-9]")  # a ground cell's token, a clue's


@dataclass(frozen=True)
class WwInstance:
    """A Water Walk board.  ``cells`` holds one token per cell in board
    order, by x and then y, so cell ``(x, y)`` is at index
    ``x * height + y``: ``~`` water, ``.`` ground, ``1``-``9`` a clue on
    ground.  ``ground`` and ``numbers`` are built from it on first use, so
    equality compares the tokens alone."""

    width: int
    height: int
    cells: str

    def __post_init__(self):
        if len(self.cells) != self.width * self.height or not all(map(WW_BOARD.valid, self.cells)):
            raise ValueError(f"a {self.width}x{self.height} board needs one token of "
                             f"'~', '.' or '1'-'9' per cell")

    @cached_property
    def ground(self) -> frozenset[Cell]:
        h = self.height
        return frozenset(divmod(m.start(), h) for m in _LAND.finditer(self.cells))

    @cached_property
    def numbers(self) -> Mapping[Cell, int]:
        """Each clue cell's number, in board order, which is sorted order;
        read-only, as the board is."""
        h = self.height
        return MappingProxyType({divmod(m.start(), h): int(m.group())
                                 for m in _CLUE.finditer(self.cells)})


def gadget_board(turns: int) -> WwInstance:
    """The gadget turned by ``turns``, 0-3, alone on its frame: its tokens
    at that turn, already in board order."""
    return WwInstance(FRAME, FRAME, "".join(GADGET.boards[turns]))


def parse_ww(text: str) -> WwInstance:
    width, height, rows = WW_BOARD.read_rows(text)
    return WwInstance(width, height, "".join(chain.from_iterable(map(reversed, zip(*rows)))))


def board_text(inst: WwInstance, marked=frozenset()) -> str:
    """Board rows, top row first: ``#`` on a ``marked`` cell, else the
    cell's token."""
    return WW_BOARD.write(inst.width, inst.height, inst.cells, marked)


def emit_ww(inst: WwInstance) -> str:
    return f"ww {inst.width} {inst.height}\n" + board_text(inst)


def compile_ww(g: GridGraph, plan: ExitPlan) -> WwInstance:
    """Tile one rotated gadget per vertex on a 5x5-per-metacell board.

    In board order a board column is a metacell column from each vertex up
    the grid, so the board is one join of the columns of the rotations the
    tiling uses, each laid once (:func:`gadget_board`).  Every graph edge
    crosses two water exit cells flanked by ground, as
    :func:`check_crossings` checked once for the gadget, so the board is
    laid without looking at the edges again."""
    tiling, n = GADGET.tile(g, plan), FRAME
    rotated = {t: gadget_board(t).cells for t in set(tiling.values())}
    return WwInstance(n * g.cols, n * g.rows, "".join(
        rotated[tiling[x, y]][i:i + n]
        for x in range(g.cols) for i in range(0, n * n, n) for y in range(g.rows)))


def verify_ww(inst: WwInstance, loop: LoopPath) -> Verdict:
    loop.check_on_board(inst.width, inst.height)
    cells = loop.cells
    runs = labelled_runs(cells, _terrain(inst, cells), closed=True)
    return Verdict(_violations(inst, cells, runs))


# per cell token, its terrain
_TERRAIN = {"~": WATER, ".": GROUND, **dict.fromkeys("123456789", GROUND)}


def _terrain(inst: WwInstance, cells: tuple[Cell, ...]) -> list[str]:
    """The terrain of each of ``cells``, all on the board, read from its
    token in board order, at ``x * height + y``."""
    tokens, h = inst.cells, inst.height
    return [_TERRAIN[tokens[x * h + y]] for x, y in cells]


def _violations(inst: WwInstance, cells: tuple[Cell, ...], runs) -> tuple[Violation, ...]:
    """Rule breaches of a loop or an open path through ``cells``, whose
    terrain ``runs`` are cyclic for a loop and end at a path's ends."""
    numbers = inst.numbers
    on_loop = set(cells)
    violations = [Violation(1, f"numbered cell {c} is not on the loop", (c,))
                  for c in numbers if c not in on_loop]
    for label, run in runs:
        if label == GROUND:
            for c in filter(numbers.__contains__, run):
                n = numbers[c]
                if len(run) != n:
                    violations.append(Violation(
                        2, f"ground run through {c} has length {len(run)}, clue says {n}", run))
        elif len(run) >= 3:
            violations.append(Violation(
                3, f"loop passes {len(run)} consecutive water cells starting {run[0]}", run))
    return tuple(violations)


# per cell token, its value to the rules: 0 water, 10 ground, n a clue n
_VALUE = {"~": 0, ".": 10, **{str(n): n for n in range(1, 10)}}


class WwLoopRules(LoopConstraint):
    """Incremental prunes for the loop search: no water triples, and no
    ground run already longer than a clue it contains.  Interior runs are
    checked exactly when they get sealed by water; runs touching the path
    start are left to the final verification.

    Per pushed cell the stack holds the rules' state once it is pushed,
    ``(lead, run, lo, hi)``, which is :meth:`state`:

    - ``run``, ``lo``, ``hi``: the trailing run, ``-1`` or ``-2`` for one or
      two water cells, else the ground run's length (10 for 10 or more) and
      its smallest and largest clue (10 and 0 for none);
    - ``lead``: 0 while the trailing run is the start's, else the start's
      run as it was sealed: ``-1`` or ``-2`` for water, else
      ``(length * 11 + lo) * 10 + hi``.

    A length past 9 gets the verdicts of any larger one, since no clue
    reaches it.  Later pushes read only the trailing run and whether it is
    the start's.  At the close every run between the two ends was sealed
    and checked, so the verdict reads only the runs at the ends and
    whether every clue is on the path, which a search that requires the
    clues (as :func:`solve_ww` and :func:`gadget_harness` do) has settled.
    So paths with equal states get equal verdicts."""

    def __init__(self, inst: WwInstance):
        self.inst = inst
        self.cells, self.height = inst.cells, inst.height
        self.stack: list[tuple[int, int, int, int]] = []

    def push(self, cell) -> bool:
        x, y = cell
        v = _VALUE[self.cells[x * self.height + y]]
        stack = self.stack
        if not stack:
            top = (0, 1, v, v % 10) if v else (0, -1, 0, 0)
        else:
            lead, run, lo, hi = stack[-1]
            if not v:
                if run == -2:  # a third water cell in a row
                    return False
                if run < 0:
                    top = (lead, -2, 0, 0)
                elif lead:
                    if lo < 10 and not lo == hi == run:  # a sealed run that breaks its clue
                        return False
                    top = (lead, -1, 0, 0)
                else:  # the start's run is sealed
                    top = ((run * 11 + lo) * 10 + hi, -1, 0, 0)
            elif run < 0:
                top = (lead or run, 1, v, v % 10)
            else:
                lo = v if v < lo else lo
                hi = max(hi, v % 10)
                run = run + 1 if run < 10 else 10
                if run > lo:  # longer than its smallest clue
                    return False
                top = (lead, run, lo, hi)
        stack.append(top)
        return True

    def pop(self):
        self.stack.pop()

    def state(self):
        return self.stack[-1]

    def close_ok(self, cells) -> bool:
        return verify_ww(self.inst, LoopPath(cells)).ok

    def finish_ok(self, cells) -> bool:
        # open-path variant (pinned gadget traversal): runs end at the
        # path's ends, inside the frame
        return not _violations(self.inst, cells, labelled_runs(cells, _terrain(self.inst, cells)))


def gadget_harness(turns: int):
    """Search domain of the gadget certificate with the gadget rotated by
    ``turns``: every frame cell, the clue cells as required, and the rules
    on the lone gadget, whose runs end at the frame."""
    inst = gadget_board(turns)
    return board_cells(FRAME, FRAME), list(inst.numbers), lambda: WwLoopRules(inst)


def gadget_audit(turns: int, traversals, paths):
    """Blocked-side counts and findings of the gadget certificate: the
    traversals ``paths`` finds from each exit of the certified pairs
    ``traversals`` to the blocked side's midline cell (0 expected), and no
    finding of its own."""
    blocked = GADGET_NON_EXIT.rotated(turns)
    (goal,) = GADGET.place(turns, [GADGET_BLOCKED_CELL])
    exits = sorted({d for pair in traversals for d in pair}, key=lambda d: d.name)
    exits_at = GADGET.exits_at[turns]
    counts = {frozenset({a, blocked}): len(paths(exits_at[a], goal)) for a in exits}
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
    ground = inst.ground
    cells = [c for c in board_cells(inst.width, inst.height)
             if c in ground or any(n in ground for n in orthogonal_neighbors(c))]
    return search_loops(cells, list(inst.numbers), lambda: WwLoopRules(inst),
                        cap=cap, budget=budget)
