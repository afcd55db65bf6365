"""Regenerate ``answer_key.json``, the benchmark's pinned expected outputs.

Run from the repository root::

    python3 perfbench/make_answer_key.py

For every board size the benchmark draws source graphs from, the key lists
each candidate graph (as a mask over ``graphs.free_edges``) and the ones that
have a Hamiltonian cycle.  Hamiltonicity comes from ``find_hamiltonian_cycle``
on the source graph, never from a puzzle solver, and every graph with at
most nine vertices is cross-checked against the brute-force permutation
oracle in ``tests/oracles.py``.  Gadget traversal counts are the values the
test suite pins, in the gadget's canonical orientation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from loopforge.hamilton import find_hamiltonian_cycle  # noqa: E402
from oracles import ham_cycles_by_permutation  # noqa: E402

from graphs import candidate_masks, free_edges, graph_from_mask  # noqa: E402

SIZES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 4))
ORACLE_MAX_VERTICES = 9

GADGETS = {
    "ww": {"pairs": {"E-N": 2, "E-S": 2, "N-S": 3},
           "blocked": {"E-W": 0, "N-W": 0, "S-W": 0}},
    "aon": {"pairs": {"E-N": 593, "E-W": 853, "N-W": 694},
            "findings": ["parts-entered no", "one-cell-entered no"]},
}


def build_key() -> dict:
    boards = {}
    for cols, rows in SIZES:
        masks = candidate_masks(cols, rows)
        ham = []
        for mask in masks:
            g = graph_from_mask(cols, rows, mask)
            yes = find_hamiltonian_cycle(g) is not None
            if cols * rows <= ORACLE_MAX_VERTICES and yes != bool(ham_cycles_by_permutation(g)):
                raise SystemExit(f"oracle disagrees on {cols}x{rows} mask {mask}")
            if yes:
                ham.append(mask)
        boards[f"{cols}x{rows}"] = {"free_edges": len(free_edges(cols, rows)),
                                    "candidates": masks, "hamiltonian": ham}
    return {"boards": boards, "gadgets": GADGETS}


if __name__ == "__main__":
    key = build_key()
    for size, board in key["boards"].items():
        print(f"{size}: {len(board['candidates'])} candidates, "
              f"{len(board['hamiltonian'])} Hamiltonian")
    (HERE / "answer_key.json").write_text(json.dumps(key, indent=1) + "\n")
