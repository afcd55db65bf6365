"""Byte pins of the SVG rendering and of the board and loop file round
trips, on two compiles whose embedded cycle is known: the All or Nothing
compile of serpentine 6 and the Water Walk compile of serpentine 12; and
of the exit plan dump of three larger graphs.

Each digest is the sha256 of the text; a change to any of these layers
that alters a single byte of its output fails here.
"""

import hashlib
import random
from functools import lru_cache

import pytest
from test_scaling import concentric_rings, serpentine

from loopforge.fileio import emit_loop, parse_loop
from loopforge.framework import emit_exit_plan, plan_for
from loopforge.hamilton import random_candidate_subgraph
from loopforge.reduction import embed_cycle, puzzle_of
from loopforge.render import render_svg

BOARDS = (("aon", 6), ("ww", 12))

PINNED_SHA256 = {
    ("aon", 6): {
        "svg": "6c5a92e5d12a063e23c868bdc717844b3fa5e10cf84483f052a7e548644c5190",
        "svg with loop": "b4e1121e61a224c33342429fa2b834f29d71c22e71b0cf5b07c96541b14d395d",
        "loop file": "fd2456fc42c592338793bcca9763671b49a9875c47d895ce3d2152606f17e37f",
        "board file": "7564ace052a3c7266f29d71fae8844cfdc671d6482a7b143ca8a69a499e221da",
    },
    ("ww", 12): {
        "svg": "4f6b27bbc78766b0c5e6790d55dfe28e3f8bbd49b6d94b86e0db4da9fd58628b",
        "svg with loop": "7f09e4b2d673b82c8b8a9357a2f2d2624f8b725668db083d16257283923fb1dc",
        "loop file": "8178c46011fbdcaf54fad99e032a32d7726207946c232510cdff47e259699e95",
        "board file": "abe9abd6a8eb056dde936f42f0028e02cb54f977a70f58aedbb3e0b3f3dccc9d",
    },
}


@lru_cache(maxsize=None)
def compiled(puzzle, n):
    """The compile of serpentine ``n`` and its embedded cycle's loop."""
    g, cycle = serpentine(n)
    plan = plan_for(g)
    return puzzle_of(puzzle).compile(g, plan), embed_cycle(g, plan, cycle, puzzle).loop


def text_of(puzzle, n, what):
    p = puzzle_of(puzzle)
    inst, loop = compiled(puzzle, n)
    if what == "svg":
        return render_svg(inst)
    if what == "svg with loop":
        return render_svg(inst, loop)
    if what == "loop file":
        return emit_loop(parse_loop(emit_loop(loop)))
    return p.emit(p.parse(p.emit(inst)))


@pytest.mark.parametrize("puzzle,n", BOARDS, ids=[f"{p}{n}" for p, n in BOARDS])
@pytest.mark.parametrize("what", ["svg", "svg with loop", "loop file", "board file"])
def test_output_pinned_byte_for_byte(puzzle, n, what):
    digest = hashlib.sha256(text_of(puzzle, n, what).encode()).hexdigest()
    assert digest == PINNED_SHA256[puzzle, n][what]


# the largest serpentine and random graphs of the benchmark's pipeline and
# a graph whose complement is all cycles, each with the sha256 of its exit
# plan dump as measured when orientation sorted a node key per component
PLAN_GRAPHS = {
    "serpentine48": (lambda: serpentine(48)[0],
                     "ef11110a57889e4462bf21760897ba57f1bce60f012815de565b808338b2ca8f"),
    "rings16": (lambda: concentric_rings(16),
                "a1f72d33a9c16fd312708634f821d44b886ee9723759caa4db7f785ea637256c"),
    "random32": (lambda: random_candidate_subgraph(32, 32, random.Random("1/pipeline/32")),
                 "57171d8a49ab2baae24b5a4ce3ae70170087326f4a735a3d226fbccee4ce5799"),
}


@pytest.mark.parametrize("name", list(PLAN_GRAPHS))
def test_exit_plan_pinned_byte_for_byte(name):
    graph, digest = PLAN_GRAPHS[name]
    assert hashlib.sha256(emit_exit_plan(plan_for(graph())).encode()).hexdigest() == digest
