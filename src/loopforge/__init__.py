"""Toolkit for compiling grid-graph Hamiltonicity instances into All or
Nothing and Water Walk puzzles, solving and verifying both, lifting puzzle
solutions back to Hamiltonian cycles, and exhaustively certifying the
metacell gadget properties the construction relies on."""

from .aon import (
    AonInstance,
    analyze_dead_regions,
    compile_aon,
    parse_aon,
    emit_aon,
    solve_aon,
    verify_aon,
)
from .errors import (
    CompileError,
    LiftError,
    LoopforgeError,
    MalformedLoopError,
    ParseError,
    SearchBudgetExceeded,
)
from .fileio import emit_graph, emit_loop, parse_graph, parse_loop
from .framework import (
    ComplementGraph,
    Direction,
    ExitPlan,
    Orientation,
    build_complement,
    exit_plan,
    orient_complement,
    plan_for,
)
from .hamilton import (
    count_hamiltonian_cycles,
    enumerate_candidate_subgraphs,
    find_hamiltonian_cycle,
    hamiltonian_cycles,
    random_candidate_subgraph,
)
from .model import (
    GridGraph,
    HamCycle,
    LoopPath,
    RegionDecomposition,
    Verdict,
    Violation,
    crossings_by_region,
    degree_profile,
    full_grid,
    grid_graph,
    regions_from_labels,
)
from .reduction import (
    GadgetCertificate,
    TraversalWitness,
    certify_gadget,
    embed_cycle,
    lift_solution,
    roundtrip_experiment,
)
from .waterwalk import WwInstance, compile_ww, emit_ww, parse_ww, solve_ww, verify_ww

__all__ = [name for name in dir() if not name.startswith("_")]
