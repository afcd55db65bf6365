"""Spans and search-node counts recorded from the benchmark's side of each
layer boundary.

The program is not changed: :func:`instrument` rebinds the public functions
of each ``loopforge`` module, in every module that imported them, to
wrappers, and the returned callable puts the originals back.  Two wrappers
exist.  The node meter counts search nodes per op and runs in every mode,
so traced and untraced runs report the same per-op node counts.  The
tracer records one span per call: name, start, end, parent span and op id,
plus the input size that the growth metrics use.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter

from loopforge.errors import SearchBudgetExceeded

SEARCH = {"loopsearch": ("search_loops", "search_paths")}

LAYERS = {
    "hamilton": ("find_hamiltonian_cycle",),
    "framework": ("build_complement", "orient_complement", "exit_plan", "plan_for"),
    "aon": ("compile_aon", "verify_aon", "solve_aon", "parse_aon", "emit_aon"),
    "waterwalk": ("compile_ww", "verify_ww", "solve_ww", "parse_ww", "emit_ww"),
    "loopsearch": ("search_loops", "search_paths"),
    "reduction": ("certify_gadget", "roundtrip_experiment", "embed_cycle", "lift_solution"),
    "fileio": ("parse_loop", "emit_loop"),
    "render": ("render_svg",),
}

# Growth compares time per unit of input between the largest and smallest
# sizes seen; below an 8x8 source graph fixed per-call costs swamp it.
GROWTH_MIN_VERTICES = 64
AON_CELLS_PER_VERTEX = 11 * 11


def _size(args):
    """Input size of a call: vertices of a graph, cells of a board."""
    obj = args[0] if args else None
    if hasattr(obj, "cols"):
        return obj.cols * obj.rows
    if hasattr(obj, "width"):
        return obj.width * obj.height
    return None


def instrument(layers: dict, make_wrapper):
    """Replace each named function, wherever a ``loopforge`` module holds it,
    by ``make_wrapper(qualified_name, fn)``; return a callable that undoes it."""
    undo = []
    for modname, names in layers.items():
        home = importlib.import_module(f"loopforge.{modname}")
        for name in names:
            orig = getattr(home, name)
            wrapped = make_wrapper(f"{modname}.{name}", orig)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("loopforge"):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))

    def restore():
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)
    return restore


class NodeMeter:
    """Search nodes counted since the last ``reset``, budget stops included."""

    def __init__(self):
        self.nodes = 0

    def reset(self):
        self.nodes = 0

    def wrap(self, name, fn):
        def metered(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except SearchBudgetExceeded as exc:
                self.nodes += exc.nodes
                raise
            self.nodes += result.nodes
            return result
        return metered


class Tracer:
    """Span recorder.  ``op`` is the (round, op id) the next spans belong to."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, size, error, nodes]
        self.stack = []
        self.op = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    _size(args), None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[7] = getattr(result, "nodes", None)
                return result
            except BaseException as exc:
                span[6] = type(exc).__name__
                span[7] = getattr(exc, "nodes", None)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _growth(per_size: dict, min_size: int) -> float:
    """Time per unit of size at the largest size over that at the smallest;
    1.0 when fewer than two sizes reach ``min_size``."""
    sizes = sorted(n for n in per_size if n >= min_size)
    if len(sizes) < 2:
        return 1.0

    def per_vertex(n):
        total, calls = per_size[n]
        return total / calls / n
    return per_vertex(sizes[-1]) / per_vertex(sizes[0])


def _add(table: dict, key, t: float, calls: int):
    total, n = table.get(key, (0.0, 0))
    table[key] = (total + t, n + calls)


def layer_metrics(spans, scale: dict, traced_walls: dict, untraced_walls: list[float]) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from the spans of the
    traced rounds.  ``scale`` maps each (round, op id) to the factor that
    states that op execution's times at the reference speed.
    ``traced_walls`` maps each traced round to its time, and
    ``untraced_walls`` lists the untraced rounds' times.  Times are self
    times; every per-round figure is the median over traced rounds."""
    own = self_times(spans)
    per_round = {p: {"nodes": 0, "verdicts": 0, "budget_stops": 0, "search_s": 0.0,
                    "cert_nodes": 0, "ham_failed": 0} for p in traced_walls}
    framework, verify = {}, {}
    for s, t in zip(spans, own):
        name, start, end, _, op, size, error, nodes = s
        t *= scale[op]
        p = per_round[op[0]]
        p[name] = p.get(name, 0.0) + t
        if name.startswith("loopsearch."):
            p["nodes"] += nodes or 0
            p["search_s"] += (end - start) * scale[op]
            if error is None:
                p["verdicts"] += 1
            elif error == "SearchBudgetExceeded":
                p["budget_stops"] += 1
        elif name == "reduction.certify_gadget":
            p["cert_nodes"] += nodes or 0
        elif name == "hamilton.find_hamiltonian_cycle":
            p["ham_failed"] += error not in (None, "SearchBudgetExceeded")
        if size is not None and name.startswith("framework."):
            _add(framework, size, t, name == "framework.build_complement")
        elif size is not None and name == "aon.verify_aon":
            _add(verify, size, t, 1)

    def med(key):
        return statistics.median(p.get(key, 0) for p in per_round.values())

    m = {}
    for modname, names in LAYERS.items():
        for name in names:
            m[f"{modname}.{name}.s"] = (med(f"{modname}.{name}"), "s")
    nodes, verdicts, search_s = med("nodes"), med("verdicts"), med("search_s")
    m["loopsearch.nodes"] = (nodes, "count")
    m["loopsearch.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    m["loopsearch.nodes_per_verdict"] = (nodes / verdicts if verdicts else 0.0, "count")
    m["loopsearch.budget_stops"] = (med("budget_stops"), "count")
    m["reduction.certify_gadget.nodes"] = (med("cert_nodes"), "count")
    m["hamilton.find_hamiltonian_cycle.failed"] = (med("ham_failed"), "count")
    m["framework.plan_for.growth"] = (_growth(framework, GROWTH_MIN_VERTICES), "ratio")
    m["aon.verify_aon.growth"] = (_growth(verify, GROWTH_MIN_VERTICES * AON_CELLS_PER_VERTEX),
                                  "ratio")
    m["trace.overhead_frac"] = (statistics.median(traced_walls.values())
                                / statistics.median(untraced_walls) - 1, "ratio")
    return m
