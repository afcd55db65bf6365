"""loopforge benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run is a closed loop in one process: one op at a time, each op's output
checked against the pinned answer key.  With ``--trace 0`` the run follows
:func:`plan`, which fills ``--seconds`` with runs of every op from the ops'
pinned costs, so that every run of a workload attempts the same runs.
Every time is stated at the reference speed of :mod:`speed`, which samples
the machine's speed all through the run, and an op's latency is the median
of its runs.  The last line of stdout is the end-to-end result.  With
``--trace 1`` untraced and traced rounds of the whole op list alternate,
and the result holds the per-layer metrics and the tracing overhead.  Each
run appends its full record (metadata, result, every op's verdict, node
count and times) to ``--out`` and, when traced, writes its spans beside it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out" / "results.jsonl"
SETUP_REPEATS = 15
MIN_RUNS = 3
MAX_RUNS = 40
# an untraced and a traced round together take about this many passes
TRACED_PAIR_PASSES = 2.5
# no op starts this long after measuring began, so that a much slower
# program still ends within the three minutes a run may take
HARD_STOP_S = 110
DECIDED = ("yes", "no", "ok")
FAILED = ("wrong", "crash")


class Timing(NamedTuple):
    """A measured time, without the speed samples taken during it, and the
    interval of the run's clock it fell in."""
    raw_s: float
    t0: float
    t1: float


def _timed(speedometer, fn) -> tuple[Timing, object]:
    spent = speedometer.spent
    t0 = time.perf_counter()
    value = fn()
    t1 = time.perf_counter()
    return Timing(t1 - t0 - (speedometer.spent - spent), t0, t1), value


def _import_afresh():
    """Import the package as if for the first time: its modules run again,
    and the modules already loaded are put back afterwards, so every
    reference to them stays valid."""
    loaded = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "loopforge"}
    for k in loaded:
        del sys.modules[k]
    try:
        importlib.import_module("loopforge")
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "loopforge"]:
            del sys.modules[k]
        sys.modules.update(loaded)


def set_up(workload: str, seed: int, speedometer) -> tuple[list, list[Timing], list[Timing]]:
    """Import the package afresh and build the op list, ``SETUP_REPEATS``
    times each; return the ops and both sets of timings."""
    import workloads

    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        imports.append(_timed(speedometer, _import_afresh)[0])
        gc.collect()
        timing, ops = _timed(speedometer, lambda: workloads.build(workload, seed))
        builds.append(timing)
    return ops, imports, builds


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _meta(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": os.getloadavg(), "commit": _commit(), "time": time.time()}


def plan(ops, seconds: float) -> list:
    """The order of an untraced run's op executions.  Op ``i`` runs
    ``n_i = T // cost_i`` times, for the largest per-op time ``T`` at which
    the runs' pinned costs fit in ``seconds``: every op gets about the same
    measuring time.  ``n_i`` is at most ``MAX_RUNS`` and at least
    ``MIN_RUNS``, so that an op's latency is a median, for every op whose
    ``MIN_RUNS`` runs take at most a third of ``seconds``; a longer op
    runs at least once.  Each op's runs are spread evenly over the run.
    The plan depends on the pinned costs and ``seconds`` only, never on a
    clock or the seed."""
    least = [MIN_RUNS if MIN_RUNS * op.cost_s <= seconds / 3 else 1 for op in ops]

    def counts(t):
        return [min(MAX_RUNS, max(lo, int(t / op.cost_s + 1e-9))) for lo, op in zip(least, ops)]

    def total(t):
        return sum(n * op.cost_s for n, op in zip(counts(t), ops))

    steps = sorted({k * op.cost_s for op in ops for k in range(1, MAX_RUNS + 1)})
    t = max((x for x in steps if total(x) <= seconds), default=0.0)
    order = sorted(((k + 0.5) / n, i) for i, n in enumerate(counts(t)) for k in range(n))
    return [ops[i] for _, i in order]


class Run(NamedTuple):
    """One execution of one op."""
    round_no: int
    traced: bool
    verdict: str
    nodes: int
    timing: Timing
    error: str | None


class Runner:
    """Executes ops one at a time and keeps every execution, per op."""

    def __init__(self, ops, meter, tracer, speedometer):
        from workloads import WrongAnswer

        self.ops, self.meter, self.tracer, self.speedometer = ops, meter, tracer, speedometer
        self.wrong_answer = WrongAnswer
        self.runs = {op.id: [] for op in ops}

    def run_op(self, op, round_no: int, traced: bool) -> Run:
        self.meter.reset()
        self.tracer.op = (round_no, op.id)
        limit = sys.getrecursionlimit()
        timing, (verdict, error) = _timed(self.speedometer, lambda: self._attempt(op))
        # the search engine raises the limit for deep boards; each op
        # starts from the interpreter's original limit
        sys.setrecursionlimit(limit)
        run = Run(round_no, traced, verdict, self.meter.nodes, timing, error)
        self.runs[op.id].append(run)
        return run

    def _attempt(self, op) -> tuple[str, str | None]:
        """The op's verdict, and the error when it failed."""
        try:
            return op.run(), None
        except self.wrong_answer as exc:
            return "wrong", str(exc)
        except Exception as exc:  # a crash is a failed op, never a verdict
            return "crash", f"{type(exc).__name__}: {exc}"

    def run_round(self, round_no: int, traced: bool):
        """Run each op once."""
        gc.collect()
        for op in self.ops:
            self.run_op(op, round_no, traced)

    def run_for(self, seconds: float):
        """Run the ops as :func:`plan` orders them.  An op that failed is
        not run again."""
        start = time.perf_counter()
        for op in plan(self.ops, seconds):
            runs = self.runs[op.id]
            if runs and runs[-1].error:
                continue
            if time.perf_counter() - start > HARD_STOP_S:
                return
            self.run_op(op, len(runs), False)

    def run_traced(self, seconds: float):
        """Alternate untraced and traced rounds, as many pairs as the pinned
        costs fit in ``seconds`` and at least one."""
        import tracing

        pass_s = sum(op.cost_s for op in self.ops)
        pairs = max(1, int(seconds // (TRACED_PAIR_PASSES * pass_s)))
        start = time.perf_counter()
        for round_no in range(2 * pairs):
            if round_no >= 2 and time.perf_counter() - start > HARD_STOP_S:
                return
            traced = round_no % 2 == 1
            restore = tracing.instrument(tracing.LAYERS, self.tracer.wrap) if traced else None
            try:
                self.run_round(round_no, traced)
            finally:
                if restore:
                    restore()


def end_to_end(runner: Runner, imports, builds, at_ref) -> dict:
    """End-to-end metrics as {name: (value, unit)}; ``at_ref`` turns a
    :class:`Timing` into seconds at the reference speed.  A failed op has
    no latency to a verdict, so the latencies leave it out."""
    lat = [statistics.median(at_ref(r.timing) for r in runs) for runs in runner.runs.values()
           if not any(r.verdict in FAILED for r in runs)]
    last = [runs[-1] for runs in runner.runs.values()]
    setup_s = sum(statistics.median(map(at_ref, timings)) for timings in (imports, builds))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "decided_frac": (sum(1 for r in last if r.verdict in DECIDED) / len(last), "ratio"),
        "ok_frac": (sum(1 for runs in runner.runs.values()
                        if not any(r.verdict in FAILED for r in runs)) / len(last), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner, at_ref) -> dict:
    """Per-layer metrics from the spans, each span scaled to the reference
    speed by the slowdown around its op."""
    import tracing

    scale, walls = {}, {False: {}, True: {}}
    for op_id, runs in runner.runs.items():
        for r in runs:
            s = at_ref(r.timing)
            scale[(r.round_no, op_id)] = s / (r.timing.t1 - r.timing.t0)
            walls[r.traced][r.round_no] = walls[r.traced].get(r.round_no, 0.0) + s
    return tracing.layer_metrics(runner.tracer.spans, scale, walls[True],
                                 list(walls[False].values()))


def op_detail(runner: Runner, at_ref) -> dict:
    ops = {}
    for op_id, runs in runner.runs.items():
        untraced = [r.timing for r in runs if not r.traced]
        ops[op_id] = {"verdict": runs[-1].verdict, "nodes": runs[-1].nodes, "runs": len(runs),
                      "median_s": statistics.median(map(at_ref, untraced)),
                      "raw_median_s": statistics.median(t.raw_s for t in untraced),
                      "failed": any(r.verdict in FAILED for r in runs),
                      "error": next((r.error for r in runs if r.error), None)}
    return ops


def run(args) -> int:
    if not (SRC / "loopforge" / "__init__.py").is_file():
        print(f"error: no loopforge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    meter, tracer = tracing.NodeMeter(), tracing.Tracer()
    restore = tracing.instrument(tracing.SEARCH, meter.wrap)
    try:
        with speed.Speedometer() as speedometer:
            ops, imports, builds = set_up(args.workload, args.seed, speedometer)
            runner = Runner(ops, meter, tracer, speedometer)
            if args.trace:
                runner.run_traced(args.seconds)
            else:
                runner.run_for(args.seconds)
    finally:
        restore()

    def at_ref(t: Timing) -> float:
        return t.raw_s / speedometer.slowdown(t.t0, t.t1)

    metrics = (per_layer(runner, at_ref) if args.trace
               else end_to_end(runner, imports, builds, at_ref))
    all_runs = [r for runs in runner.runs.values() for r in runs]
    result = {"correct": not any(r.verdict == "wrong" for r in all_runs),
              "attempted": len(all_runs),
              "failed": sum(1 for r in all_runs if r.verdict in FAILED),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    meta = _meta(args)
    meta["slowdown_median"] = statistics.median(speedometer.samples) / speed.REF_SECONDS
    detail = op_detail(runner, at_ref)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as f:
        f.write(json.dumps({"meta": meta, "result": result, "ops": detail}) + "\n")
    if args.trace:
        span_file = out.with_name(f"spans-{args.workload}-seed{args.seed}.json")
        span_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op",
                                                    "size", "error", "nodes"],
                                         "spans": tracer.spans}))

    print(f"meta {json.dumps(meta)}")
    for op, d in detail.items():
        print(f"op {op} {d['verdict']} nodes {d['nodes']} median {d['median_s']:.6f} s "
              f"(raw {d['raw_median_s']:.6f} s) of {d['runs']} runs"
              + (f" error {d['error']}" if d["error"] else ""))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="roundtrip, solve or pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(DEFAULT_OUT), help="results file to append to")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                   help="compare two results files instead of running")
    args = p.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
