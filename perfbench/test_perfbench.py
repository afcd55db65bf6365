"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import compare  # noqa: E402
import make_answer_key  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from graphs import candidate_masks, graph_from_mask, serpentine  # noqa: E402
from loopforge.hamilton import enumerate_candidate_subgraphs  # noqa: E402
from oracles import candidate_subgraphs_by_subset  # noqa: E402
from run import MAX_RUNS, MIN_RUNS, Runner, plan  # noqa: E402


class AnswerKeyTest(unittest.TestCase):
    def test_key_file_matches_a_fresh_build(self):
        # build_key cross-checks every graph of at most nine vertices
        # against the permutation oracle and stops on any disagreement
        self.assertEqual(json.loads(workloads.KEY_PATH.read_text()), make_answer_key.build_key())

    def test_candidates_match_the_subset_oracle_and_roundtrip_order(self):
        for cols, rows in ((2, 2), (2, 3), (3, 2), (3, 3)):
            mine = [graph_from_mask(cols, rows, m).edges for m in candidate_masks(cols, rows)]
            self.assertEqual(set(mine), {g.edges for g in candidate_subgraphs_by_subset(cols, rows)})
            self.assertEqual(mine, [g.edges for g in enumerate_candidate_subgraphs(cols, rows)])

    def test_serpentine_is_its_own_cycle(self):
        for n in (2, 4, 8):
            g, order = serpentine(n)
            self.assertEqual(len(g.edges), n * n)
            self.assertTrue(workloads.is_hamiltonian_cycle(g, order))


DETERMINISM_OPS = ("solve/ww/2x3/seed7", "solve/ww/3x4/seed7", "certify/aon/turns0",
                   "roundtrip/ww/2x3", "chain/ww/serpentine16", "hamilton/serpentine32")


class DeterminismTest(unittest.TestCase):
    """Verdict and node count of each op repeat across runs and between
    traced and untraced runs."""

    def _run(self, traced: bool):
        ops = [op for w in ("roundtrip", "solve", "pipeline")
               for op in workloads.build(w, 0) if op.id in DETERMINISM_OPS]
        meter, tracer = tracing.NodeMeter(), tracing.Tracer()
        undo = [tracing.instrument(tracing.SEARCH, meter.wrap)]
        if traced:
            undo.append(tracing.instrument(tracing.LAYERS, tracer.wrap))
        try:
            runner = Runner(ops, meter, tracer, speed.Speedometer())
            runner.run_round(0, traced)
        finally:
            for restore in reversed(undo):
                restore()
        return ({op: (runs[0].verdict, runs[0].nodes) for op, runs in runner.runs.items()},
                tracer.spans)

    def test_repeat_and_trace_agree(self):
        first, _ = self._run(False)
        second, _ = self._run(False)
        traced, spans = self._run(True)
        self.assertEqual(set(first), set(DETERMINISM_OPS))
        self.assertEqual(first, second)
        self.assertEqual(first, traced)
        self.assertTrue(spans)
        self.assertEqual(first["hamilton/serpentine32"][0], "crash")
        for op in DETERMINISM_OPS[:3]:
            self.assertGreater(first[op][1], 0)
        print("\n" + "\n".join(f"{op} {v} nodes {n}" for op, (v, n) in sorted(first.items())))


class RunnerTest(unittest.TestCase):
    def test_plan_fills_the_seconds_from_pinned_costs_alone(self):
        def counts(name, seed):
            ops = workloads.build(name, seed)
            order = plan(ops, 30)
            n = [sum(1 for o in order if o is op) for op in ops]
            # the plan fills the seconds, unless every op is at its floor
            self.assertTrue(25 < sum(op.cost_s for op in order) <= 30
                            or all(k <= MIN_RUNS for k in n), n)
            return n

        for name in workloads.WORKLOADS:
            first = counts(name, 1)
            self.assertEqual(first, counts(name, 1))
            self.assertEqual(first, counts(name, 2))
            self.assertTrue(all(1 <= n <= MAX_RUNS for n in first), first)

    def test_runs_are_spread_over_the_run(self):
        ops = [workloads.Op("short", lambda: "yes", 1.0), workloads.Op("long", lambda: "yes", 4.0)]
        self.assertEqual([op.id for op in plan(ops, 8)],
                         ["short", "short", "long", "short", "short"])

    def test_failed_ops_are_recorded_and_not_run_again(self):
        def wrong():
            raise workloads.WrongAnswer("bad count")

        def crash():
            raise RecursionError("too deep")

        ops = [workloads.Op("ok", lambda: "yes", 0.01), workloads.Op("wrong", wrong, 0.01),
               workloads.Op("crash", crash, 0.01)]
        runner = Runner(ops, tracing.NodeMeter(), tracing.Tracer(), speed.Speedometer())
        runner.run_for(0.305)
        self.assertEqual(len(runner.runs["ok"]), 10)
        self.assertEqual([(r.verdict, r.error) for r in runner.runs["wrong"]],
                         [("wrong", "bad count")])
        self.assertEqual([(r.verdict, r.error) for r in runner.runs["crash"]],
                         [("crash", "RecursionError: too deep")])


class TracingTest(unittest.TestCase):
    @staticmethod
    def _span(name, start, end, parent, size=None, nodes=None):
        return [name, start, end, parent, (1, "op"), size, None, nodes]

    def test_self_time_subtracts_direct_children(self):
        spans = [self._span("a", 0.0, 10.0, -1), self._span("b", 1.0, 4.0, 0),
                 self._span("c", 2.0, 3.0, 1), self._span("d", 5.0, 6.0, 0)]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_layer_metrics_from_spans(self):
        spans = [
            self._span("framework.build_complement", 0.0, 1.0, -1, size=64),
            self._span("framework.build_complement", 1.0, 9.0, -1, size=256),
            self._span("aon.solve_aon", 10.0, 14.0, -1),
            self._span("loopsearch.search_loops", 10.5, 13.5, 2, nodes=300),
        ]
        m = tracing.layer_metrics(spans, {(1, "op"): 1.0}, {1: 20.0}, [16.0])
        self.assertEqual(m["framework.plan_for.growth"], (2.0, "ratio"))
        self.assertEqual(m["aon.solve_aon.s"], (1.0, "s"))
        self.assertEqual(m["loopsearch.nodes_per_s"], (100.0, "1/s"))
        slow = tracing.layer_metrics(spans, {(1, "op"): 0.5}, {1: 20.0}, [16.0])
        self.assertEqual(slow["aon.solve_aon.s"], (0.5, "s"))
        self.assertEqual(slow["loopsearch.nodes_per_s"], (200.0, "1/s"))
        self.assertEqual(m["loopsearch.nodes_per_verdict"], (300, "count"))
        self.assertEqual(m["trace.overhead_frac"], (0.25, "ratio"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(m), {x["name"] for x in spec["per_layer"]})

    def test_instrument_restores_originals(self):
        from loopforge import aon, reduction
        before = (aon.search_loops, reduction.search_paths)
        restore = tracing.instrument(tracing.SEARCH, lambda name, fn: lambda *a, **k: fn(*a, **k))
        self.assertIsNot(aon.search_loops, before[0])
        restore()
        self.assertEqual((aon.search_loops, reduction.search_paths), before)


class SpeedTest(unittest.TestCase):
    def test_reference_unit_counts_the_4x3_cycles(self):
        self.assertEqual(speed.reference_unit(), 4)

    def test_slowdown_is_the_mean_of_the_samples_around_an_interval(self):
        meter = speed.Speedometer()
        meter.times = [float(t) for t in range(20)]
        meter.samples = [speed.REF_SECONDS * (1 + t % 2) for t in range(20)]
        # 6 samples inside, three at each speed
        self.assertAlmostEqual(meter.slowdown(2.0, 7.0), 1.5)
        # too few inside: the MIN_SAMPLES nearest, three slow and two fast
        self.assertAlmostEqual(meter.slowdown(8.9, 9.1), 1.6)
        # at the end of the run the window stays inside the samples
        self.assertAlmostEqual(meter.slowdown(19.5, 19.6), 1.6)

    def test_sampling_runs_during_work_and_stops(self):
        with speed.Speedometer() as meter:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        taken = len(meter.samples)
        self.assertGreater(taken, speed.MIN_SAMPLES + 5)
        self.assertGreater(meter.spent, 0.0)
        time.sleep(3 * speed.PERIOD)
        self.assertEqual(len(meter.samples), taken)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [(s, 10.0 + s * 0.1) for s in range(10)]
        faster = [(s, v * 0.5) for s, v in base]
        slower = [(s, v * 1.5) for s, v in base]
        same = [(s, v + 0.01 * (-1) ** s) for s, v in base]
        self.assertEqual(compare.verdict(base, faster, "lower", 0.2)[0], "better")
        self.assertEqual(compare.verdict(base, slower, "lower", 0.2)[0], "worse")
        self.assertEqual(compare.verdict(base, same, "lower", 0.2)[0], "unresolved")
        self.assertEqual(compare.verdict(base, faster, "higher", 0.2)[0], "worse")


class ContractTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
