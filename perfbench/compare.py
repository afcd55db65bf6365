"""Compare two sets of benchmark results, such as a parent and a change.

Each set is a results file that ``run.py`` appends to.  For every workload
and metric the table gives each side's median and quartiles, the base's
spread (quartile distance over median), the change in the median, the pairs
the change won and a verdict:

- better: the change wins at least nine tenths of the pairs, ties counting
  for neither, and its median beats the base's by more than the base's
  quartile distance;
- worse: the median is worse than the base's by more than the metric's
  bound in ``BENCHMARK.json`` (per-layer metrics have no bound: worse when
  the base wins nine tenths of the pairs by more than its spread);
- unresolved: neither.

Runs pair up by seed, in the order they were recorded.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path) -> dict:
    """{(workload, metric): [(seed, value), ...]} in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault((rec["meta"]["workload"], name), []).append(
                (rec["meta"]["seed"], m["value"]))
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def pairs(base, change):
    """Pair runs with equal seeds, each run used once, in recorded order."""
    left = list(change)
    out = []
    for seed, b in base:
        for i, (s, c) in enumerate(left):
            if s == seed:
                out.append((b, c))
                del left[i]
                break
    return out


def verdict(base, change, better: str, bound) -> tuple[str, int, int]:
    sign = 1 if better == "higher" else -1
    matched = pairs(base, change)
    won = sum(1 for b, c in matched if sign * (c - b) > 0)
    lost = sum(1 for b, c in matched if sign * (c - b) < 0)
    b_vals = [v for _, v in base]
    q1, mb, q3 = quartiles(b_vals)
    gain = sign * (statistics.median(v for _, v in change) - mb)
    if matched and won >= 0.9 * len(matched) and gain > q3 - q1:
        return "better", won, len(matched)
    if bound is not None:
        if -gain > bound * abs(mb):
            return "worse", won, len(matched)
    elif matched and lost >= 0.9 * len(matched) and -gain > q3 - q1:
        return "worse", won, len(matched)
    return "unresolved", won, len(matched)


def main(base_path, change_path, benchmark_path) -> int:
    spec = json.loads(Path(benchmark_path).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(base_path), load(change_path)
    print("workload metric base_median [q1 q3] base_spread change_median [q1 q3] "
          "delta pairs_won verdict")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        m = metrics.get(name, {"better": "lower"})
        b_q = quartiles([v for _, v in base[key]])
        c_q = quartiles([v for _, v in change[key]])
        v, won, n = verdict(base[key], change[key], m["better"], m.get("bound"))
        delta = (c_q[1] - b_q[1]) / abs(b_q[1]) if b_q[1] else 0.0
        print(f"{workload} {name} {b_q[1]:.6g} [{b_q[0]:.6g} {b_q[2]:.6g}] "
              f"{spread([x for _, x in base[key]]):.3f} {c_q[1]:.6g} [{c_q[0]:.6g} {c_q[2]:.6g}] "
              f"{delta:+.3f} {won}/{n} {v}")
    return 0
