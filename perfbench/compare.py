"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the lines ``run.py`` appends to ``.perfbench/results.jsonl``.
For every workload and metric present in both, prints each side's median
and quartiles, the change of the medians, and whether the change exceeds the
bound in BENCHMARK.json.  Runs made on a different environment (Python,
mpmath, mpmath backend, CPU count or model) are flagged, because timings
taken across backends or machines are not comparable.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> list[dict]:
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = (_load(path) for path in argv)
    envs = {json.dumps(r["env"], sort_keys=True) for r in parent + change}
    if len(envs) > 1:
        print("WARNING: results come from different environments:")
        for env in sorted(envs):
            print(f"  {env}")
        backends = {json.loads(env)["backend"] for env in envs}
        if len(backends) > 1:
            print(f"WARNING: mpmath backends differ ({', '.join(sorted(backends))}); "
                  "the timings are not comparable")
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = []
        for runs in (parent, change):
            values: dict[str, list[float]] = {}
            for run in runs:
                if run["workload"] == workload and not run["trace"]:
                    for name, metric in run["result"]["metrics"].items():
                        values.setdefault(name, []).append(metric["value"])
            sides.append(values)
        names = [n for n in bounds if n in sides[0] and n in sides[1]]
        if not names:
            continue
        print(f"{workload}: {len(sides[0][names[0]])} parent runs, "
              f"{len(sides[1][names[0]])} change runs")
        for name in names:
            (p1, pm, p3), (c1, cm, c3) = _summary(sides[0][name]), _summary(sides[1][name])
            worse = (cm - pm) / pm if bounds[name]["better"] == "lower" else (pm - cm) / pm
            flag = "REGRESSION" if worse > bounds[name]["bound"] else ""
            print(f"  {name:14s} parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  "
                  f"change {cm:.5g} [{c1:.5g}, {c3:.5g}]  worse by {worse:+.1%} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
