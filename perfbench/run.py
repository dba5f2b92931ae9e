"""The envasym benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload certify-warm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
interpreters (``worker.py``); this process generates nothing the program
sees except the op inputs, checks every result against the independent
references in ``checks.py``, and prints every metric by name with its unit.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  A copy of each result, with the environment stamp, is
appended to ``.perfbench/results.jsonl`` (compare two such files with
``compare.py``); a traced run writes its spans next to it.  See README.md
for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import workloads
from speed import Meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

#: Fresh interpreters started per run only to time setup, half before and half
#: after the measurement; setup_s is their median.
SETUP_PROBES = 16
#: A run does a fixed amount of work for its --seconds, sized so that it takes
#: about that long on a 2-core Xeon with the pure-Python mpmath backend: one
#: pass over the certify-warm pool per CERTIFY_PASS_S seconds; one fresh
#: floor-cold worker per FLOOR_REP_S seconds (at least MIN_FLOOR_REPS); and
#: REFEREE_WORKERS fresh referee workers, each running verify, two demo scans
#: and one block of queries per REFEREE_BLOCK_S seconds.  The workers of a run
#: all do the same work, and each item's time is its median over them.
CERTIFY_PASS_S = 6
FLOOR_REP_S = 10
MIN_FLOOR_REPS = 2
REFEREE_WORKERS = 3
REFEREE_BLOCK_S = 15
#: op_tail_ms is the mean latency of the slowest TAIL_SHARE of a run's ops: the
#: slowest 2% of the certify-warm pool (40 ops), the slowest quarter of the
#: floor-cold ladder (12 of 48) and of the referee queries (5 of 20).  A mean
#: over the tail, not a percentile, because the tail is steep (p98 and p99 of
#: the certify-warm pool differ by half) and made of few ops, so a percentile,
#: or the mean of fewer ops, moves with the seed.
TAIL_SHARE = {"certify-warm": 0.02, "floor-cold": 0.25, "referee": 0.25}
#: Which layer should dominate each workload's self time (see README.md).
PREDICTED_DOMINANT = {
    "certify-warm": ("series.auto_truncate",),
    "floor-cold": ("coeffs", "series.auto_truncate"),
    "referee": ("oracle.quad", "oracle.exact"),
}
#: Hard limit for one run, below the 180 s a run may take.
RUN_LIMIT_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    _SPEC = json.load(_spec)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Clock:
    """The run's time limit, shared by every worker it starts."""

    def __init__(self):
        self.start = perf_counter()

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (perf_counter() - self.start)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        return left


def _start_worker(job: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, WORKER, json.dumps(job)], cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen, clock: Clock) -> str:
    """The worker's remaining stdout, once it has exited successfully."""
    try:
        out, err = proc.communicate(timeout=clock.remaining())
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


def probe_setup(workload: str, clock: Clock, meter: Meter) -> list:
    """Seconds from starting a fresh interpreter until the workload is ready,
    as an item that ``meter.finish()`` fills in."""
    job = {"root": ROOT, "workload": workload, "mode": "probe"}
    start = perf_counter()
    proc = _start_worker(job)
    line = proc.stdout.readline()
    ready = perf_counter()
    _finish(proc, clock)
    if line.strip() != "ready":
        raise BenchError("setup probe did not report ready")
    item: list = []
    meter.record(item, start, ready)
    return item


def run_worker(workload: str, seed: int, clock: Clock, traced=False, **work) -> dict:
    """One fresh worker; ``work`` says how much (see ``measure``)."""
    job = {"root": ROOT, "workload": workload, "seed": seed, "mode": "run",
           "traced": traced, **work}
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        job["spans_path"] = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    lines = _finish(_start_worker(job), clock).splitlines()
    if not lines or lines[0] != "ready":
        raise BenchError("worker did not report ready")
    return json.loads(lines[-1])


# -- correctness --------------------------------------------------------------


def check_report(workload: str, seed: int, report: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one worker's report."""
    inputs = workloads.inputs(workload, seed)
    reasons = []
    if workload == "certify-warm":
        for op, result in zip(inputs, report["results"]):
            reason = checks.check_certify_op(op, result, workloads.CERTIFY_PRECISION)
            if reason:
                reasons.append(f"{op}: {reason}")
    elif workload == "floor-cold":
        for op, result in zip(inputs, report["results"]):
            reason = checks.check_floor_op(op, result)
            if reason:
                reasons.append(f"{op}: {reason}")
    else:
        for reason in [checks.check_verify(report["verify"])] + [
                checks.check_demo(demo) for demo in report["demos"]]:
            if reason:
                reasons.append(reason)
        for query, result in zip(inputs["queries"], report["results"]):
            reason = checks.check_query(query, result)
            if reason:
                reasons.append(f"{query}: {reason}")
    reasons += ["a repeated op returned a different result"] * report["mismatches"]
    attempted = report["executed"] + (1 + len(report["demos"]) if workload == "referee" else 0)
    # An op that failed once counts once, however often the loop repeated it.
    return attempted, min(len(reasons), attempted), reasons


def check_agreement(reports: list[dict]) -> list[str]:
    """Workers of one run do the same work, so they must give the same results."""
    reasons = []
    for n, report in enumerate(reports[1:], start=2):
        for key in ("results", "demos", "verify"):
            ours, theirs = reports[0].get(key, []), report.get(key, [])
            reasons += [f"worker {n} disagrees with worker 1 on {key}[{i}]"
                        for i, (a, b) in enumerate(zip(ours, theirs)) if a != b]
            if len(ours) != len(theirs):
                reasons.append(f"worker {n} returned {len(theirs)} {key}, worker 1 {len(ours)}")
    return reasons


# -- metrics ------------------------------------------------------------------


def tail_mean(values: list[float], share: float) -> float:
    """Mean of the largest ``share`` of the values (at least one)."""
    count = max(1, round(len(values) * share))
    return statistics.fmean(sorted(values)[-count:])


def per_item(reports: list[dict], key: str) -> list[float]:
    """Per item, the median of its samples over all workers (every worker of
    a run times the same items, each sample already scaled to host speed)."""
    items = [r[key] for r in reports]
    if len({len(i) for i in items}) != 1 or not items[0]:
        raise BenchError(f"workers timed different items under {key!r}")
    return [statistics.median(x for samples in column for x in samples)
            for column in zip(*items)]


def end_to_end(workload: str, reports: list[dict], setups: list[float]) -> dict:
    latencies = [s * 1e3 for s in per_item(reports, "op_s")]
    in_pass = reports[0]["op_pass"]
    if workload == "referee":
        pass1 = per_item(reports, "verify_s")[0]
        pass2 = statistics.median(per_item(reports, "demo_s"))
    else:
        pass1, pass2 = (sum(x for x, p in zip(latencies, in_pass) if p == n) / 1e3
                        for n in (1, 2))
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_mean(latencies, TAIL_SHARE[workload]),
        "pass1_s": pass1,
        "pass2_s": pass2,
    }
    return values


def per_layer(workload: str, traced: dict, untraced: dict) -> tuple[dict, str]:
    """Per-layer metrics from the traced worker, and the dominance verdict."""
    trace = traced["trace"]
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    series_spans = [n for n in self_s if n.startswith("series.")]
    values = {
        "coeffs.calls": calls["coeffs"],
        "coeffs.self_s": self_s["coeffs"],
        "coeffs.max_k": counts["coeffs.max_k"],
        "series.self_s": sum(self_s[n] for n in series_spans),
        "series.auto_truncate.calls": calls["series.auto_truncate"],
        "series.auto_truncate.self_s": self_s["series.auto_truncate"],
        "series.auto_truncate.steps": counts["series.auto_truncate.steps"],
        "series.floor_ratio": (counts["series.auto_truncate.floors"]
                               / max(1, calls["series.auto_truncate"])),
        "series.min_term_index.self_s": self_s["series.min_term_index"],
        "series.eval.self_s": self_s["series.eval"],
        "series.envelope_interval.self_s": self_s["series.envelope_interval"],
        "oracle.self_s": self_s["oracle.quad"] + self_s["oracle.exact"],
        "oracle.quad.calls": calls["oracle.quad"],
        "oracle.quad.self_s": self_s["oracle.quad"],
        "oracle.quad.rel_err_max": counts["oracle.quad.rel_err_max"],
        "oracle.exact.self_s": self_s["oracle.exact"],
        "demo.self_s": self_s["demo"],
        "demo.witness_found": counts["demo.witness_found"],
        "demo.control_witnesses": counts["demo.control_witnesses"],
        "verify.self_s": self_s["verify"],
        "verify.checks_passed": counts["verify.checks_passed"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    }
    total = sum(self_s.values())
    ranked = sorted(self_s, key=self_s.get, reverse=True)
    predicted = PREDICTED_DOMINANT[workload]
    share = sum(self_s[n] for n in predicted) / total if total else 0.0
    # One predicted span must lead; a predicted pair must also hold most of the time.
    held = ranked[0] in predicted and (len(predicted) == 1 or share > 0.5)
    values["trace.prediction_held"] = int(held)
    verdict = (
        f"dominant span {ranked[0]} ({self_s[ranked[0]] / total:.0%} of traced self time); "
        f"predicted {' + '.join(predicted)} ({share:.0%}): "
        + ("as predicted" if held else "SURPRISE, not as predicted")
    )
    return values, verdict


# -- workloads ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, clock: Clock) -> list[dict]:
    """Untraced workers doing the fixed work of a run of the given length."""
    if workload == "certify-warm":
        passes = max(1, seconds // CERTIFY_PASS_S)
        return [run_worker(workload, seed, clock, count=workloads.CERTIFY_POOL * passes)]
    if workload == "referee":
        count = workloads.QUERY_BLOCK * max(1, seconds // REFEREE_BLOCK_S)
        return [run_worker(workload, seed, clock, count=count, scans=[0, 1])
                for _ in range(REFEREE_WORKERS)]
    reps = max(MIN_FLOOR_REPS, seconds // FLOOR_REP_S)
    return [run_worker(workload, seed, clock) for _ in range(reps)]


def traced_pair(workload: str, seed: int, clock: Clock) -> tuple[dict, dict]:
    """The same fixed work untraced, then traced: one certify-warm pass, one
    floor-cold worker, or verify, two demo scans and ten referee queries."""
    work = {"certify-warm": {"count": workloads.CERTIFY_POOL},
            "referee": {"count": workloads.QUERY_BLOCK, "scans": [0, 1]},
            "floor-cold": {}}[workload]
    untraced = run_worker(workload, seed, clock, **work)
    traced = run_worker(workload, seed, clock, traced=True, **work)
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "envasym", "__init__.py")):
        print(f"error: no envasym package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    clock = Clock()
    try:
        if args.trace:
            untraced, traced = traced_pair(args.workload, args.seed, clock)
            reports = [untraced, traced]
            metrics, verdict = per_layer(args.workload, traced, untraced)
            units = PER_LAYER
        else:
            meter = Meter(every_s=0)  # calibrates after each probe
            probes = [probe_setup(args.workload, clock, meter)
                      for _ in range(SETUP_PROBES // 2)]
            reports = measure(args.workload, args.seed, args.seconds, clock)
            probes += [probe_setup(args.workload, clock, meter)
                       for _ in range(SETUP_PROBES // 2)]
            meter.finish()
            setups = [probe[0] for probe in probes]
            metrics, verdict = end_to_end(args.workload, reports, setups), None
            units = END_TO_END
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                             "BENCHMARK.json")
        attempted = failed = 0
        reasons: list[str] = []
        for report in reports:
            a, f, r = check_report(args.workload, args.seed, report)
            attempted, failed, reasons = attempted + a, failed + f, reasons + r
        disagreements = check_agreement(reports)
        failed = min(attempted, failed + len(disagreements))
        reasons += disagreements
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = reports[0]["env"]
    print(f"env: {json.dumps(env)}")
    if env["backend"] != "python":
        print(f"note: mpmath backend is {env['backend']}; compare only runs on the same backend")
    print(f"workload {args.workload}, seed {args.seed}: {len(reports)} worker run(s), "
          f"{attempted} ops attempted, {failed} failed")
    for reason in reasons[:20]:
        print(f"FAILED: {reason}")
    if not args.trace:
        items = len(reports[0]["op_s"])
        samples = sum(len(x) for r in reports for x in r["op_s"])
        print(f"op latencies: {items} ops, the median of {samples // items} samples each; "
              f"op_tail_ms is the mean of the slowest {TAIL_SHARE[args.workload]:.0%}")
        factors = ", ".join(f"{r['host_factor']:.3g}" for r in reports)
        print(f"host slowdown (calibration time / reference) per worker: {factors}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if verdict:
        print(f"trace: {verdict}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as out:
        out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "env": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
