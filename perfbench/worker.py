"""One fresh interpreter running one workload pass against envasym.

Started by ``run.py``, never by hand, with the job as one JSON argument.
It imports envasym from the checkout's ``src``, does the workload's setup
and prints ``ready``.  A setup probe stops there.  Otherwise it runs
the workload, timing each op with nothing else inside the timed region, and
prints one JSON line with the raw timings and the encoded results; the
checks happen in ``run.py``.  Timings are lists of items (an op, a demo
scan, the verify call), each the list of that item's samples in this worker,
in seconds scaled to the reference host speed (``speed.py``).
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import sys
from time import perf_counter

import mpmath
import mpmath.libmp

import workloads
from speed import Meter
from tracer import Tracer

#: Seconds of timed work between two calibrations of the host's speed.
CALIBRATE_EVERY_S = 0.15


def encode(x):
    """An mpf as an exact ``[signed mantissa, exponent]`` pair."""
    sign, man, exp, _ = x._mpf_
    return [-int(man) if sign else int(man), exp]


def _certified(value) -> dict:
    lo, hi = value.interval()
    return {"lo": encode(lo), "hi": encode(hi), "bound": encode(value.error_bound),
            "value": encode(value.value), "sign": value.error_sign, "k": value.k_used}


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "backend": mpmath.libmp.BACKEND, "nproc": nproc, "cpu": cpu}


class Runner:
    """Holds the imported package and runs ops through module attributes, so
    that a tracer installed after import sees every call."""

    def __init__(self, root: str):
        sys.path.insert(0, os.path.join(root, "src"))
        import envasym
        from envasym import cli, coeffs, demo, oracle, series, verify
        from envasym.errors import ToleranceUnattainable

        where = os.path.realpath(envasym.__file__)
        if not where.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
            raise ImportError(f"envasym imported from {where}, not from the checkout")
        self.package = envasym
        self.cli, self.coeffs, self.demo = cli, coeffs, demo
        self.oracle, self.series, self.verify = oracle, series, verify
        self.unattainable = ToleranceUnattainable
        self.tracer = None

    def warm_coefficients(self, max_k: int) -> None:
        for k in range(max_k + 1):
            self.coeffs.beta(k)
            self.coeffs.beta_tilde(k)
            self.coeffs.beta_hat(k)

    # -- ops ---------------------------------------------------------------

    _LIBRARY = {"binet": "ln_gamma", "central-binom": "ln_central_binomial",
                "gamma-half": "ln_gamma_plus_half", "demoivre": "ln_factorial_demoivre"}

    def evaluate(self, series: str, z, tol, terms, precision: int):
        fn = getattr(self.series, self._LIBRARY[series])
        try:
            if terms is not None:
                return fn(z, terms=terms, precision=precision)
            return fn(z, tol, precision=precision)
        except self.unattainable as exc:
            return exc

    def envelope(self, series: str, z, k: int, precision: int):
        kind = self.series.SeriesKind.from_name(series)
        return self.series.envelope_interval(kind, z, k, precision)

    def run_cli(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = self.cli.run_cli(argv)
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue()

    def encode_result(self, raw) -> dict:
        if isinstance(raw, self.unattainable):
            return {"floor": raw.k_best, "best": encode(raw.best_bound)}
        if isinstance(raw, Exception):
            return {"error": f"{type(raw).__name__}: {raw}"[:200]}
        if isinstance(raw, self.series.EnvelopeInterval):
            return {"lo": encode(raw.lo), "hi": encode(raw.hi), "bound": encode(raw.bound),
                    "k": raw.k_used}
        return _certified(raw)


def _cli_argv(op: dict, precision: int) -> list[str]:
    command = "eval" if op["op"] == "cli_eval" else "bound"
    argv = [command, "--series", op["series"], "--z", str(op["z"])]
    if op["tol"] is not None:
        argv += ["--tol", op["tol"]]
    else:
        argv += ["--terms", str(op["terms"])]
    return argv + ["--precision", str(precision), "--format", op["format"]]


def library_twin(op: dict) -> dict:
    """The library call that a CLI op must agree with."""
    return dict(op, op={"cli_eval": "eval", "cli_bound": "envelope"}[op["op"]])


def _certify_call(runner: Runner, op: dict):
    """The timed part of one certify-warm op."""
    p = workloads.CERTIFY_PRECISION
    kind = op["op"]
    if kind in ("eval", "floor", "terms"):
        return runner.evaluate(op["series"], op["z"], op["tol"], op["terms"], p)
    if kind == "envelope":
        return runner.envelope(op["series"], op["z"], op["terms"], p)
    return runner.run_cli(_cli_argv(op, p))


def certify_warm(runner: Runner, job: dict) -> dict:
    ops = workloads.certify_ops(job["seed"])
    first: list = [None] * len(ops)
    samples: list[list[float]] = [[] for _ in ops]
    meter = Meter(CALIBRATE_EVERY_S)
    mismatches = executed = i = 0
    while executed < job["count"]:
        op = ops[i]
        if runner.tracer:
            runner.tracer.op_id = executed
        start = perf_counter()
        try:
            raw = _certify_call(runner, op)
        except Exception as exc:  # a failed op is counted, not fatal
            raw = exc
        meter.record(samples[i], start, perf_counter())
        is_cli = op["op"].startswith("cli")
        if is_cli and not isinstance(raw, Exception):
            result = {"code": raw[0], "out": raw[1], "err": raw[2]}
        else:
            result = runner.encode_result(raw)
        if first[i] is None:
            if is_cli and "code" in result:
                # The library's own answer for the same op, outside the timed region.
                lib = _certify_call(runner, library_twin(op))
                result = dict(result, lib=runner.encode_result(lib))
            first[i] = result
        elif any(first[i].get(key) != value for key, value in result.items()):
            mismatches += 1
        executed += 1
        i = (i + 1) % len(ops)
    meter.finish()
    ran = [n for n, op in enumerate(ops) if samples[n]]
    return {"op_s": [samples[n] for n in ran],
            "op_pass": [2 if ops[n]["op"].startswith("cli") else 1 for n in ran],
            "host_factor": meter.host_factor(), "executed": executed,
            "mismatches": mismatches, "results": [first[n] for n in ran]}


def _floor_op(runner: Runner, op: dict):
    """Ask below the floor, then certify at the best index the floor names."""
    p = op["precision"]
    raised = runner.evaluate(op["series"], op["z"], op["tol"], None, p)
    if not isinstance(raised, runner.unattainable):
        return raised, None
    return raised, runner.evaluate(op["series"], op["z"], None, raised.k_best, p)


def floor_cold(runner: Runner, job: dict) -> dict:
    ladder = workloads.floor_ladder(job["seed"])
    op_s, op_pass, results = [], [], []
    meter = Meter(CALIBRATE_EVERY_S)
    mismatches = 0
    for pass_no in range(2):  # cold caches, then the same ladder warm
        for n, op in enumerate(ladder):
            if runner.tracer:
                runner.tracer.op_id = pass_no * len(ladder) + n
            start = perf_counter()
            try:
                raised, at_floor = _floor_op(runner, op)
            except Exception as exc:
                raised, at_floor = exc, None
            op_s.append([])
            meter.record(op_s[-1], start, perf_counter())
            op_pass.append(pass_no + 1)
            result = runner.encode_result(raised)
            if at_floor is not None:
                result["at_floor"] = runner.encode_result(at_floor)
            if pass_no == 0:
                results.append(result)
            elif result != results[n]:
                mismatches += 1
    meter.finish()
    return {"op_s": op_s, "op_pass": op_pass, "host_factor": meter.host_factor(),
            "executed": 2 * len(ladder), "mismatches": mismatches, "results": results}


def _demo_scan(runner: Runner, scan: dict, k_max: int) -> dict:
    spec = runner.oracle.QuadratureSpec(precision=256)
    try:
        witness = runner.demo.find_envelope_violation(scan["b"], scan["grid"], k_max, spec)
        control = runner.demo.enveloping_control_scan(scan["grid"], k_max, spec)
    except Exception as exc:  # counted as a failed op by the checks
        return runner.encode_result(exc)
    return {"witness": None if witness is None else [str(witness.x), witness.k],
            "control": len(control)}


def _query(runner: Runner, query: dict):
    """The timed part of one oracle point query."""
    oracle = runner.oracle
    fn = getattr(oracle, query["fn"])
    args = (query["z"],)
    if "family" in query:
        args = (oracle.ThetaFamily(query["family"]), query["k"], query["z"])
    return fn(*args, oracle.QuadratureSpec(precision=query["precision"]), error=True)


def referee(runner: Runner, job: dict) -> dict:
    """Verify cold, then the demo scans job["scans"], each followed by an equal
    share of the first job["count"] queries."""
    plan = workloads.referee_plan(job["seed"])
    meter = Meter(CALIBRATE_EVERY_S)
    verify_s: list[float] = []
    meter.lead_in()
    start = perf_counter()
    try:
        checks = [[c.name, c.passed, c.detail] for c in runner.verify.run_verification()]
    except Exception as exc:  # counted as a failed op by the checks
        checks = [["run_verification", False, runner.encode_result(exc)["error"]]]
    meter.record(verify_s, start, perf_counter())

    queries = plan["queries"][: job["count"]]
    share = -(-len(queries) // len(job["scans"]))
    demo_s, demos, op_s, results = [], [], [], []
    for i, scan_no in enumerate(job["scans"]):
        meter.lead_in()
        start = perf_counter()
        demos.append(_demo_scan(runner, plan["scans"][scan_no], plan["k_max"]))
        demo_s.append([])
        meter.record(demo_s[-1], start, perf_counter())
        for query in queries[i * share: (i + 1) * share]:
            if runner.tracer:
                runner.tracer.op_id = len(results)
            start = perf_counter()
            try:
                raw = _query(runner, query)
            except Exception as exc:
                raw = exc
            op_s.append([])
            meter.record(op_s[-1], start, perf_counter())
            results.append(runner.encode_result(raw) if isinstance(raw, Exception)
                           else {"value": encode(raw[0]), "err": encode(raw[1])})
    meter.finish()
    return {"op_s": op_s, "op_pass": [0] * len(op_s), "verify_s": [verify_s],
            "demo_s": demo_s, "host_factor": meter.host_factor(), "executed": len(op_s),
            "mismatches": 0, "results": results, "verify": checks, "demos": demos}


_BODIES = {"certify-warm": certify_warm, "floor-cold": floor_cold, "referee": referee}


def main() -> int:
    job = json.loads(sys.argv[1])
    runner = Runner(job["root"])
    if job["workload"] == "certify-warm":
        runner.warm_coefficients(workloads.WARM_K)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if job["mode"] == "probe":
        return 0
    if job["traced"]:
        runner.tracer = Tracer()
        runner.tracer.install(runner.package)
    start = perf_counter()
    report = _BODIES[job["workload"]](runner, job)
    report["wall_s"] = perf_counter() - start
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["env"] = environment()
    if runner.tracer:
        report["trace"] = runner.tracer.summary()
        if job.get("spans_path"):
            runner.tracer.write_spans(job["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
