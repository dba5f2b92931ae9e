"""Correct results pass the checks and corrupted ones are counted as failed."""

import copy
import json

import pytest

import checks
import run
import workloads
import worker
from conftest import ROOT


@pytest.fixture(scope="module")
def runner():
    return worker.Runner(ROOT)


def _shift(encoded, ulps):
    man, exp = encoded
    return [man + ulps * 2**200, exp]


FAR = [1, 30]  # 2**30, above every function value the workloads produce


def _first(ops, kind, **match):
    return next(op for op in ops if op["op"] == kind
                and all(op[key] == value for key, value in match.items()))


def test_certify_ops_pass_and_corruptions_fail(runner):
    ops = workloads.certify_ops(5)
    p = workloads.CERTIFY_PRECISION
    for kind in ("eval", "floor", "terms", "envelope", "cli_eval", "cli_bound"):
        op = _first(ops, kind)
        raw = worker._certify_call(runner, op)
        if kind.startswith("cli"):
            lib = worker._certify_call(runner, worker.library_twin(op))
            result = {"code": raw[0], "out": raw[1], "err": raw[2],
                      "lib": runner.encode_result(lib)}
        else:
            result = runner.encode_result(raw)
        assert checks.check_certify_op(op, result, p) is None, (op, result)

        bad = copy.deepcopy(result)
        target = bad["lib"] if kind.startswith("cli") else bad
        if "floor" in target:
            target["floor"] += 1  # k_best no longer the minimum-term index
        else:
            # Move the enclosure far away from the truth.
            target["lo"] = target["hi"] = FAR
        assert checks.check_certify_op(op, bad, p), (kind, bad)


def test_bound_above_tolerance_fails(runner):
    op = _first(workloads.certify_ops(5), "eval")
    result = runner.encode_result(worker._certify_call(runner, op))
    result["bound"] = [1, 0]
    assert "above tol" in checks.check_certify_op(op, result, 256)


def test_cli_record_disagreeing_with_library_fails(runner):
    op = _first(workloads.certify_ops(5), "cli_eval", format="json")
    code, out, err = worker._certify_call(runner, op)
    lib = worker._certify_call(runner, worker.library_twin(op))
    record = json.loads(out)
    record["result"]["k_used"] += 1
    result = {"code": code, "out": json.dumps(record), "err": err,
              "lib": runner.encode_result(lib)}
    assert "k_used" in checks.check_certify_op(op, result, 256)
    result.update(out=out, code=1)
    assert "exit code" in checks.check_certify_op(op, result, 256)


def test_floor_ladder_op_passes_and_wrong_index_fails(runner):
    op = min(workloads.floor_ladder(5), key=lambda o: (isinstance(o["z"], str), o["z"]))
    raised, at_floor = worker._floor_op(runner, op)
    result = dict(runner.encode_result(raised), at_floor=runner.encode_result(at_floor))
    assert checks.check_floor_op(op, result) is None
    result["floor"] -= 1
    assert "min_term_index" in checks.check_floor_op(op, result)


def test_oracle_query_off_by_more_than_its_estimate_fails(runner):
    query = {"fn": "theta_ratio", "family": "theta-hat", "k": 2, "z": "7.31", "precision": 256}
    value, err = runner.oracle.theta_ratio(
        runner.oracle.ThetaFamily.THETA_HAT, 2, "7.31", error=True)
    result = {"value": worker.encode(value), "err": worker.encode(err)}
    assert checks.check_query(query, result) is None
    result["value"] = _shift(result["value"], 1)
    assert "off the reference" in checks.check_query(query, result)


def test_verify_and_demo_failures_are_counted():
    passing = [[f"check-{i}", True, ""] for i in range(12)]
    assert checks.check_verify(passing) is None
    assert checks.check_verify(passing[:11])
    assert checks.check_verify(passing[:11] + [["check-11", False, "broken"]])
    assert checks.check_demo({"witness": ["5.0", 0], "control": 0}) is None
    assert checks.check_demo({"witness": None, "control": 0})
    assert checks.check_demo({"witness": ["5.0", 0], "control": 2})


def test_report_counts_a_corrupted_result_as_failed(runner):
    report = worker.certify_warm(runner, {"seed": 5, "count": 60})
    assert run.check_report("certify-warm", 5, report)[1] == 0
    bad = copy.deepcopy(report)
    victim = next(r for r in bad["results"] if "lo" in r)
    victim["lo"] = victim["hi"] = FAR
    attempted, failed, reasons = run.check_report("certify-warm", 5, bad)
    assert (attempted, failed) == (60, 1) and "misses" in reasons[0]
    bad["mismatches"] = 2
    assert run.check_report("certify-warm", 5, bad)[1] == 3
