"""End to end: every workload passes on the package, and the benchmark refuses
to run where the package is missing."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["certify-warm", "floor-cold", "referee"])
def test_no_op_fails(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        names = {m["name"] for m in json.load(spec)["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "certify-warm", 0)
    assert proc.returncode != 0 and proc.stdout == ""
