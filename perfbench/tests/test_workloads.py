"""The inputs are a pure function of the seed, with the advertised mix."""

import collections

import pytest

import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert workloads.inputs(workload, 7) != workloads.inputs(workload, 8)


def test_certify_mix():
    ops = workloads.certify_ops(3)
    assert len(ops) == workloads.CERTIFY_POOL
    kinds = collections.Counter(op["op"] for op in ops)
    assert kinds["floor"] == len(ops) // 10
    assert kinds["cli_eval"] + kinds["cli_bound"] == len(ops) // 5
    assert set(op["series"] for op in ops) == set(workloads.SERIES)
    for op in ops:
        assert (op["tol"] is None) != (op["terms"] is None)
        if op["series"] in workloads.INTEGER_SERIES:
            assert isinstance(op["z"], int) and 1 <= op["z"] <= 10**6
        else:
            assert 0.5 <= float(op["z"]) <= 200
        if op["tol"] is not None:
            assert 1e-40 <= float(op["tol"]) <= 1e-5


def test_floor_ladder_is_a_shuffle_of_the_rungs():
    ladder = workloads.floor_ladder(3)
    assert len(ladder) == len(workloads.FLOOR_LADDER)
    assert [op["series"] for op in ladder] != [r[0] for r in workloads.FLOOR_LADDER]
    decimals = [op for op in ladder if isinstance(op["z"], str)]
    assert decimals and all(float(op["z"]) * 16 % 1 for op in decimals)
    assert all(float(op["z"]) <= 51 and op["precision"] in (256, 512) for op in ladder)


def test_referee_queries():
    plan = workloads.referee_plan(3)
    assert len(plan["scans"]) == workloads.DEMO_SCANS
    for scan in plan["scans"]:
        assert len(scan["grid"]) == workloads.DEMO_STEPS and 0.5 <= float(scan["b"]) <= 1.5
    queries = plan["queries"]
    assert sum(q["precision"] == 512 for q in queries) == len(queries) // 10
    assert set(q["fn"] for q in queries) == set(workloads.QUERY_FUNCTIONS)
