"""Timings are scaled by the host speed around them, merged per item across
workers, and workers that disagree are counted as failed."""

import time
from fractions import Fraction

import pytest

import run
import speed


def test_meter_scales_a_sample_by_the_points_around_it(monkeypatch):
    points = iter([5.0, 1.0, 3.0])  # the first warms mpmath up and is dropped
    monkeypatch.setattr(speed, "calibrate", lambda: next(points) * speed.REFERENCE_S)
    meter = speed.Meter(every_s=100.0)
    item: list = []
    start = time.perf_counter()
    time.sleep(0.01)
    end = time.perf_counter()
    meter.record(item, start, end)
    meter.finish()
    # The host ran at 1x and 3x the reference time around the sample.
    assert item == [pytest.approx((end - start) / 2.0)]
    assert meter.host_factor() == pytest.approx(2.0)


def test_per_item_takes_the_median_over_workers():
    reports = [{"op_s": [[1.0, 5.0], [2.0]]}, {"op_s": [[2.0], [4.0]]}]
    assert run.per_item(reports, "op_s") == [2.0, 3.0]
    with pytest.raises(run.BenchError):
        run.per_item([{"op_s": [[1.0]]}, {"op_s": [[1.0], [2.0]]}], "op_s")


def test_tail_mean_averages_the_slowest_share():
    assert run.tail_mean([float(x) for x in range(1, 101)], 0.02) == 99.5
    assert run.tail_mean([3.0, 1.0], 0.01) == 3.0


def test_workers_that_disagree_are_counted():
    ours = {"results": [{"v": 1}, {"v": 2}], "demos": [{"control": 0}]}
    assert run.check_agreement([ours, dict(ours)]) == []
    theirs = {"results": [{"v": 1}, {"v": 3}], "demos": [{"control": 0}]}
    reasons = run.check_agreement([ours, theirs])
    assert len(reasons) == 1 and "results[1]" in reasons[0]


def test_the_routines_scan_uses_true_bernoulli_numbers():
    even, bound = speed._scan_start()
    assert even[:4] == [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30)]
    assert 0 < abs(bound) < 1e-40
