"""Smoke test of the tightness report: its structure, and no ratio below 1."""

import json
from fractions import Fraction

import tightness

from envasym import SeriesKind, beta_hat


def test_a_small_report_has_every_cell_and_no_ratio_below_one():
    report = tightness.report(precisions=(64, 128), reals=("7.3",), integers=(7,),
                              indices=(0, 17))
    assert report["grid"] == {"precisions": [64, 128], "real_z": ["7.3"],
                              "integer_z": [7], "k": [0, 17]}
    assert json.loads(json.dumps(report)) == report
    assert list(report["ratios"]) == [kind.value for kind in SeriesKind]
    for by_precision in report["ratios"].values():
        assert list(by_precision) == ["64", "128"]
        for cell in by_precision.values():
            assert list(cell) == ["envelope", "certified"]
            for summary in cell.values():
                assert list(summary) == ["median", "max", "median_excess", "max_excess"]
                assert 1 <= summary["median"] <= summary["max"]
                assert 0 <= summary["median_excess"] <= summary["max_excess"]


def test_the_reference_term_is_exact():
    assert tightness.exact_term(SeriesKind.BINET_J, "7.3", 0) == Fraction(5, 438)
    assert tightness.exact_term(SeriesKind.DE_MOIVRE, 7, 1) == beta_hat(1) / Fraction(15, 2) ** 3
