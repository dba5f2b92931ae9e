"""Wrappers see calls through every lookup path and account self time."""

import pytest

from conftest import ROOT
from tracer import Tracer
import worker


@pytest.fixture
def traced():
    runner = worker.Runner(ROOT)
    tracer = Tracer()
    tracer.install(runner.package)
    yield runner, tracer
    tracer.uninstall()


def test_cli_evaluator_table_and_coefficients_are_traced(traced):
    runner, tracer = traced
    code, _, _ = runner.run_cli(["eval", "--series", "binet", "--z", "20.5",
                                 "--tol", "1e-20", "--format", "json"])
    assert code == 0
    assert tracer.calls["cli"] == 1
    assert tracer.calls["series.eval"] == 1
    assert tracer.calls["series.auto_truncate"] == 1
    assert tracer.calls["coeffs"] > 0 and tracer.counts["coeffs.max_k"] >= 7
    names = {span[1] for span in tracer.spans}
    assert names == {"cli", "series.eval", "series.auto_truncate"}
    (cli_span,) = [s for s in tracer.spans if s[1] == "cli"]
    assert sum(tracer.self_s.values()) == pytest.approx(cli_span[5] - cli_span[4], rel=1e-6)


def test_floor_raise_counts_steps(traced):
    runner, tracer = traced
    raised = runner.evaluate("binet", "3.7", "1e-300", None, 256)
    assert isinstance(raised, runner.unattainable)
    assert tracer.counts["series.auto_truncate.floors"] == 1
    assert tracer.counts["series.auto_truncate.steps"] == raised.k_best + 1


def test_demo_binet_lookup_is_traced(traced):
    runner, tracer = traced
    runner.demo.perturbed_binet("7.5", "1.0")
    assert tracer.calls["demo"] == 1 and tracer.calls["oracle.quad"] == 1


def test_uninstall_restores_the_originals():
    runner = worker.Runner(ROOT)
    before = (runner.series.ln_gamma, runner.demo.binet_J, dict(runner.cli._EVALUATORS))
    tracer = Tracer()
    tracer.install(runner.package)
    assert runner.series.ln_gamma is not before[0]
    tracer.uninstall()
    assert (runner.series.ln_gamma, runner.demo.binet_J, dict(runner.cli._EVALUATORS)) == before
