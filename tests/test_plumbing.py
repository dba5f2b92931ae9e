"""Shared plumbing: the table rows and the names the benchmark tracer reaches,
the one positive-real check, and the package's imports and precision writes."""

import ast
import pathlib
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_pi, round_nearest

import envasym
from envasym import (
    DomainError,
    SeriesKind,
    ThetaFamily,
    auto_truncate,
    cli,
    coeffs,
    demo,
    ln_gamma,
    min_term_index,
    oracle,
    remainder_quadrature,
    series,
    term,
    theta_ratio,
)
from envasym._expansions import EXPANSIONS
from envasym.precision import positive_real


class TestTracedNames:
    """``perfbench/tracer.py`` wraps these names where callers look them up."""

    def test_cli_evaluators_are_the_series_functions(self):
        assert set(cli._EVALUATORS) == set(SeriesKind)
        for kind in SeriesKind:
            assert cli._EVALUATORS[kind] is getattr(series, kind.row.evaluation)

    def test_coefficient_families_are_the_coeffs_functions(self):
        families = coeffs.COEFFICIENT_FAMILIES
        assert set(families) == {"beta", "beta-tilde", "beta-hat"}
        assert families["beta"] is coeffs.beta
        assert families["beta-tilde"] is coeffs.beta_tilde
        assert families["beta-hat"] is coeffs.beta_hat

    def test_demo_calls_the_oracle_binet_J(self):
        assert demo.binet_J is oracle.binet_J

    def test_from_name_round_trips(self):
        for kind in SeriesKind:
            assert SeriesKind.from_name(kind.value) is kind
        with pytest.raises(ValueError, match="unknown series kind"):
            SeriesKind.from_name("stirling")

    def test_family_row_is_the_first_row_with_its_weight(self):
        for family in ThetaFamily:
            first = next(row for row in EXPANSIONS.values() if row.weight == family.value)
            assert family.row is first
        assert ThetaFamily.THETA_HAT.row is SeriesKind.GAMMA_PLUS_HALF.row

    def test_a_swapped_coefficient_family_is_seen(self, monkeypatch):
        for kind in SeriesKind:
            key = kind.row.coefficients
            monkeypatch.setitem(coeffs.COEFFICIENT_FAMILIES, key, lambda j: Fraction(j + 7))
            assert kind.row.coefficient(3) == 10
        # ... and by the searches, which build coefficients through the row
        calls = []
        monkeypatch.setitem(coeffs.COEFFICIENT_FAMILIES, "beta",
                            lambda j: calls.append(j) or coeffs.beta(j))
        assert min_term_index(SeriesKind.BINET_J, 7) == 22
        assert 22 in calls and 23 in calls


BAD_REALS = ["nan", "inf", "-inf", "0", "-1"]


class TestPositiveReal:
    """Every caller of ``positive_real`` rejects the same values, each with
    its own message."""

    CALLERS = {
        "term": ("series argument", lambda x: term(SeriesKind.BINET_J, 0, x)),
        "auto_truncate": ("tolerance", lambda x: auto_truncate(SeriesKind.BINET_J, 10, x)),
        "remainder_quadrature": (
            "argument", lambda x: remainder_quadrature(ThetaFamily.THETA, 1, x)),
        "binet_J": ("argument", oracle.binet_J),
        "binet_J_tilde": ("argument", oracle.binet_J_tilde),
        "theta_ratio": ("argument", lambda x: theta_ratio(ThetaFamily.THETA_TILDE, 0, x)),
        "demo --x-from": ("--x-from", lambda x: cli._demo_grid(x, "20", 4, 64)),
        "demo --x-to": ("--x-to", lambda x: cli._demo_grid("5", x, 4, 64)),
    }

    @pytest.mark.parametrize("raw", BAD_REALS)
    @pytest.mark.parametrize("caller", CALLERS)
    def test_callers_reject_with_their_message(self, caller, raw):
        what, call = self.CALLERS[caller]
        with pytest.raises(DomainError, match=f"^{what} must be a finite real > 0, got "):
            call(raw)

    @pytest.mark.parametrize("raw", ["abc", "1,5"])
    @pytest.mark.parametrize("caller", [c for c in CALLERS if not c.startswith("demo")])
    def test_library_callers_reject_an_unparseable_string(self, caller, raw):
        what, call = self.CALLERS[caller]
        with pytest.raises(DomainError, match=f"^{what} must be a finite real > 0, got "):
            call(raw)

    @pytest.mark.parametrize("caller", ["demo --x-from", "demo --x-to"])
    def test_cli_callers_reject_an_unparseable_string_as_usage(self, caller):
        with pytest.raises(cli._UsageError, match="must be a decimal number, got 'abc'"):
            self.CALLERS[caller][1]("abc")

    def test_a_tiny_positive_value_is_accepted_exactly(self):
        x = positive_real("1e-400", 64, "x")
        with mp.workprec(96):
            assert x == mpf("1e-400") > 0
        assert term(SeriesKind.BINET_J, 0, "1e-400", precision=64) > 0

    def test_converts_at_the_working_precision(self):
        with mp.workprec(53):
            x = positive_real("0.1", 256, "x")
            assert mp.prec == 53
        with mp.workprec(288):
            assert x == mpf("0.1")

    def test_a_constant_is_taken_at_the_working_precision(self):
        # an mpmath constant used to evaluate at whatever mp.prec was set
        values = []
        for ambient in (53, 1000):
            with mp.workprec(ambient):
                assert positive_real(mp.pi, 256, "x")._mpf_ == mpf_pi(288, round_nearest)
                values.append(ln_gamma(mp.pi, terms=3, precision=256).value._mpf_)
        assert values[0] == values[1]


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports but never reads (its own ``__all__`` counts)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(pathlib.Path(envasym.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_the_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os, sys\n"
                      "from math import pi as tau, e\n__all__ = ['e']\nprint(sys.argv)\n")
    assert _unused_imports(module) == ["m.py:2 os", "m.py:3 tau"]


_PRECISION_SETTERS = {"workprec", "workdps", "extraprec", "extradps"}


def _global_precision_writes(path: pathlib.Path) -> list[str]:
    """Calls that set mpmath's global precision (``mp.workprec`` and its
    kin), and stores to ``mp.prec`` or ``mp.dps``, as file:line name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _PRECISION_SETTERS:
                found.append((node.lineno, name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in ("prec", "dps")
              and (getattr(node.value, "id", None) == "mp"
                   or getattr(node.value, "attr", None) == "mp")):
            found.append((node.lineno, f"mp.{node.attr}"))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(pathlib.Path(envasym.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_global_precision_writes(path):
    assert _global_precision_writes(path) == []


def test_the_precision_check_sees_a_global_write(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import mpmath\nfrom mpmath import mp, workdps\nctx.prec = 80\n"
                      "with mp.workprec(80):\n    mp.dps = 30\nmpmath.mp.prec += 1\n"
                      "f = workdps(5)(f)\nmp.extraprec(10)(f)\nx, mp.dps = 1, 2\n"
                      "y = mp.prec\n")
    assert _global_precision_writes(module) == [
        "m.py:4 workprec", "m.py:5 mp.dps", "m.py:6 mp.prec", "m.py:7 workdps",
        "m.py:8 extraprec", "m.py:9 mp.dps"]
