"""The committed output corpus: exact bits of the package's results.

``tests/data/corpus.json`` holds one record per computed result: the exact
``_mpf_`` fields (sign, mantissa, exponent, bit count) of the series
functions for every kind at 64, 128 and 512 bits, of the oracle's wrappers
and exact logarithms at 256 and 512 bits, and the exit code, stdout and
stderr of a fixed list of CLI lines, error paths included.  An exception a
library call raises is recorded as its type, message and payload.

``tests/test_corpus.py`` recomputes every record and compares.  Run

    PYTHONPATH=src python tests/make_corpus.py

to rewrite the file after a change that is meant to move bits, and

    PYTHONPATH=src python tests/make_corpus.py --check

to print every record that differs from the file without writing it (exit
status 1 if any does).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import sys
from fractions import Fraction

from mpmath import mpf

from envasym import (
    QuadratureSpec,
    SeriesKind,
    ThetaFamily,
    binet_J,
    binet_J_tilde,
    coefficient_quadrature,
    envelope_interval,
    exact_ln_central_binomial,
    exact_ln_factorial,
    exact_ln_gamma_half,
    partial_sum,
    remainder_quadrature,
    series,
    term,
    theta_ratio,
)
from envasym.cli import run_cli
from envasym.errors import ToleranceUnattainable
from envasym.precision import PRECISION_ENV_VAR

PATH = pathlib.Path(__file__).parent / "data" / "corpus.json"

SERIES_PRECISIONS = (64, 128, 512)
ORACLE_PRECISIONS = (256, 512)

# Arguments of every input type the series functions read; the integer kinds
# take positive ints only in their certified evaluations.
REAL_ARGUMENTS = (1, "0.5", 2.5, Fraction(22, 7), "7.3", mpf(9.75), "1e6")
INTEGER_ARGUMENTS = (1, 2, 3, 12, 100, 1000, 10**6)

CLI_LINES = (
    ("eval", "--series", "binet", "--z", "7.3"),
    ("eval", "--series", "central-binom", "--z", "10", "--tol", "1e-20", "--format", "plain"),
    ("eval", "--series", "gamma-half", "--z", "2.5", "--terms", "5", "--format", "csv"),
    ("eval", "--series", "demoivre", "--z", "20", "--precision", "128"),
    ("bound", "--series", "binet", "--z", "3", "--terms", "4", "--format", "plain"),
    ("bound", "--series", "central-binom", "--z", "0.5", "--terms", "2", "--format", "csv"),
    ("coeffs", "--family", "beta-tilde", "--max-k", "6", "--format", "csv"),
    ("coeffs", "--family", "beta", "--max-k", "3"),
    ("verify", "--format", "json"),
    ("verify", "--precision", "80", "--format", "json"),
    ("verify", "--deep", "--precision", "64", "--format", "json"),
    ("demo", "--b", "1", "--format", "json"),
    # usage errors
    ("eval", "--series", "binet", "--z", "abc"),
    ("eval", "--series", "binet", "--z", "3/0"),
    ("bound", "--series", "binet", "--z", "3", "--terms", "-1"),
    ("eval", "--series", "binet", "--z", "3", "--precision", "32"),
    # the series' accuracy floor, and the precision's
    ("eval", "--series", "binet", "--z", "1", "--tol", "1e-30"),
    ("eval", "--series", "binet", "--z", "50", "--tol", "1e-80"),
    # the index cap, searched and explicit, and the exponent limit
    ("eval", "--series", "binet", "--z", "1000", "--tol", "1e-5000"),
    ("eval", "--series", "binet", "--z", "7.3", "--terms", "1001"),
    ("bound", "--series", "binet", "--z", "7.3", "--terms", "1001"),
    ("eval", "--series", "binet", "--z", "20.5", "--tol", "1e-100001"),
    # domain errors
    ("eval", "--series", "central-binom", "--z", "1e3"),
    ("eval", "--series", "binet", "--z", "-3"),
    ("demo", "--b", "2j", "--steps", "2"),
)


def encode(value):
    """A JSON value for a result: an mpf is its ``_mpf_`` as
    [sign, mantissa, exponent, bit count]."""
    if isinstance(value, mpf):
        sign, man, exp, bc = value._mpf_
        return [sign, int(man), exp, bc]
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def _outcome(call):
    """The encoded result of ``call()``, or the package error it raised."""
    try:
        return encode(call())
    except (ValueError, ArithmeticError, RuntimeError) as exc:  # the package's error bases
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ToleranceUnattainable):
            record.update(best_bound=encode(exc.best_bound), k_best=exc.k_best)
        return record


def _series_records():
    for kind in SeriesKind:
        evaluate = getattr(series, kind.row.evaluation)
        arguments = INTEGER_ARGUMENTS if kind.row.integer_argument else REAL_ARGUMENTS
        for p in SERIES_PRECISIONS:
            for z in arguments:
                calls = {
                    "term(j=0)": lambda: term(kind, 0, z, p),
                    "term(j=4)": lambda: term(kind, 4, z, p),
                    "partial_sum(k=5)": lambda: partial_sum(kind, z, 5, p),
                    "envelope_interval(k=3)": lambda: envelope_interval(kind, z, 3, p),
                    "terms=6": lambda: evaluate(z, terms=6, precision=p),
                    "tol=1e-12": lambda: evaluate(z, "1e-12", precision=p),
                    "tol=1e-30": lambda: evaluate(z, "1e-30", precision=p),
                }
                for name, call in calls.items():
                    yield f"series {kind.value} z={z!r} {name} P={p}", p, _outcome(call)


def _oracle_records():
    quadratures = {
        256: [
            ("binet_J z=1", lambda spec: binet_J(1, spec, error=True)),
            ("binet_J z='7.3'", lambda spec: binet_J("7.3", spec, error=True)),
            ("binet_J_tilde z=10", lambda spec: binet_J_tilde(10, spec, error=True)),
            ("binet_J_tilde z='0.5'", lambda spec: binet_J_tilde("0.5", spec, error=True)),
            *[(f"theta_ratio {f.value} k=2 z=5",
               lambda spec, f=f: theta_ratio(f, 2, 5, spec, error=True)) for f in ThetaFamily],
            *[(f"remainder_quadrature {f.value} k=3 z='2.5'",
               lambda spec, f=f: remainder_quadrature(f, 3, "2.5", spec, error=True))
              for f in ThetaFamily],
            *[(f"coefficient_quadrature {f.value} k=4",
               lambda spec, f=f: coefficient_quadrature(f, 4, spec, error=True))
              for f in ThetaFamily],
            # large k, where the mass lies near eta = k/pi, far from t = 0
            ("coefficient_quadrature theta k=60",
             lambda spec: coefficient_quadrature(ThetaFamily.THETA, 60, spec, error=True)),
            ("theta_ratio theta k=60 z='0.5'",
             lambda spec: theta_ratio(ThetaFamily.THETA, 60, "0.5", spec, error=True)),
        ],
        512: [
            ("binet_J z='7.3'", lambda spec: binet_J("7.3", spec, error=True)),
            ("theta_ratio theta-hat k=2 z=5",
             lambda spec: theta_ratio(ThetaFamily.THETA_HAT, 2, 5, spec, error=True)),
            ("coefficient_quadrature theta-tilde k=4",
             lambda spec: coefficient_quadrature(ThetaFamily.THETA_TILDE, 4, spec, error=True)),
            ("coefficient_quadrature theta k=67",
             lambda spec: coefficient_quadrature(ThetaFamily.THETA, 67, spec, error=True)),
        ],
    }
    for p in ORACLE_PRECISIONS:
        spec = QuadratureSpec(p)
        for name, call in quadratures[p]:
            yield f"oracle {name} P={p}", p, _outcome(lambda: call(spec))
        for function, ns in ((exact_ln_factorial, (0, 10, 1000)),
                             (exact_ln_central_binomial, (1, 10, 1000)),
                             (exact_ln_gamma_half, (0, 10, 1000))):
            for n in ns:
                yield (f"oracle {function.__name__} n={n} P={p}", p,
                       _outcome(lambda: function(n, p)))


def _cli_records():
    for argv in CLI_LINES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(list(argv))
        yield "cli " + " ".join(argv), None, {"code": code, "out": out.getvalue(),
                                              "err": err.getvalue()}


def compute() -> list[dict]:
    """Every record, computed now, with ``ENVASYM_PRECISION`` unset."""
    saved = os.environ.pop(PRECISION_ENV_VAR, None)
    try:
        return [{"id": name, "precision": p, "value": value}
                for records in (_series_records(), _oracle_records(), _cli_records())
                for name, p, value in records]
    finally:
        if saved is not None:
            os.environ[PRECISION_ENV_VAR] = saved


def render(records: list[dict]) -> str:
    """The file's text: a JSON list with one record a line."""
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


def load() -> list[dict]:
    return json.loads(PATH.read_text())


def _is_mpf(value) -> bool:
    return (isinstance(value, list) and len(value) == 4
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value))


def _exact(fields) -> Fraction:
    sign, man, exp, _ = fields
    return (-1) ** sign * man * Fraction(2) ** exp


def _moves(old, new, precision, path=""):
    """One line per leaf where ``new`` differs from ``old``; an mpf that
    moved says by how many units in the last place of ``old`` at ``precision``
    bits (its own bit count for CLI records)."""
    if old == new:
        return []
    label = path or "value"
    if _is_mpf(old) and _is_mpf(new):
        if old[1] == 0:
            return [f"{label}: 0 -> {float(_exact(new))!r}"]
        bits = precision or old[3]
        ulps = (_exact(new) - _exact(old)) / Fraction(2) ** (old[2] + old[3] - bits)
        return [f"{label}: moved by {float(ulps):+.6g} ulps"]
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [line for key in old for line in _moves(old[key], new[key], precision,
                                                       f"{path}.{key}" if path else key)]
    if (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
            and not _is_mpf(old) and not _is_mpf(new)):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in _moves(a, b, precision, f"{path}[{i}]")]
    if isinstance(old, str) and isinstance(new, str):
        at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        old, new = old[max(at - 40, 0):at + 40], new[max(at - 40, 0):at + 40]
        return [f"{label}: from character {at}, {old!r} -> {new!r}"]
    return [f"{label}: {old!r:.120} -> {new!r:.120}"]


def differences(expected: list[dict], actual: list[dict], first: int | None = 5) -> str:
    """'' when the records agree; else the count of differing records, then
    the first ``first`` of them (all of them for None) with what moved in each."""
    ids = [r["id"] for r in expected]
    if ids != [r["id"] for r in actual]:
        missing = sorted(set(ids) - {r["id"] for r in actual})
        extra = sorted({r["id"] for r in actual} - set(ids))
        return f"the record ids differ: missing {missing[:first]}, new {extra[:first]}"
    moved = [(e["id"], lines) for e, a in zip(expected, actual)
             if (lines := _moves(e["value"], a["value"], e["precision"]))]
    if not moved:
        return ""
    shown = "" if first is None else f"; the first {first}"
    report = [f"{len(moved)} of {len(expected)} records differ{shown}:"]
    for name, lines in moved[:first]:
        report.append(f"{name}: " + "; ".join(lines[:3])
                      + (f"; and {len(lines) - 3} more" if len(lines) > 3 else ""))
    return "\n".join(report)


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        report = differences(load(), compute(), first=None)
        sys.stdout.write((report or f"every record of {PATH.name} is reproduced") + "\n")
        return 1 if report else 0
    if argv:
        sys.stderr.write("usage: make_corpus.py [--check]\n")
        return 2
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(render(compute()))
    sys.stdout.write(f"wrote {PATH}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
