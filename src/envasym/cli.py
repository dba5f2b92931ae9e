"""Command-line front end with machine-readable output.

Subcommands: ``coeffs`` (exact fractions), ``eval`` (certified value),
``bound`` (series-tail enclosure), ``verify`` (oracle cross-check suite) and
``demo`` (non-enveloping witness search).  Output formats are ``json`` (one
object per invocation), ``csv`` (header row plus data rows) and ``plain``.

Every numeric field is serialized as a full-precision decimal string of
ceil(P * 0.302) significant digits, with P recorded in the same record, so
nothing is silently rounded below the working precision.  JSON records use
a fixed field order and round-trip byte-identically through parse/serialize.

Exit codes: 0 success, 1 usage error, 2 unattainable tolerance (below the
series' accuracy floor, or below what the precision can certify: raise
``--precision``) or numeric domain error, 3 verification failure.  The
precision is ``--precision`` if given, else the ENVASYM_PRECISION
environment variable if set, else 256 bits (512 for ``verify --deep``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from mpmath import mp

from . import coeffs, demo, series, verify
from .errors import DomainError, QuadratureNonConvergence, ToleranceUnattainable
from .oracle import QuadratureSpec
from .precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    PRECISION_ENV_VAR,
    convert,
    format_real,
    positive_real,
    real_to_fraction,
)
from .series import SeriesKind

__all__ = ["run_cli", "main"]

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """Built at the first call and shared by every later one, so nothing may
    change it; it holds no default that ``ENVASYM_PRECISION`` sets."""
    parser = _Parser(prog="envasym", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ["json", "csv", "plain"], "default": "json"}
    series_names = [kind.value for kind in SeriesKind]

    p = sub.add_parser("coeffs", help="exact rational series coefficients")
    p.add_argument("--family", required=True, choices=sorted(coeffs.COEFFICIENT_FAMILIES))
    p.add_argument("--max-k", required=True, type=int, metavar="K")
    p.add_argument("--format", **fmt)

    p = sub.add_parser("eval", help="certified evaluation of a full function")
    p.add_argument("--series", required=True, choices=series_names)
    p.add_argument("--z", required=True, metavar="Z")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tol", metavar="T")
    group.add_argument("--terms", type=int, metavar="K")
    p.add_argument("--precision", type=int, metavar="P")
    p.add_argument("--format", **fmt)

    p = sub.add_parser("bound", help="enclosure of the series tail after K terms")
    p.add_argument("--series", required=True, choices=series_names)
    p.add_argument("--z", required=True, metavar="Z")
    p.add_argument("--terms", required=True, type=int, metavar="K")
    p.add_argument("--precision", type=int, metavar="P")
    p.add_argument("--format", **fmt)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--deep", action="store_true")
    p.add_argument("--precision", type=int, metavar="P")
    p.add_argument("--format", **fmt)

    p = sub.add_parser("demo", help="search for envelope-violation witnesses")
    p.add_argument("--b", required=True, metavar="B")
    p.add_argument("--x-from", default="5", metavar="A")
    p.add_argument("--x-to", default="20", metavar="C")
    p.add_argument("--steps", type=int, default=16, metavar="N")
    p.add_argument("--k-max", type=int, default=5, metavar="K")
    p.add_argument("--precision", type=int, metavar="P")
    p.add_argument("--format", **fmt)

    return parser


def _resolve_precision(flag, fallback: int = DEFAULT_PRECISION) -> int:
    """``--precision`` if given, else ``ENVASYM_PRECISION`` if set, else ``fallback``."""
    if flag is not None:
        if flag < MIN_PRECISION:
            raise _UsageError(f"--precision must be >= {MIN_PRECISION}")
        return flag
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(
            f"{PRECISION_ENV_VAR} must be an integer number of bits, got {raw!r}"
        ) from None
    if value < MIN_PRECISION:
        raise _UsageError(f"{PRECISION_ENV_VAR} must be >= {MIN_PRECISION}")
    return value


def _parse_real(raw: str, precision: int, what: str) -> None:
    """A usage error unless ``raw`` parses as a number; callers pass ``raw`` on."""
    try:
        convert(raw, precision)
    except (ValueError, TypeError):
        raise _UsageError(f"{what} must be a decimal number, got {raw!r}") from None


def _parse_argument(raw: str, precision: int):
    """Series argument: an int when the literal is one, so integer kinds accept
    it, else the checked literal, so the library reads the number it spells."""
    try:
        return int(raw)
    except ValueError:
        _parse_real(raw, precision, "--z")
        return raw


def _record(command: str, params: dict, precision: int, result) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "params": params,
        "precision": precision,
        "result": result,
    }


def _emit(fmt: str, record: dict, csv_rows: list[dict], plain_lines: list[str]) -> None:
    """Write one command's output: the record as JSON, the rows as CSV (the
    record's common fields, then each row's; their keys are the header, and
    None is an empty cell) or the plain lines."""
    if fmt == "json":
        lines = [json.dumps(record)]
    elif fmt == "csv":
        common = {key: record[key] for key in ("command", "precision", "format_version")}
        rows = [{**common, **row} for row in csv_rows]
        lines = [",".join(rows[0])]
        lines += [",".join("" if c is None else str(c) for c in row.values()) for row in rows]
    else:
        lines = plain_lines
    sys.stdout.write("".join(line + "\n" for line in lines))


def _cmd_coeffs(args) -> int:
    if args.max_k < 0:
        raise _UsageError("--max-k must be >= 0")
    rows = []
    for k in range(args.max_k + 1):
        f = coeffs.COEFFICIENT_FAMILIES[args.family](k)
        try:
            fraction = f"{f.numerator}/{f.denominator}"
        except ValueError:  # the same integers are printed below, so one check serves
            raise DomainError(
                f"{args.family}({k}) has more decimal digits than Python's limit of "
                f"{sys.get_int_max_str_digits()} for printing an integer "
                f"(sys.set_int_max_str_digits); use a smaller --max-k") from None
        rows.append({"k": k, "numerator": f.numerator, "denominator": f.denominator,
                     "fraction": fraction})
    record = _record("coeffs", {"family": args.family, "max_k": args.max_k},
                     _resolve_precision(None), {"rows": rows})
    _emit(args.format, record, [{"family": args.family, **r} for r in rows],
          [f"{args.family}({r['k']}) = {r['fraction']}" for r in rows])
    return EXIT_OK


_EVALUATORS = {kind: getattr(series, kind.row.evaluation) for kind in SeriesKind}


def _cmd_eval(args) -> int:
    precision = _resolve_precision(args.precision)
    kind = SeriesKind.from_name(args.series)
    z = _parse_argument(args.z, precision)
    tol = args.tol
    terms = args.terms
    if terms is not None and terms < 0:
        raise _UsageError("--terms must be >= 0")
    if tol is None and terms is None:
        tol = series._DEFAULT_TOL
    if tol is not None:
        # validate eagerly so garbage is a usage error, not a numeric one
        _parse_real(tol, precision, "--tol")
    certified = _EVALUATORS[kind](z, tol, terms=terms, precision=precision)
    lo, hi = certified.interval()
    result = {
        "value": format_real(certified.value, precision),
        "error_bound": format_real(certified.error_bound, precision),
        "error_sign": certified.error_sign,
        "k_used": certified.k_used,
        "lo": format_real(lo, precision),
        "hi": format_real(hi, precision),
    }
    params = {"series": args.series, "z": args.z, "tol": tol, "terms": terms}
    row = {**params, "k_used": certified.k_used, **result}  # k_used is the first result column
    _emit(args.format, _record("eval", params, precision, result), [row],
          [f"series       = {args.series}",
           f"z            = {args.z}",
           f"k_used       = {certified.k_used}",
           f"value        = {result['value']}",
           f"error_bound  = {result['error_bound']}",
           f"error_sign   = {certified.error_sign:+d}",
           f"enclosure    = [{result['lo']}, {result['hi']}]",
           f"precision    = {precision}"])
    return EXIT_OK


def _cmd_bound(args) -> int:
    precision = _resolve_precision(args.precision)
    kind = SeriesKind.from_name(args.series)
    if args.terms < 0:
        raise _UsageError("--terms must be >= 0")
    z = _parse_argument(args.z, precision)
    env = series.envelope_interval(kind, z, args.terms, precision)
    result = {
        "lo": format_real(env.lo, precision),
        "hi": format_real(env.hi, precision),
        "bound": format_real(env.bound, precision),
        "k_used": env.k_used,
    }
    params = {"series": args.series, "z": args.z, "terms": args.terms}
    row = {**params, "k_used": env.k_used, **result}  # k_used is the first result column
    _emit(args.format, _record("bound", params, precision, result), [row],
          [f"series    = {args.series}",
           f"z         = {args.z}",
           f"k_used    = {env.k_used}",
           f"enclosure = [{result['lo']}, {result['hi']}]",
           f"bound     = {result['bound']}",
           f"precision = {precision}"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    precision = _resolve_precision(args.precision, verify._precision(args.deep, None))
    results = verify.run_verification(deep=args.deep, precision=precision)
    passed = all(r.passed for r in results)
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    record = _record("verify", {"deep": args.deep}, precision,
                     {"passed": passed, "checks": checks})
    rows = [{"deep": args.deep, **c, "detail": '"' + c["detail"].replace('"', "'") + '"'}
            for c in checks]
    _emit(args.format, record, rows,
          [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
          + [f"{'PASS' if passed else 'FAIL'} overall ({len(results)} checks)"])
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _demo_grid(x_from, x_to, steps: int, precision: int):
    if steps < 1:
        raise _UsageError("--steps must be >= 1")
    _parse_real(x_from, precision, "--x-from")
    _parse_real(x_to, precision, "--x-to")
    a = real_to_fraction(positive_real(x_from, precision, "--x-from"))
    c = real_to_fraction(positive_real(x_to, precision, "--x-to"))
    if steps == 1:
        points = [a]
    else:
        step = (c - a) / (steps - 1)
        points = [a + i * step for i in range(steps)]
    return [convert(p, precision) for p in points]


def _cmd_demo(args) -> int:
    precision = _resolve_precision(args.precision)
    if args.k_max < 1:
        raise _UsageError("--k-max must be >= 1")
    _parse_real(args.b, precision, "--b")
    grid = _demo_grid(args.x_from, args.x_to, args.steps, precision)
    spec = QuadratureSpec(precision=precision)
    witness = demo.find_envelope_violation(args.b, grid, args.k_max, spec)
    control = demo.enveloping_control_scan(grid, args.k_max, spec)
    found = None
    if witness is not None:
        found = {
            "x": format_real(witness.x, precision),
            "k": witness.k,
            "remainder": format_real(witness.remainder, precision),
            "next_term_bound": format_real(witness.next_term_bound, precision),
            "mode": witness.mode.value,
        }
    params = {"b": args.b, "x_from": args.x_from, "x_to": args.x_to,
              "steps": args.steps, "k_max": args.k_max}
    record = _record("demo", params, precision,
                     {"witness": found, "control_witnesses": len(control)})
    columns = ("x", "k", "mode", "remainder", "next_term_bound")
    row = {**params, "witness_found": found is not None,
           **{key: (found or {}).get(key) for key in columns},
           "control_witnesses": len(control)}
    lines = [f"perturbation exp(-b x) with b = {args.b}",
             f"grid x in [{args.x_from}, {args.x_to}] ({args.steps} points), "
             f"k <= {args.k_max}"]
    if found:
        lines.append("violation witness found:")
        lines += [f"  {key:<15} = {found[key]}" for key in columns]
    else:
        lines.append("no violation witness found on this grid")
    lines.append(f"control scan witnesses (unperturbed): {len(control)}")
    _emit(args.format, record, [row], lines)
    return EXIT_OK


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "eval": _cmd_eval,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "demo": _cmd_demo,
}


def run_cli(argv: list[str]) -> int:
    """Run one command and return its exit code.  In-process calls share one
    parser, built at the first call."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ToleranceUnattainable as exc:
        sys.stderr.write(
            f"error: {exc}\n"
            f"best_bound: {mp.nstr(exc.best_bound, 17)} (at k = {exc.k_best})\n"
        )
        return EXIT_NUMERIC
    except (DomainError, QuadratureNonConvergence) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
