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

from . import coeffs, demo, series, verify
from .errors import DomainError, QuadratureNonConvergence, ToleranceUnattainable
from .oracle import QuadratureSpec
from .precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    PRECISION_ENV_VAR,
    _nstr,
    convert,
    exact,
    format_real,
)
from .series import SeriesKind

__all__ = ["run_cli", "main"]

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY_FAILED = 3

#: Most grid points ``demo --steps`` takes: each costs about 10 ms at 256
#: bits, so the cap is about 10 s; a larger value is a usage error, raised
#: before the grid is built.
DEMO_STEPS_CAP = 1000


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
    series_names = [kind.value for kind in SeriesKind]

    p = sub.add_parser("coeffs", help="exact rational series coefficients")
    p.set_defaults(run=_cmd_coeffs)
    p.add_argument("--family", required=True, choices=sorted(coeffs.COEFFICIENT_FAMILIES))
    p.add_argument("--max-k", required=True, type=int, metavar="K")

    p = sub.add_parser("eval", help="certified evaluation of a full function")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--series", required=True, choices=series_names)
    p.add_argument("--z", required=True, metavar="Z")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tol", metavar="T")
    group.add_argument("--terms", type=int, metavar="K")

    p = sub.add_parser("bound", help="enclosure of the series tail after K terms")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("--series", required=True, choices=series_names)
    p.add_argument("--z", required=True, metavar="Z")
    p.add_argument("--terms", required=True, type=int, metavar="K")

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--deep", action="store_true")

    p = sub.add_parser("demo", help="search for envelope-violation witnesses")
    p.set_defaults(run=_cmd_demo)
    p.add_argument("--b", required=True, metavar="B")
    p.add_argument("--x-from", default="5", metavar="A")
    p.add_argument("--x-to", default="20", metavar="C")
    p.add_argument("--steps", type=int, default=16, metavar="N",
                   help=f"grid points, 1 to {DEMO_STEPS_CAP} (default 16)")
    p.add_argument("--k-max", type=int, default=5, metavar="K",
                   help=f"largest truncation index, 1 to {series.INDEX_CAP} (default 5)")

    # The shared options come after each command's own, as its help lists them.
    for name, p in sub.choices.items():
        if name != "coeffs":
            p.add_argument("--precision", type=int, metavar="P")
        p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    return parser


def _in_range(value: int, least: int, flag: str, cap: int | None = None) -> int:
    """``value`` if it lies in [least, cap] (no cap when None), else a usage error."""
    if value < least:
        raise _UsageError(f"{flag} must be >= {least}")
    if cap is not None and value > cap:
        raise _UsageError(f"{flag} must be <= {cap}, got {value}")
    return value


def _resolve_precision(args) -> int:
    """``--precision`` where the command has it and it is given, else
    ``ENVASYM_PRECISION`` if set, else 256 bits, or verify's own default."""
    flag, raw = "--precision", getattr(args, "precision", None)
    if raw is None:
        flag, raw = PRECISION_ENV_VAR, os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        if args.command == "verify":
            return verify._precision(args.deep, None)
        return DEFAULT_PRECISION
    try:
        bits = int(raw)
    except ValueError:  # only the variable can fail: argparse reads the flag
        raise _UsageError(
            f"{PRECISION_ENV_VAR} must be an integer number of bits, got {raw!r}"
        ) from None
    return _in_range(bits, MIN_PRECISION, flag)


def _parse_real(raw: str, precision: int, what: str) -> None:
    """A usage error unless ``raw`` parses as a number; callers pass ``raw`` on."""
    try:
        convert(raw, precision)
    except (ValueError, TypeError, ZeroDivisionError):  # "3/0" divides
        raise _UsageError(f"{what} must be a decimal number, got {raw!r}") from None


def _series_argument(args, precision: int):
    """eval's and bound's (kind, z): z is an int when the literal is one, so
    integer kinds accept it, else the checked literal, so the library reads
    the number it spells."""
    kind = SeriesKind.from_name(args.series)
    try:
        return kind, int(args.z)
    except ValueError:
        _parse_real(args.z, precision, "--z")
        return kind, args.z


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


# Each command takes the parsed arguments and the resolved precision and
# returns its record's params and result, its CSV rows and its plain lines.

def _cmd_coeffs(args, precision: int):
    _in_range(args.max_k, 0, "--max-k")
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
    return ({"family": args.family, "max_k": args.max_k}, {"rows": rows},
            [{"family": args.family, **r} for r in rows],
            [f"{args.family}({r['k']}) = {r['fraction']}" for r in rows])


_EVALUATORS = {kind: getattr(series, kind.row.evaluation) for kind in SeriesKind}


def _cmd_eval(args, precision: int):
    kind, z = _series_argument(args, precision)
    tol, terms = args.tol, args.terms
    if terms is not None:
        _in_range(terms, 0, "--terms", series.INDEX_CAP)
    else:
        tol = series._DEFAULT_TOL if tol is None else tol
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
    return params, result, [row], [
        f"series       = {args.series}",
        f"z            = {args.z}",
        f"k_used       = {certified.k_used}",
        f"value        = {result['value']}",
        f"error_bound  = {result['error_bound']}",
        f"error_sign   = {certified.error_sign:+d}",
        f"enclosure    = [{result['lo']}, {result['hi']}]",
        f"precision    = {precision}"]


def _cmd_bound(args, precision: int):
    _in_range(args.terms, 0, "--terms", series.INDEX_CAP)
    kind, z = _series_argument(args, precision)
    env = series.envelope_interval(kind, z, args.terms, precision)
    result = {
        "lo": format_real(env.lo, precision),
        "hi": format_real(env.hi, precision),
        "bound": format_real(env.bound, precision),
        "k_used": env.k_used,
    }
    params = {"series": args.series, "z": args.z, "terms": args.terms}
    row = {**params, "k_used": env.k_used, **result}  # k_used is the first result column
    return params, result, [row], [
        f"series    = {args.series}",
        f"z         = {args.z}",
        f"k_used    = {env.k_used}",
        f"enclosure = [{result['lo']}, {result['hi']}]",
        f"bound     = {result['bound']}",
        f"precision = {precision}"]


def _cmd_verify(args, precision: int):
    results = verify.run_verification(deep=args.deep, precision=precision)
    passed = all(r.passed for r in results)
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    rows = [{"deep": args.deep, **c, "detail": '"' + c["detail"].replace('"', "'") + '"'}
            for c in checks]
    return ({"deep": args.deep}, {"passed": passed, "checks": checks}, rows,
            [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
            + [f"{'PASS' if passed else 'FAIL'} overall ({len(results)} checks)"])


def _demo_grid(x_from, x_to, steps: int, precision: int):
    _in_range(steps, 1, "--steps", DEMO_STEPS_CAP)
    _parse_real(x_from, precision, "--x-from")
    _parse_real(x_to, precision, "--x-to")
    a = exact(x_from, precision, "--x-from")
    c = exact(x_to, precision, "--x-to")
    if steps == 1:
        return [a]
    step = (c - a) / (steps - 1)
    return [a + i * step for i in range(steps)]


def _cmd_demo(args, precision: int):
    _in_range(args.k_max, 1, "--k-max", series.INDEX_CAP)
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
    return params, {"witness": found, "control_witnesses": len(control)}, [row], lines


def run_cli(argv: list[str]) -> int:
    """Run one command and return its exit code.  In-process calls share one
    parser, built at the first call.  The precision is resolved, and the
    record built and written, here, once for every command."""
    try:
        args = _build_parser().parse_args(argv)
        precision = _resolve_precision(args)
        params, result, csv_rows, plain_lines = args.run(args, precision)
        record = {"format_version": FORMAT_VERSION, "command": args.command,
                  "params": params, "precision": precision, "result": result}
        _emit(args.format, record, csv_rows, plain_lines)
        return EXIT_VERIFY_FAILED if result.get("passed") is False else EXIT_OK
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ToleranceUnattainable as exc:
        sys.stderr.write(
            f"error: {exc}\n"
            f"best_bound: {_nstr(exc.best_bound, 17)} (at k = {exc.k_best})\n"
        )
        return EXIT_NUMERIC
    except (DomainError, QuadratureNonConvergence) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
