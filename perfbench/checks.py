"""Independent references and the pass/fail rule for every op.

Nothing here imports envasym.  Function values come from ``mpmath.loggamma``
at P + 128 bits; coefficients come from ``mpmath.bernfrac``; the minimum-term
index and the accuracy floor are decided in exact rationals on the decimal
argument as written.  Each ``check_*`` returns ``None`` for a correct result
and a one-line reason otherwise.

Results arrive encoded by the worker: an mpf is ``[signed mantissa,
exponent]`` and is rebuilt exactly here.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

REFERENCE_GUARD_BITS = 128
#: An oracle value may be off by this many times its own error estimate.
ORACLE_ERROR_FACTOR = 10
VERIFY_CHECKS = 12

_FAMILY_SERIES = {"theta": "binet", "theta-tilde": "central-binom", "theta-hat": "gamma-half"}


def decode(value):
    """Exact mpf from the worker's ``[mantissa, exponent]`` pair."""
    man, exp = value
    with mp.workprec(max(64, man.bit_length() + 8)):
        return mp.ldexp(mpf(man), exp)


# -- references -------------------------------------------------------------


def _real(z):
    return mpf(z) if isinstance(z, int) else mpf(str(z))


def full_reference(series: str, z, precision: int) -> mpf:
    """ln Gamma(z), ln C(2z, z), ln Gamma(z + 1/2) or ln z! at P + 128 bits."""
    with mp.workprec(precision + REFERENCE_GUARD_BITS):
        x = _real(z)
        if series == "binet":
            return mp.loggamma(x)
        if series == "central-binom":
            return mp.loggamma(2 * x + 1) - 2 * mp.loggamma(x + 1)
        if series == "gamma-half":
            return mp.loggamma(x + mpf(1) / 2)
        if series == "demoivre":
            return mp.loggamma(x + 1)
    raise ValueError(f"unknown series {series!r}")


def tail_reference(series: str, z, precision: int) -> mpf:
    """The series tail: the full function minus its elementary prefix."""
    full = full_reference(series, z, precision)
    with mp.workprec(precision + REFERENCE_GUARD_BITS):
        x = _real(z)
        if series == "demoivre":
            x += mpf(1) / 2
        half_ln_two_pi = mp.log(2 * mp.pi) / 2
        if series == "binet":
            prefix = (x - mpf(1) / 2) * mp.log(x) - x + half_ln_two_pi
        elif series == "central-binom":
            prefix = x * mp.log(4) - mp.log(mp.pi * x) / 2
        else:
            prefix = x * mp.log(x) - x + half_ln_two_pi
        return full - prefix


@lru_cache(maxsize=None)
def _beta(k: int) -> Fraction:
    p, q = mpmath.bernfrac(2 * k + 2)
    return (-1) ** k * Fraction(int(p), int(q)) / ((2 * k + 1) * (2 * k + 2))


def coefficient(series: str, k: int) -> Fraction:
    if series == "binet":
        return _beta(k)
    if series == "central-binom":
        return (2 - Fraction(1, 2 ** (2 * k + 1))) * _beta(k)
    return (1 - Fraction(1, 2 ** (2 * k + 1))) * _beta(k)


def term_sign(series: str, k: int) -> int:
    even = k % 2 == 0
    if series == "binet":
        return 1 if even else -1
    return -1 if even else 1


def exact_argument(series: str, z) -> Fraction:
    x = Fraction(z) if isinstance(z, int) else Fraction(str(z))
    return x + Fraction(1, 2) if series == "demoivre" else x


def min_term_index(series: str, z) -> int:
    """First k with |t_(k+1)| >= |t_k|, in exact rationals."""
    x2 = exact_argument(series, z) ** 2
    k = 0
    while coefficient(series, k + 1) < coefficient(series, k) * x2:
        k += 1
    return k


def floor_bound(series: str, z) -> Fraction:
    """Magnitude of the smallest term: the best bound the series can certify."""
    k = min_term_index(series, z)
    return coefficient(series, k) / exact_argument(series, z) ** (2 * k + 1)


def remainder_reference(family: str, k: int, z, precision: int) -> mpf:
    """Signed remainder of a family's series after k terms, at real z."""
    series = _FAMILY_SERIES[family]
    tail = tail_reference(series, z, precision)
    with mp.workprec(precision + REFERENCE_GUARD_BITS):
        x = _real(z)
        partial = sum(
            (term_sign(series, j) * mp.convert(coefficient(series, j)) / x ** (2 * j + 1)
             for j in range(k)),
            mpf(0),
        )
        return tail - partial


def query_reference(query: dict) -> mpf:
    """Reference value of one oracle point query."""
    fn, z, precision = query["fn"], query["z"], query["precision"]
    if fn == "binet_J":
        return tail_reference("binet", z, precision)
    if fn == "binet_J_tilde":
        return tail_reference("central-binom", z, precision)
    family, k = query["family"], query["k"]
    remainder = remainder_reference(family, k, z, precision)
    if fn == "remainder_quadrature":
        return remainder
    series = _FAMILY_SERIES[family]
    with mp.workprec(precision + REFERENCE_GUARD_BITS):
        term = term_sign(series, k) * mp.convert(coefficient(series, k)) / _real(z) ** (2 * k + 1)
        return remainder / term


# -- checks -----------------------------------------------------------------


def _contains(lo, hi, truth) -> bool:
    return decode(lo) <= truth <= decode(hi)


def check_floor_raise(series: str, z, tol: str, result: dict) -> str | None:
    """A ToleranceUnattainable must be justified and name the minimum-term index."""
    floor = floor_bound(series, z)
    if floor <= Fraction(tol):
        return f"raised at the floor, but the floor {float(floor):.3g} is below tol {tol}"
    k_star = min_term_index(series, z)
    if result["floor"] != k_star:
        return f"k_best {result['floor']} != min_term_index {k_star}"
    with mp.workprec(256):
        if decode(result["best"]) <= mpf(tol):
            return "best_bound is not above tol"
    return None


def check_certified(series: str, z, tol, result: dict, precision: int) -> str | None:
    """A CertifiedValue (or a floor raise) for one ln_* evaluation."""
    if "error" in result:
        return f"raised {result['error']}"
    if "floor" in result:
        if tol is None:
            return "floor raise on an evaluation with fixed terms"
        return check_floor_raise(series, z, tol, result)
    if tol is not None:
        with mp.workprec(precision + REFERENCE_GUARD_BITS):
            if decode(result["bound"]) > mpf(tol):
                return f"error_bound above tol {tol}"
    truth = full_reference(series, z, precision)
    if not _contains(result["lo"], result["hi"], truth):
        return "enclosure misses the reference"
    return None


def check_envelope(series: str, z, result: dict, precision: int) -> str | None:
    if "error" in result:
        return f"raised {result['error']}"
    if not _contains(result["lo"], result["hi"], tail_reference(series, z, precision)):
        return "tail enclosure misses the reference"
    return None


def _digits(precision: int) -> int:
    return (precision * 302 + 999) // 1000


def parse_cli_record(fmt: str, out: str) -> dict:
    """The numeric fields of one eval/bound record, in any output format."""
    if fmt == "json":
        return json.loads(out)["result"]
    lines = out.strip().splitlines()
    if fmt == "csv":
        return dict(zip(lines[0].split(","), lines[1].split(",")))
    fields = {}
    for line in lines:
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    lo, hi = fields.pop("enclosure").strip("[]").split(", ")
    fields.update(lo=lo, hi=hi)
    return fields


def check_cli(op: dict, result: dict, precision: int) -> str | None:
    """The CLI's exit code and record must agree with the library's result."""
    if "error" in result:
        return f"raised {result['error']}"
    lib = result["lib"]
    if "error" in lib:
        return f"library raised {lib['error']}"
    if "floor" in lib:
        if result["code"] != 2:
            return f"exit code {result['code']} where the library hit the floor"
        match = re.search(r"\(at k = (\d+)\)", result["err"])
        if not match or int(match.group(1)) != lib["floor"]:
            return "CLI floor index disagrees with the library"
        return check_floor_raise(op["series"], op["z"], op["tol"], lib)
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['err'].strip()[:120]}"
    try:
        record = parse_cli_record(op["format"], result["out"])
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable {op['format']} record: {exc}"
    if int(record["k_used"]) != lib["k"]:
        return "CLI k_used disagrees with the library"
    fields = {"lo": "lo", "hi": "hi"}
    if op["op"] == "cli_eval":
        if int(record["error_sign"]) != lib["sign"]:
            return "CLI error_sign disagrees with the library"
        fields.update(value="value", error_bound="bound")
    else:
        fields.update(bound="bound")
    with mp.workprec(precision + REFERENCE_GUARD_BITS):
        rel = mpf(10) ** (3 - _digits(precision))
        for cli_key, lib_key in fields.items():
            want = decode(lib[lib_key])
            if abs(mpf(record[cli_key]) - want) > rel * abs(want):
                return f"CLI {cli_key} disagrees with the library"
    if op["op"] == "cli_eval":
        return check_certified(op["series"], op["z"], op["tol"], lib, precision)
    return check_envelope(op["series"], op["z"], lib, precision)


def check_certify_op(op: dict, result: dict, precision: int) -> str | None:
    """Dispatch one certify-warm op to its rule."""
    if op["op"] in ("eval", "floor", "terms"):
        return check_certified(op["series"], op["z"], op["tol"], result, precision)
    if op["op"] == "envelope":
        return check_envelope(op["series"], op["z"], result, precision)
    return check_cli(op, result, precision)


def check_floor_op(op: dict, result: dict) -> str | None:
    """floor-cold: a justified raise at the minimum-term index, then a
    certified value at ``terms=k_best`` that contains the reference."""
    if "floor" not in result:
        return f"expected a floor raise, got {result}"[:160]
    reason = check_floor_raise(op["series"], op["z"], op["tol"], result)
    if reason:
        return reason
    return check_certified(op["series"], op["z"], None, result["at_floor"], op["precision"])


def check_verify(checks: list) -> str | None:
    passed = sum(1 for _, ok, _ in checks if ok)
    if passed < VERIFY_CHECKS or passed != len(checks):
        failing = [name for name, ok, _ in checks if not ok]
        return f"verify passed {passed} of {len(checks)} checks; failing: {failing}"
    return None


def check_demo(result: dict) -> str | None:
    if "error" in result:
        return f"demo scan raised {result['error']}"
    if result["witness"] is None:
        return "demo scan found no violation witness"
    if result["control"]:
        return f"control scan returned {result['control']} witnesses"
    return None


def check_query(query: dict, result: dict) -> str | None:
    """Off the reference by at most 10x the oracle's own error estimate.

    The estimate covers quadrature only, not the final rounding of the value
    to P bits, so one unit in the last place of the result is allowed on top.
    """
    if "error" in result:
        return f"raised {result['error']}"
    precision = query["precision"]
    truth = query_reference(query)
    with mp.workprec(precision + REFERENCE_GUARD_BITS):
        value, err = decode(result["value"]), decode(result["err"])
        allowed = ORACLE_ERROR_FACTOR * err + abs(value) * mpf(2) ** (1 - precision)
        if abs(value - truth) > allowed:
            return (f"{query['fn']} off the reference by {mp.nstr(abs(value - truth), 3)}, "
                    f"allowed {mp.nstr(allowed, 3)}")
    return None
