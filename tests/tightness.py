"""How much wider the certified enclosures are than the truncation error.

For every series kind and each precision P in ``PRECISIONS``, over a fixed
grid of arguments z and truncation indices k, two ratios against the
magnitude of the first omitted term, |t_k| = c(k) / x^(2k+1), taken exactly
from the exact coefficient and the exact x (z, or z + 1/2 where the kind
shifts it):

* ``envelope``: (hi - lo) / |t_k| of ``envelope_interval(kind, z, k, P)``;
* ``certified``: error_bound / |t_k| of the certified evaluation with
  ``terms=k``.

In exact arithmetic both would be 1; what lies above 1 is what rounding at P
bits costs, today mostly the outward margin ``series._margin``.  The ratios
are data, not a pass/fail bound: the script prints their median and maximum
over the grid as JSON, and those of the excess ratio - 1, which a float of
the ratio hides (it reads 1.0) wherever the excess is below 2**-53.  Run

    PYTHONPATH=src python tests/tightness.py
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction

from envasym import SeriesKind, envelope_interval, series
from envasym.precision import real_to_fraction

PRECISIONS = (64, 128, 256, 512)
REAL_ARGUMENTS = ("0.5", "2", "7.3", "30")
INTEGER_ARGUMENTS = (1, 2, 7, 30)
INDICES = (0, 1, 4, 8, 17)


def exact_term(kind: SeriesKind, z, k: int) -> Fraction:
    """|t_k| of ``kind`` at z, exactly."""
    x = Fraction(z) + (Fraction(1, 2) if kind.row.half_shift else 0)
    return kind.row.coefficient(k) / x ** (2 * k + 1)


def ratios(kind: SeriesKind, z, k: int, precision: int) -> tuple[Fraction, Fraction]:
    """The (envelope, certified) ratios at one point, exactly."""
    t_k = exact_term(kind, z, k)
    env = envelope_interval(kind, z, k, precision)
    certified = getattr(series, kind.row.evaluation)(z, terms=k, precision=precision)
    width = real_to_fraction(env.hi) - real_to_fraction(env.lo)
    return width / t_k, real_to_fraction(certified.error_bound) / t_k


def _summary(column) -> dict:
    median, top = statistics.median(column), max(column)
    return {"median": float(median), "max": float(top),
            "median_excess": float(median - 1), "max_excess": float(top - 1)}


def report(precisions=PRECISIONS, reals=REAL_ARGUMENTS, integers=INTEGER_ARGUMENTS,
           indices=INDICES) -> dict:
    """The grid and, per kind and precision, the median and maximum of each ratio."""
    table = {}
    for kind in SeriesKind:
        zs = integers if kind.row.integer_argument else reals
        table[kind.value] = {}
        for precision in precisions:
            columns = zip(*(ratios(kind, z, k, precision) for z in zs for k in indices))
            table[kind.value][str(precision)] = {
                name: _summary(column) for name, column in zip(("envelope", "certified"), columns)}
    grid = {"precisions": list(precisions), "real_z": list(reals),
            "integer_z": list(integers), "k": list(indices)}
    return {"grid": grid, "ratios": table}


def main(argv: list[str]) -> int:
    if argv:
        sys.stderr.write("usage: tightness.py\n")
        return 2
    sys.stdout.write(json.dumps(report(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
