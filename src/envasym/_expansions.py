"""The one table of per-series facts.

The four expansions are one series, sum over j of sign(j) c(j) / x^(2j+1),
whose remainder after k terms has the sign of term k and is smaller than it.
They differ only in the facts each row below records:

* ``coefficients``      key of ``coeffs.COEFFICIENT_FAMILIES`` giving c(j);
* ``weight``            ``oracle.ThetaFamily`` value of the integrand weight;
* ``first_sign``        sign of term 0, after which the signs alternate;
* ``half_shift``        whether x is z + 1/2 rather than z;
* ``integer_argument``  whether the certified evaluation takes a positive integer;
* ``prefix``            the elementary part of the full function, in x;
* ``evaluation``        name of the certified evaluation in ``series``.

``series.SeriesKind`` and ``oracle.ThetaFamily`` expose their rows as a
public ``row``: ``SeriesKind.BINET_J.row.sign(k)``, ``.row.coefficient(k)``,
``.row.prefix``.  The table holds names, not coefficient values, so the
oracle can read its signs without touching a Bernoulli number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpf

from . import coeffs


def _stirling_prefix(x: mpf) -> mpf:
    return (x - mpf(1) / 2) * mp.log(x) - x + mp.log(2 * mp.pi) / 2


def _central_binomial_prefix(x: mpf) -> mpf:
    return x * mp.log(4) - mp.log(mp.pi * x) / 2


def _half_shift_prefix(x: mpf) -> mpf:
    return x * mp.log(x) - x + mp.log(2 * mp.pi) / 2


@dataclass(frozen=True)
class Expansion:
    coefficients: str
    weight: str
    first_sign: int
    half_shift: bool
    integer_argument: bool
    prefix: Callable[[mpf], mpf]
    evaluation: str

    def sign(self, j: int) -> int:
        """Sign of term j, which is also the sign of the remainder after j terms."""
        return self.first_sign if j % 2 == 0 else -self.first_sign

    def coefficient(self, j: int) -> Fraction:
        """Exact c(j), from ``coeffs.COEFFICIENT_FAMILIES`` as it is at the call."""
        return coeffs.COEFFICIENT_FAMILIES[self.coefficients](j)


#: Rows keyed by the series' CLI name (the ``SeriesKind`` value).
EXPANSIONS = {
    "binet": Expansion(
        "beta", "theta", 1, False, False, _stirling_prefix, "ln_gamma"),
    "central-binom": Expansion(
        "beta-tilde", "theta-tilde", -1, False, True, _central_binomial_prefix,
        "ln_central_binomial"),
    "gamma-half": Expansion(
        "beta-hat", "theta-hat", -1, False, False, _half_shift_prefix,
        "ln_gamma_plus_half"),
    "demoivre": Expansion(
        "beta-hat", "theta-hat", -1, True, True, _half_shift_prefix,
        "ln_factorial_demoivre"),
}

#: Each weight's row, the first integrating it (``theta-hat`` reads gamma-half's).
WEIGHTS = {row.weight: row for row in reversed(EXPANSIONS.values())}
