"""The one table of per-series facts.

The four expansions are one series, sum over j of sign(j) c(j) / x^(2j+1),
whose remainder after k terms has the sign of term k and is smaller than it.
They differ only in the facts each row below records:

* ``coefficients``      key of ``coeffs.COEFFICIENT_FAMILIES`` giving c(j);
* ``weight``            ``oracle.ThetaFamily`` value of the integrand weight;
* ``first_sign``        sign of term 0, after which the signs alternate;
* ``half_shift``        whether x is z + 1/2 rather than z;
* ``integer_argument``  whether the certified evaluation takes a positive integer;
* ``prefix``            the elementary part of the full function: ``prefix(x, wp)``
                        maps a raw x to the raw bits that the mpf expression in
                        its comment has at ``mp.prec = wp``, by the same libmp calls;
* ``evaluation``        name of the certified evaluation in ``series``.

``series.SeriesKind`` and ``oracle.ThetaFamily`` expose their rows as a
public ``row``: ``SeriesKind.BINET_J.row.sign(k)``, ``.row.coefficient(k)``,
``.row.prefix``.  The table holds names, not coefficient values, so the
oracle can read its signs without touching a Bernoulli number.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath.libmp import fhalf, from_int, mpf_add, mpf_log, mpf_mul, mpf_pi, mpf_shift, mpf_sub
from mpmath.libmp import round_nearest as rnd

from . import coeffs


@functools.lru_cache(maxsize=16)
def _constants(wp: int) -> tuple:
    """Raw ``mp.log(2*mp.pi)/2``, ``mp.log(4)`` and ``+mp.pi`` at ``mp.prec = wp``."""
    pi = mpf_pi(wp, rnd)
    return mpf_shift(mpf_log(mpf_shift(pi, 1), wp, rnd), -1), mpf_log(from_int(4), wp, rnd), pi


def _stirling_prefix(x: tuple, wp: int) -> tuple:
    # (x - 1/2) ln x - x + ln(2 pi)/2
    product = mpf_mul(mpf_sub(x, fhalf, wp, rnd), mpf_log(x, wp, rnd), wp, rnd)
    return mpf_add(mpf_sub(product, x, wp, rnd), _constants(wp)[0], wp, rnd)


def _central_binomial_prefix(x: tuple, wp: int) -> tuple:
    # x ln 4 - ln(pi x)/2
    _, ln4, pi = _constants(wp)
    half_ln_pi_x = mpf_shift(mpf_log(mpf_mul(pi, x, wp, rnd), wp, rnd), -1)
    return mpf_sub(mpf_mul(x, ln4, wp, rnd), half_ln_pi_x, wp, rnd)


def _half_shift_prefix(x: tuple, wp: int) -> tuple:
    # x ln x - x + ln(2 pi)/2
    product = mpf_mul(x, mpf_log(x, wp, rnd), wp, rnd)
    return mpf_add(mpf_sub(product, x, wp, rnd), _constants(wp)[0], wp, rnd)


@dataclass(frozen=True)
class Expansion:
    coefficients: str
    weight: str
    first_sign: int
    half_shift: bool
    integer_argument: bool
    prefix: Callable[[tuple, int], tuple]
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
