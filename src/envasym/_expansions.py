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
                        maps the (mantissa, exponent) pair of an x > 0 to the
                        pair of the bits that the mpf expression in its comment
                        has at ``mp.prec = wp``.  Its adds, products and shifts
                        are ``precision``'s pair steps, rounded to nearest; only
                        the logarithms and pi are libmp calls;
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

from mpmath.libmp import from_man_exp, mpf_log, mpf_pi
from mpmath.libmp import round_nearest as rnd

from . import coeffs
from .precision import _pair, _product, _sum


def _ln(x: tuple, wp: int) -> tuple:
    """ln x of a pair x > 0 at wp bits: libmp's ``mpf_log`` of the packed pair."""
    return _pair(mpf_log(from_man_exp(*x), wp, rnd))


@functools.lru_cache(maxsize=16)
def _constants(wp: int) -> tuple:
    """The pairs of ``mp.log(2*mp.pi)/2``, ``mp.log(4)`` and ``+mp.pi`` at ``mp.prec = wp``."""
    pi = _pair(mpf_pi(wp, rnd))
    return _product(_ln((pi[0], pi[1] + 1), wp), (1, -1), wp), _ln((4, 0), wp), pi


def _stirling_prefix(x: tuple, wp: int, half: int = 1) -> tuple:
    # (x - half/2) ln x - x + ln(2 pi)/2: Stirling's prefix for half = 1, and
    # Gauss's x ln x - x + ln(2 pi)/2 for half = 0
    product = _product(_sum(x, (-half, -1), wp), _ln(x, wp), wp)
    return _sum(_sum(product, (-x[0], x[1]), wp), _constants(wp)[0], wp)


_half_shift_prefix = functools.partial(_stirling_prefix, half=0)


def _central_binomial_prefix(x: tuple, wp: int) -> tuple:
    # x ln 4 - ln(pi x)/2
    _, ln4, pi = _constants(wp)
    m, e = _ln(_product(pi, x, wp), wp)
    return _sum(_product(x, ln4, wp), (-m, e - 1), wp)


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
