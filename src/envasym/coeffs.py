"""Exact rational coefficients of the three enveloping expansions.

Three interrelated positive sequences drive everything else in the package:

* ``beta(k)``        coefficients of Binet's correction series for ln Gamma(z);
* ``beta_tilde(k)``  coefficients of the central-binomial series, equal to
  ``(2 - 2**-(2k+1)) * beta(k)``;
* ``beta_hat(k)``    coefficients of the ln Gamma(z + 1/2) (and de Moivre)
  series, equal to ``(1 - 2**-(2k+1)) * beta(k)``.

All values are exact ``fractions.Fraction`` objects built from Bernoulli
numbers, which come from Brent and Harvey's integer tangent numbers ("Fast
computation of Bernoulli, Tangent and Secant numbers", 2011).  Floating point
enters only in ``zeta_even``, which maps the exact coefficients back to zeta
values at even integers in the private context of its precision (see
:mod:`envasym.precision`), and in ``log_estimate``, a float guess the series
module uses to decide where to look before it decides exactly.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from mpmath import mpf

from .precision import DEFAULT_PRECISION, _context, checked_precision, to_precision

__all__ = [
    "bernoulli_even",
    "beta",
    "beta_tilde",
    "beta_hat",
    "zeta_even",
    "log_estimate",
    "coefficient_table",
    "COEFFICIENT_FAMILIES",
]

# Growable table of B_0, B_2, B_4, ... ; entries are immutable once appended,
# so concurrent readers only ever observe fully computed prefixes.
_BERNOULLI_EVEN: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def _tangent_numbers(n: int) -> list[int]:
    """Tangent numbers T_1 .. T_n: tan x = sum T_k x^(2k-1) / (2k-1)!, 1, 2, 16, 272, ...

    Brent and Harvey's in-place recurrence: O(n^2) products of an integer by
    a small integer, and no division or gcd.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_even(m: int) -> Fraction:
    """Exact Bernoulli number B_{2m} for m >= 1 (B_2 = 1/6, B_4 = -1/30, ...).

    The table grows from tangent numbers, B_{2k} = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)), to an eighth past m: a truncation search asks for the
    neighbours of m next.  Rebuilding n tangent numbers costs about n^3, so
    growing by at least 9/8 keeps the total within a constant factor of the
    last build, and the table never holds much more than the largest m asked.
    """
    if m < 1:
        raise ValueError("bernoulli_even requires m >= 1")
    if m >= len(_BERNOULLI_EVEN):
        with _BERNOULLI_LOCK:
            have = len(_BERNOULLI_EVEN)
            if m >= have:
                n = m + m // 8 + 2
                tangent = _tangent_numbers(n)
                for k in range(have, n + 1):
                    four_k = 4**k
                    _BERNOULLI_EVEN.append(Fraction(
                        (-1) ** (k - 1) * 2 * k * tangent[k - 1], four_k * (four_k - 1)))
    return _BERNOULLI_EVEN[m]


@lru_cache(maxsize=None)
def beta(k: int) -> Fraction:
    """Binet series coefficient (-1)^k B_{2k+2} / ((2k+1)(2k+2)); positive."""
    if k < 0:
        raise ValueError("beta requires k >= 0")
    value = (-1) ** k * bernoulli_even(k + 1) / ((2 * k + 1) * (2 * k + 2))
    assert value > 0
    return value


#: (a, b) per family, with c(k) = (a - b * 2**-(2k+1)) * beta(k).
_BETA_FACTORS = {"beta": (1, 0), "beta-tilde": (2, 1), "beta-hat": (1, 1)}


def _scaled_beta(family: str, k: int) -> Fraction:
    """c(k) of one family from its ``_BETA_FACTORS``; k < 0 is refused by name."""
    if k < 0:
        raise ValueError(f"{family.replace('-', '_')} requires k >= 0")
    a, b = _BETA_FACTORS[family]
    return (a - Fraction(b, 2 ** (2 * k + 1))) * beta(k)


@lru_cache(maxsize=None)
def beta_tilde(k: int) -> Fraction:
    """Central-binomial series coefficient (2 - 2**-(2k+1)) * beta(k)."""
    return _scaled_beta("beta-tilde", k)


@lru_cache(maxsize=None)
def beta_hat(k: int) -> Fraction:
    """Half-shift series coefficient (1 - 2**-(2k+1)) * beta(k)."""
    return _scaled_beta("beta-hat", k)


def zeta_even(k: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """zeta(2k+2) at the requested precision, derived from the exact beta(k).

    Uses zeta(2k+2) = beta(k) * (2*pi)**(2k+2) / (2 * (2k)!), evaluated in the
    private context of the precision.
    """
    if k < 0:
        raise ValueError("zeta_even requires k >= 0")
    ctx = _context(checked_precision(precision))
    value = ctx.convert(beta(k)) * (2 * ctx.pi) ** (2 * k + 2) / (2 * ctx.factorial(2 * k))
    return to_precision(value._mpf_, precision)


@lru_cache(maxsize=4096)
def log_estimate(family: str, k: int) -> float:
    """ln c(k) of one coefficient family, as a float that cannot overflow.

    From beta(k) = 2 (2k)! zeta(2k+2) / (2 pi)^(2k+2) with zeta(2k+2),
    which lies in (1, pi^2/6], taken as 1: a guess, never a decision.
    """
    a, b = _BETA_FACTORS[family]
    return (math.log(2 * (a - b * 2.0 ** -(2 * k + 1))) + math.lgamma(2 * k + 1)
            - (2 * k + 2) * math.log(2 * math.pi))


COEFFICIENT_FAMILIES = {
    "beta": beta,
    "beta-tilde": beta_tilde,
    "beta-hat": beta_hat,
}


def coefficient_table(family: str, max_k: int) -> list[Fraction]:
    """Exact values of one coefficient family for k = 0 .. max_k."""
    try:
        fn = COEFFICIENT_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown coefficient family {family!r}") from None
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    return [fn(k) for k in range(max_k + 1)]
