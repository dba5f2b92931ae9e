"""Truncated expansions with rigorous two-sided enclosures.

Four classical asymptotic series are handled, all strictly enveloping for
real positive arguments: the truncation remainder has the sign of the first
omitted term and is smaller in magnitude.  That single fact, valid at every
truncation order, turns any two consecutive partial sums into a guaranteed
enclosure of the limit function and the first omitted term into a certified
error bound.

Every kind's j-th term is sign(j) c(j) / x^(2j+1).  What differs between
the kinds (the coefficient family, the sign of term 0, whether x is z or
z + 1/2, the integer flag and the elementary prefix) is one row of the table
in :mod:`envasym._expansions`, public as ``kind.row``: for instance
``SeriesKind.BINET_J.row.sign(k)``, ``.row.coefficient(k)`` and
``.row.prefix``.

* ``BINET_J``           (-1)^j  beta(j)       / z^(2j+1)   -> J(z)
* ``CENTRAL_BINOMIAL``  (-1)^(j+1) beta_tilde(j) / z^(2j+1) -> J~(z)
* ``GAMMA_PLUS_HALF``   (-1)^(j+1) beta_hat(j)  / z^(2j+1)  -> ln-Gamma(z+1/2) tail
* ``DE_MOIVRE``         same as GAMMA_PLUS_HALF with z = n + 1/2

Every partial sum s_k and term t_k comes from one loop, ``_walk``: it
carries the signed power x^(2j+1) with one multiplication per term and
yields (s_j, t_j), so t_k divides by the power the sum reached.  ``term``
walks too, so term j costs j + 1 divisions.  Each step is rounded to
nearest by the one rounder of :mod:`envasym.precision`, on integer pairs.

``term``, ``partial_sum``, ``envelope_interval``, ``min_term_index`` and
``auto_truncate`` operate on the series tail itself; ``ln_gamma``,
``ln_central_binomial``, ``ln_gamma_plus_half`` and ``ln_factorial_demoivre``
add the elementary prefix and return a :class:`CertifiedValue` for the full
function.

z and ``tol`` count as the numbers they spell (``precision.exact``); the one
rounder takes x to nearest, ``tol`` and the coefficients down, the search
bound up.  ``min_term_index`` and ``auto_truncate`` decide exactly, walking
from a float estimate of the index, so the index is the one a scan from k = 0
would give, whatever the precision.  ``tol`` is rounded down once per call,
to a P-bit (mantissa, exponent) pair, and every decision against it (each
probe of the search, ``_evaluate``'s check of the certified bound and its
rounding-share stop) compares pairs with ``precision._at_most``: a P-bit
bound is at most ``tol`` exactly when it is at most ``tol`` rounded down.
Indices above ``INDEX_CAP`` and decimal exponents outside
``+-EXPONENT_LIMIT`` raise :class:`DomainError`.

Rigor contract: the mathematical bounds are exact in exact arithmetic; each
computed endpoint or bound x is widened outward by ``_margin(x, P)``, the exact
2**-(P-32) |x| (``auto_truncate``'s ``slop`` is its exact twin), so containment
survives rounding at P bits.  Every step from the exact argument to the
returned mpf is one of ``precision``'s steps on (mantissa, exponent) pairs,
rounded to nearest at the working precision: the walk, the prefix's sums and
products, and the assembly of each value, bound and end; every comparison
with ``tol`` is exact, on pairs.  Only the prefix's logarithms and pi are
libmp calls, correctly rounded at the working precision.  Pairs become mpf
only where the API returns one: a value, a bound or an end, and the numbers
an error message prints.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from mpmath import mpf
from mpmath.libmp import round_ceiling, round_floor, round_nearest

from . import coeffs
from ._expansions import EXPANSIONS, Expansion
from .errors import DomainError, ToleranceUnattainable
from .precision import (
    DEFAULT_PRECISION,
    INDEX_CAP,
    _at_most,
    _nstr,
    _pair,
    _product,
    _quotient,
    _sum,
    _to_mpf,
    checked_index,
    checked_int,
    checked_precision,
    exact,
    positive_real,
    real_to_fraction,
    working_bits,
)

__all__ = [
    "SeriesKind",
    "EnvelopeInterval",
    "CertifiedValue",
    "term",
    "partial_sum",
    "envelope_interval",
    "min_term_index",
    "auto_truncate",
    "ln_gamma",
    "ln_central_binomial",
    "ln_gamma_plus_half",
    "ln_factorial_demoivre",
]

_DEFAULT_TOL = "1e-12"


class SeriesKind(enum.Enum):
    """The four expansions, keyed by their CLI names; ``row`` is the table row."""

    BINET_J = "binet"
    CENTRAL_BINOMIAL = "central-binom"
    GAMMA_PLUS_HALF = "gamma-half"
    DE_MOIVRE = "demoivre"

    def __init__(self, name: str):
        self.row = EXPANSIONS[name]

    @classmethod
    def from_name(cls, name: str) -> "SeriesKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown series kind {name!r}")


@dataclass(frozen=True)
class EnvelopeInterval:
    """Ordered enclosure [lo, hi] of a series tail, plus truncation metadata.

    ``bound`` is the magnitude of the first omitted term plus its ``_margin``;
    hi - lo is that magnitude plus twice the larger end's ``_margin``.  For
    real z > 0 the true tail value lies in [lo, hi].
    """

    lo: mpf
    hi: mpf
    k_used: int
    bound: mpf
    precision: int

    def contains(self, x) -> bool:
        return _within(self.lo, self.hi, x)


@dataclass(frozen=True)
class CertifiedValue:
    """Point value with a one-sided signed error bound.

    The true function value lies between ``value`` and
    ``value + error_sign * error_bound`` for real positive arguments.
    """

    value: mpf
    error_bound: mpf
    error_sign: int
    k_used: int
    precision: int

    def interval(self) -> tuple[mpf, mpf]:
        """The enclosure as an ordered (lo, hi) pair."""
        wp, (m, e) = working_bits(self.precision), _pair(self.error_bound._mpf_)
        other = _to_mpf(_sum(_pair(self.value._mpf_), (self.error_sign * m, e), wp), wp)
        return (self.value, other) if self.error_sign > 0 else (other, self.value)

    def contains(self, x) -> bool:
        return _within(*self.interval(), x)


def _within(lo: mpf, hi: mpf, x) -> bool:
    """lo <= x <= hi, decided exactly for an int, float, Fraction or mpf x."""
    if isinstance(x, Fraction):
        return real_to_fraction(lo) <= x <= real_to_fraction(hi)
    return lo <= x <= hi


def _checked_argument(kind: SeriesKind, z, precision: int) -> mpf:
    """``_exact_argument`` rounded once, to nearest at the working precision."""
    return positive_real(_exact_argument(kind, z, precision), precision, "series argument")


def _margin(x: tuple, precision: int) -> tuple:
    """The rounding margin 2**-(precision-32) |x| of a pair x: an exact shift."""
    return abs(x[0]), x[1] + 32 - precision


def term(kind: SeriesKind, j: int, z, precision: int = DEFAULT_PRECISION) -> mpf:
    """The signed j-th term at working precision: the walk's t_j, so it costs
    j + 1 divisions and multiplications, not one power and one division."""
    _, t_j, _ = _sum_and_term(kind, z, checked_int(j, 0, "term index"), precision)
    return _to_mpf(t_j, precision)


@functools.lru_cache(maxsize=8192)
def _rounded_coefficient(family: str, j: int, prec: int) -> tuple:
    """c(j) of one family as the walk's (mantissa, exponent) pair of ``prec``
    bits, rounded down as ``mp.convert`` rounds a Fraction.  An entry takes
    about 0.32 KB at 544 bits, so a full table takes about 2.6 MB."""
    c = coeffs.COEFFICIENT_FAMILIES[family](j)
    return _quotient((c.numerator, 0), (c.denominator, 0), prec, round_floor)


def _walk(row: Expansion, x: tuple, wp: int, start: int = 0) -> Iterator[tuple]:
    """The pairs (s_j, t_j) for j = start, start + 1, ...: s_j the sum of the
    first j terms and t_j = c(j) / (sign(j) x^(2j+1)) the signed term j, at
    ``wp`` bits whatever ``mp.prec`` is; x is the pair of the already shifted
    argument.

    The power (one ``_product`` by -x^2 per term), the sum and each term
    are integer pairs rounded to nearest in ``precision``.  Correctly rounded
    steps have one answer, the bits of the same loop in libmp calls, which
    ``tests/test_series.py::ambient_walk`` runs as the reference."""
    xm, xe = x
    minus_x2 = _product((-xm, xe), x, wp)
    power = (xm if row.first_sign > 0 else -xm), xe
    total = (0, 0)
    # c(start) first: the Bernoulli table grows to it once, not in steps as j climbs
    _rounded_coefficient(row.coefficients, start, wp)
    for j in itertools.count():
        t_j = _quotient(_rounded_coefficient(row.coefficients, j, wp), power, wp, round_nearest)
        if j >= start:
            yield total, t_j
        total = _sum(total, t_j, wp)
        power = _product(power, minus_x2, wp)


def _walk_to(row: Expansion, x: tuple, wp: int, k: int) -> tuple:
    """The walk's pair (s_k, t_k)."""
    return next(_walk(row, x, wp, k))


def partial_sum(kind: SeriesKind, z, k: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """Sum of the first k terms (an empty sum for k = 0)."""
    s_k, _, _ = _sum_and_term(kind, z, k, precision)
    return _to_mpf(s_k, precision)


def _sum_and_term(kind: SeriesKind, z, k: int, precision: int) -> tuple:
    """The pairs (s_k, t_k) at the checked argument and the working precision
    wp, and wp; k above ``INDEX_CAP`` raises before the argument is read."""
    k = checked_index(k, "term count")
    zz, wp = _checked_argument(kind, z, precision), working_bits(precision)
    return (*_walk_to(kind.row, _pair(zz._mpf_), wp, k), wp)


def envelope_interval(
    kind: SeriesKind, z, k: int, precision: int = DEFAULT_PRECISION
) -> EnvelopeInterval:
    """Enclosure of the series tail between partial sums k and k+1.

    Valid for every k >= 0, not only below the minimum-term index: the
    remainder always lies strictly between consecutive partial sums.
    """
    s_k, t_k, wp = _sum_and_term(kind, z, k, precision)
    # Rounding is monotone, so s_k + t_k lies on t_k's side of s_k.  The end of
    # larger magnitude has the sign of lo + hi; both ends move by its margin.
    s_next = _sum(s_k, t_k, wp)
    lo, hi = (s_k, s_next) if t_k[0] > 0 else (s_next, s_k)
    pm, pe = _margin(hi if _sum(hi, lo, wp)[0] > 0 else lo, precision)
    return EnvelopeInterval(
        lo=_to_mpf(_sum(lo, (-pm, pe), wp), precision),
        hi=_to_mpf(_sum(hi, (pm, pe), wp), precision),
        k_used=k,
        bound=_to_mpf(_sum((abs(t_k[0]), t_k[1]), _margin(t_k, precision), wp), precision),
        precision=precision,
    )


def _exact_argument(kind: SeriesKind, z, precision: int) -> Fraction:
    """The exact value of z (``exact``), shifted by 1/2 where the kind wants it."""
    xf = exact(z, checked_precision(precision), "series argument")
    return xf + Fraction(1, 2) if kind.row.half_shift else xf


# The searches below rest on one lemma: c(k+1)/c(k) is strictly increasing in
# k for beta, beta_tilde and beta_hat.  With s = 2k+2,
#
#   beta(k+1)/beta(k) = (2k+1)(2k+2)/(2 pi)^2 * zeta(s+2)/zeta(s),
#
# where (2k+1)(2k+2) grows and zeta(s+2)/zeta(s) does not fall, zeta being
# log-convex (a sum of the log-linear n^-s).  The other two families multiply
# beta(k) by g(k) = a - 2^-(2k+1), a in {2, 1}, which is log-concave, so
# g(k+1)/g(k) falls, but slowly: with u = 2^-(2k+1), g(k+1)^2 - g(k)g(k+2) =
# 9au/16 < u g(k+1)^2, so the ratio of ratios is above 1 - u.  The growth of
# (2k+1)(2k+2) outweighs it: its ratio of ratios is 6 at k = 0 and above
# 1 + 1/(k+1) >= 1/(1 - u) for k >= 1.  Hence the minimum-term test
# c(k+1) >= c(k) x^2 is false below the minimum-term index k* and true from
# it on.  Below k* the terms fall strictly, so the rounded-up bounds never
# rise, and the truncation test "bound <= tol or the terms turn" is also
# false and then true.  The first k of either is found exactly by walking
# from a float guess, which on measured traffic is the answer or one below.


def _least(holds, guess: int) -> int | None:
    """Least k in [0, INDEX_CAP] at which the monotone predicate ``holds`` is true.

    Walks from ``guess`` one index at a time, down while ``holds`` is true
    below, else up until it is true: at most |answer - guess| + 2 probes, none
    above both or more than one below both.  None when the guess, or the
    answer, lies above ``INDEX_CAP``.
    """
    if guess > INDEX_CAP:
        return None
    k = guess
    if holds(k):
        while k > 0 and holds(k - 1):
            k -= 1
        return k
    while k < INDEX_CAP:
        k += 1
        if holds(k):
            return k
    return None


def _ln(x: Fraction) -> float:
    """ln x for x > 0, as a float at any exponent."""
    return math.log(x.numerator) - math.log(x.denominator)


def _guess(kind: SeriesKind, xf: Fraction, ln_tol: float | None = None) -> int:
    """Float guess at the least k where the terms turn (or the bound meets tol).

    The float mirror of the exact tests, with ``coeffs.log_estimate`` for
    ln c(k); ``INDEX_CAP + 1`` when neither holds up to the cap.  Without
    c(k)'s factor a - b 2^-(2k+1), the turn test is (2k+1)(2k+2) >= (2 pi x)^2,
    solved in closed form for a k within one of the float turn.  The terms
    fall up to the turn, so the tol test is bisected below k, on the fixed
    midpoints of range(INDEX_CAP + 1) (few distinct ln c(j) are cached);
    only when it fails there is k moved by one where the factor decides.
    """
    ln_c = functools.partial(coeffs.log_estimate, kind.row.coefficients)
    ln_x = _ln(xf)

    def turns(k):
        return ln_c(k + 1) - ln_c(k) >= 2 * ln_x

    def meets(k):
        return ln_tol is not None and ln_c(k) - (2 * k + 1) * ln_x <= ln_tol

    r = 2 * math.pi * math.exp(min(ln_x, 10))  # pi x passes the cap before x = e^10
    k = min(INDEX_CAP + 1, max(0, math.ceil((math.sqrt(1 + 4 * r * r) - 3) / 4)))
    j = bisect.bisect_left(range(INDEX_CAP + 1), True, key=lambda j: j >= k or meets(j))
    if j < k:
        return j
    if k <= INDEX_CAP and not turns(k) and not meets(k):
        k += 1
    elif k and turns(k - 1):
        k -= 1
    return k


def _turns(row: Expansion, xf: Fraction, k: int) -> bool:
    """The one minimum-term test |t(k+1)| >= |t(k)|, i.e. c(k+1) >= c(k) x^2.

    Decided exactly, as one comparison of cross-multiplied integers
    (denominators are positive), so ties resolve to the earlier index.
    """
    c0, c1 = row.coefficient(k), row.coefficient(k + 1)
    return (c1.numerator * c0.denominator * xf.denominator**2
            >= c0.numerator * c1.denominator * xf.numerator**2)


def min_term_index(kind: SeriesKind, z, precision: int = DEFAULT_PRECISION) -> int:
    """First index where term magnitudes stop strictly decreasing.

    Decided at z as the number it spells (see ``exact``), so the index does
    not depend on ``precision``.  Raises :class:`DomainError` when it lies
    above ``INDEX_CAP``, or when z is a decimal string whose exponent lies
    outside ``+-EXPONENT_LIMIT``.
    """
    xf = _exact_argument(kind, z, precision)
    k = _least(lambda k: _turns(kind.row, xf, k), _guess(kind, xf))
    if k is None:
        raise DomainError(f"the minimum-term index of {kind.value} at this "
                          f"argument is above the cap of {INDEX_CAP}")
    return k


def _tolerance_pair(tol: Fraction, precision: int) -> tuple:
    """The exact ``tol`` rounded down to ``precision`` bits, as a pair: a
    precision-bit bound is at most ``tol`` exactly when it is at most this."""
    return _quotient((tol.numerator, 0), (tol.denominator, 0), precision, round_floor)


def _tolerance(tol, precision: int) -> mpf:
    """``_tolerance_pair`` of the exact ``tol`` (see ``exact``) as an mpf, the
    number the messages print."""
    value = exact(tol, precision, "tolerance")
    return _to_mpf(_tolerance_pair(value, precision), precision)


def auto_truncate(
    kind: SeriesKind, z, tol, precision: int = DEFAULT_PRECISION
) -> tuple[int, mpf]:
    """Smallest k (at or below the minimum-term index) with |term(k)| <= tol.

    Returns ``(k, bound)`` where ``bound`` is the slop-widened magnitude of
    the first omitted term at z as the number it spells (see ``exact``),
    rounded up to ``precision`` bits; the decision
    is made on that rounded number against the exact value of ``tol``
    rounded down to ``precision`` bits, so ``bound <= tol`` whenever the
    call succeeds.  Raises :class:`ToleranceUnattainable`, carrying the best
    achievable bound (rounded the same way), when the accuracy floor of the
    series at this argument is above ``tol``, and :class:`DomainError` when
    the index that decides either lies above ``INDEX_CAP`` or when z or
    ``tol`` is a decimal string whose exponent lies outside
    ``+-EXPONENT_LIMIT``.

    The index is the least k where the bound meets ``tol`` or the terms
    turn; it is found by exact checks walking from a float guess, with the
    same result as a scan from k = 0, and without computing the minimum-term
    index when ``tol`` is met first.  Each check rounds its bound to a pair
    and compares it with the pair of ``tol`` rounded down once; only the
    returned bound and the messages' numbers become mpf.
    """
    xf = _exact_argument(kind, z, precision)
    tol = exact(tol, precision, "tolerance")
    tol_pair = _tolerance_pair(tol, precision)
    # The bound c(k) (1 + slop) / x^(2k+1) as one integer ratio; slop = 2^-s is
    # _margin's twin, so its factor is (2^s + 1) / 2^s, the 2^s an exponent.
    s = precision - 32
    inflate = (1 << s) + 1
    bounds = {}

    def settled(k):
        c, power = kind.row.coefficient(k), 2 * k + 1
        bounds[k] = _quotient((c.numerator * inflate * xf.denominator**power, 0),
                              (c.denominator * xf.numerator**power, s), precision, round_ceiling)
        return _at_most(bounds[k], tol_pair) or _turns(kind.row, xf, k)

    k = _least(settled, _guess(kind, xf, _ln(tol)))
    if k is None:
        raise DomainError(f"tolerance {_nstr(_tolerance(tol, precision), 8)} for {kind.value} "
                          f"at this argument needs a truncation index above the cap "
                          f"of {INDEX_CAP}")
    bound = _to_mpf(bounds[k], precision)
    if _at_most(bounds[k], tol_pair):
        return k, bound
    raise ToleranceUnattainable(
        f"tolerance {_nstr(_tolerance(tol, precision), 8)} is below the accuracy floor of "
        f"{kind.value} at this argument; best achievable bound is "
        f"{_nstr(bound, 8)} at k = {k}",
        best_bound=bound,
        k_best=k,
    )


def _certificates(kind: SeriesKind, xf: Fraction, k: int,
                  precision: int) -> Iterator[CertifiedValue]:
    """The certified values at k, k + 1, k + 2, ..., from one walk at the exact,
    already shifted argument xf, rounded once to nearest."""
    wp = working_bits(precision)
    x = _quotient((xf.numerator, 0), (xf.denominator, 0), wp, round_nearest)
    prefix = kind.row.prefix(x, wp)
    for j, (s_j, t_j) in enumerate(_walk(kind.row, x, wp, k), k):
        value = _sum(prefix, s_j, wp)
        sign = kind.row.sign(j)
        # Pull the anchor outward by value's margin and widen the widened term
        # by twice that, so the containment survives rounding of value itself.
        mm, me = _margin(value, precision)
        anchored = _sum(value, (-sign * mm, me), wp)
        bound = _sum(_sum((abs(t_j[0]), t_j[1]), _margin(t_j, precision), wp), (mm, me + 1), wp)
        yield CertifiedValue(
            value=_to_mpf(anchored, precision),
            error_bound=_to_mpf(bound, precision),
            error_sign=sign,
            k_used=j,
            precision=precision,
        )


def _evaluate(kind: SeriesKind, z, tol, terms, precision: int) -> CertifiedValue:
    """The certified value behind the four ``ln_*`` functions.

    z and ``tol`` are read once (``exact``) and passed on as Fractions; the
    shifted argument and the pair of ``tol`` rounded down are formed here by
    the helpers ``auto_truncate`` (public, so that a tracer counts the
    search) uses too, and the bounds are compared with that pair.
    With a tolerance (``1e-12`` when neither it nor ``terms`` is given) the
    returned bound is at most ``tol``.  Rounding adds twice the value's
    ``_margin`` to the series bound; when that pushes it above ``tol`` at the k
    ``auto_truncate`` picks, the same walk goes on to k + 1, k + 2, ...
    while the terms still fall and that rounding share alone is below
    ``tol``.  When none of them meets ``tol``, precision rather than the
    series is the limit, and :class:`ToleranceUnattainable` says so.
    """
    if kind.row.integer_argument:
        try:
            z = checked_int(z, 1, "n")
        except ValueError:
            raise DomainError(f"n must be a positive integer, got {z!r}") from None
    if terms is not None and tol is not None:
        raise ValueError("pass either tol or terms, not both")
    z = exact(z, checked_precision(precision), "series argument")
    xf = _exact_argument(kind, z, precision)
    if terms is not None:
        return next(_certificates(kind, xf, checked_index(terms, "terms"), precision))
    tol = exact(_DEFAULT_TOL if tol is None else tol, precision, "tolerance")
    k, _ = auto_truncate(kind, z, tol, precision)
    tol_pair = _tolerance_pair(tol, precision)
    for certified in _certificates(kind, xf, k, precision):
        k = certified.k_used
        if _at_most(_pair(certified.error_bound._mpf_), tol_pair):
            return certified
        mm, me = _margin(_pair(certified.value._mpf_), precision)
        if _at_most(tol_pair, (mm, me + 1)) or k >= INDEX_CAP or _turns(kind.row, xf, k):
            break
    raise ToleranceUnattainable(
        f"tolerance {_nstr(_tolerance(tol, precision), 8)} is below what {precision}-bit "
        f"precision can certify for {kind.value} at this argument; achieved "
        f"bound is {_nstr(certified.error_bound, 8)} at k = {k}; "
        f"raise the precision",
        best_bound=certified.error_bound,
        k_best=k,
    )


def ln_gamma(
    z, tol=None, *, terms=None, precision: int = DEFAULT_PRECISION
) -> CertifiedValue:
    """Certified ln Gamma(z) for real z > 0 via the Stirling/Binet series.

    value = (z - 1/2) ln z - z + ln(2 pi)/2 + partial sum; the remainder has
    sign (-1)^k and magnitude below the returned bound.
    """
    return _evaluate(SeriesKind.BINET_J, z, tol, terms, precision)


def ln_central_binomial(
    n: int, tol=None, *, terms=None, precision: int = DEFAULT_PRECISION
) -> CertifiedValue:
    """Certified ln C(2n, n) for a positive integer n.

    value = n ln 4 - ln(pi n)/2 + partial sum; remainder sign (-1)^(k+1).
    """
    return _evaluate(SeriesKind.CENTRAL_BINOMIAL, n, tol, terms, precision)


def ln_gamma_plus_half(
    z, tol=None, *, terms=None, precision: int = DEFAULT_PRECISION
) -> CertifiedValue:
    """Certified ln Gamma(z + 1/2) for real z > 0 (Gauss's expansion).

    value = z ln z - z + ln(2 pi)/2 + partial sum; remainder sign (-1)^(k+1).
    """
    return _evaluate(SeriesKind.GAMMA_PLUS_HALF, z, tol, terms, precision)


def ln_factorial_demoivre(
    n: int, tol=None, *, terms=None, precision: int = DEFAULT_PRECISION
) -> CertifiedValue:
    """Certified ln n! from de Moivre's series in powers of (n + 1/2).

    Pure relabeling of ``ln_gamma_plus_half`` at z = n + 1/2: the returned
    value is bit-identical to that evaluation at the same k.
    """
    return _evaluate(SeriesKind.DE_MOIVRE, n, tol, terms, precision)
