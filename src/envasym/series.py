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

``term``, ``partial_sum``, ``envelope_interval``, ``min_term_index`` and
``auto_truncate`` operate on the series tail itself; ``ln_gamma``,
``ln_central_binomial``, ``ln_gamma_plus_half`` and ``ln_factorial_demoivre``
add the elementary prefix and return a :class:`CertifiedValue` for the full
function.

``min_term_index`` and ``auto_truncate`` decide on z and ``tol`` as the
numbers they spell (see ``_exact``): exact rational checks walk from a float
estimate of the index, so the index is the one a scan from k = 0 would give,
and it does not depend on the precision.  Indices above ``INDEX_CAP``, and
decimal strings whose exponent lies outside ``+-EXPONENT_LIMIT``, are
rejected with :class:`DomainError`.

Rigor contract: the mathematical bounds are exact in exact arithmetic;
computed endpoints and bounds are widened outward by ``2**-(P-32) * |x|``, x
the endpoint or value widened, so that containment survives rounding at P
bits.  Every step is a libmp call at an explicit precision; none sets ``mp.prec``.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (
    fhalf,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
)

from . import coeffs
from ._expansions import EXPANSIONS, Expansion
from .errors import DomainError, ToleranceUnattainable
from .precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    positive_real,
    real_to_fraction,
    to_precision,
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

#: Largest index ``min_term_index`` and ``auto_truncate`` return.  An input
#: whose index lies above it raises :class:`DomainError`: at once when the
#: float guess lies above it, before any coefficient is built, else when the
#: exact search passes it.  Building the coefficients up to the cap takes one
#: to two seconds; explicit ``terms=`` are not capped.
INDEX_CAP = 1000

#: Largest decimal exponent of a string the searches read exactly; beyond it,
#: building 10**|e| takes seconds to minutes.  ``terms=`` has no such limit.
EXPONENT_LIMIT = 100_000


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

    ``bound`` is the magnitude of the first omitted term; hi - lo equals it
    up to the documented rounding slop.  For real z > 0 the true tail value
    lies in [lo, hi].
    """

    lo: mpf
    hi: mpf
    k_used: int
    bound: mpf
    precision: int

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


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
        other = mp.make_mpf((mpf_add if self.error_sign > 0 else mpf_sub)(
            self.value._mpf_, self.error_bound._mpf_, working_bits(self.precision), round_nearest))
        if self.error_sign > 0:
            return self.value, other
        return other, self.value

    def contains(self, x) -> bool:
        lo, hi = self.interval()
        return lo <= x <= hi


def _checked_argument(kind: SeriesKind, z, precision: int) -> mpf:
    """Convert and validate z, applying the half shift where the kind wants it."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}")
    zz = positive_real(z, precision, "series argument")
    if kind.row.half_shift:
        zz = mp.make_mpf(mpf_add(zz._mpf_, fhalf, working_bits(precision), round_nearest))
    return zz


def _widened(size: tuple, wp: int, precision: int) -> tuple:
    """size (1 + 2**-(precision-32)) at wp bits, one rounding as in the product."""
    return mpf_add(size, mpf_shift(size, 32 - precision), wp, round_nearest)


def term(kind: SeriesKind, j: int, z, precision: int = DEFAULT_PRECISION) -> mpf:
    """The signed j-th term of the expansion at working precision."""
    if j < 0:
        raise ValueError("term index must be >= 0")
    zz = _checked_argument(kind, z, precision)
    return to_precision(_signed_term(kind.row, j, zz, working_bits(precision))._mpf_,
                         precision)


@functools.lru_cache(maxsize=8192)
def _rounded_coefficient(family: str, j: int, prec: int) -> tuple:
    """c(j) of one coefficient family as a raw mpf of ``prec`` bits, rounded
    down (toward zero, as ``mp.convert`` rounds a Fraction, so the sums have
    the bits they had when every term converted its coefficient).  An entry
    takes about 0.4 KB up to 544 bits, so a full table takes about 3 MB."""
    c = coeffs.COEFFICIENT_FAMILIES[family](j)
    return _rounded(c.numerator, c.denominator, prec, round_floor)._mpf_


def _signed_term(row: Expansion, j: int, zz: mpf, prec: int) -> mpf:
    """sign(j) * c(j) / zz^(2j+1) at ``prec`` bits; zz is already shifted."""
    term = mpf_div(_rounded_coefficient(row.coefficients, j, prec),
                   mpf_pow_int(zz._mpf_, 2 * j + 1, prec, round_nearest),
                   prec, round_nearest)
    return mp.make_mpf(term if row.sign(j) > 0 else mpf_neg(term))


def partial_sum(kind: SeriesKind, z, k: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """Sum of the first k terms (an empty sum for k = 0)."""
    if k < 0:
        raise ValueError("term count must be >= 0")
    zz = _checked_argument(kind, z, precision)
    return to_precision(_partial_sum_at(kind.row, zz, k, working_bits(precision))._mpf_,
                         precision)


def _partial_sum_at(row: Expansion, zz: mpf, k: int, prec: int) -> mpf:
    """Sum of the first k terms at ``prec`` bits; zz is already shifted.

    Each operation rounds to nearest at ``prec``, whatever ``mp.prec`` is.
    """
    family, x = row.coefficients, zz._mpf_
    x2 = mpf_mul(x, x, prec, round_nearest)
    total, power = fzero, x
    for j in range(k):
        term = mpf_div(_rounded_coefficient(family, j, prec), power, prec, round_nearest)
        total = (mpf_add if row.sign(j) > 0 else mpf_sub)(
            total, term, prec, round_nearest)
        power = mpf_mul(power, x2, prec, round_nearest)
    return mp.make_mpf(total)


def _sum_and_term(kind: SeriesKind, z, k: int, precision: int) -> tuple:
    """Raw (x, s_k, t_k) for the checked argument at the working precision wp, and wp."""
    if k < 0:
        raise ValueError("term count must be >= 0")
    zz, wp = _checked_argument(kind, z, precision), working_bits(precision)
    return (zz._mpf_, _partial_sum_at(kind.row, zz, k, wp)._mpf_,
            _signed_term(kind.row, k, zz, wp)._mpf_, wp)


def envelope_interval(
    kind: SeriesKind, z, k: int, precision: int = DEFAULT_PRECISION
) -> EnvelopeInterval:
    """Enclosure of the series tail between partial sums k and k+1.

    Valid for every k >= 0, not only below the minimum-term index: the
    remainder always lies strictly between consecutive partial sums.
    """
    _, s_k, t_k, wp = _sum_and_term(kind, z, k, precision)
    s_next = mpf_add(s_k, t_k, wp, round_nearest)
    lo, hi = (s_k, s_next) if mpf_le(s_k, s_next) else (s_next, s_k)
    # lo <= hi, so hi or -lo is the larger magnitude; the margin is it times 2**-(P-32).
    pad = mpf_shift(hi if mpf_gt(hi, mpf_neg(lo)) else mpf_neg(lo), 32 - precision)
    return EnvelopeInterval(
        lo=to_precision(mpf_sub(lo, pad, wp, round_nearest), precision),
        hi=to_precision(mpf_add(hi, pad, wp, round_nearest), precision),
        k_used=k,
        bound=to_precision(_widened(mpf_abs(t_k), wp, precision), precision),
        precision=precision,
    )


def _exact(x, precision: int, what: str) -> Fraction:
    """The exact value of x, which must be a finite real > 0: the decimal a
    string spells (its exponent within +-EXPONENT_LIMIT), or the value of an
    int, Fraction, float or mpf.  Other types, and strings only mpmath reads,
    count as mpmath converts them at ``precision``."""
    if isinstance(x, str):
        digits = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if digits.isdecimal() and (len(digits) > 6 or int(digits) > EXPONENT_LIMIT):
            raise DomainError(f"the decimal exponent of the {what} must lie between "
                              f"-{EXPONENT_LIMIT} and {EXPONENT_LIMIT}, got {x!r}")
    try:
        exact = Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        exact = real_to_fraction(positive_real(x, precision, what))
    if exact <= 0:
        raise DomainError(f"{what} must be a finite real > 0, got {x!r}")
    return exact


def _exact_argument(kind: SeriesKind, z, precision: int) -> Fraction:
    """The exact value of z, shifted by 1/2 where the kind wants it."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}")
    xf = _exact(z, precision, "series argument")
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
    ln c(k); ``INDEX_CAP + 1`` when neither holds up to the cap.
    """
    ln_c = functools.partial(coeffs.log_estimate, kind.row.coefficients)
    ln_x = _ln(xf)

    def holds(k):
        return (ln_c(k + 1) - ln_c(k) >= 2 * ln_x
                or ln_tol is not None and ln_c(k) - (2 * k + 1) * ln_x <= ln_tol)

    return bisect.bisect_left(range(INDEX_CAP + 1), True, key=holds)


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

    Decided at z as the number it spells (see ``_exact``), so the index does
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


def _rounded(p: int, q: int, precision: int, rounding: str) -> mpf:
    """p / q > 0 rounded by ``rounding`` (round_floor or round_ceiling) to a
    precision-bit float, with one integer division; ``from_rational`` would
    strip q's trailing zero bits, in time quadratic in their count."""
    # The quotient below has at least `precision` bits, so its floor or
    # ceiling is on a grid nested in the precision-bit one and rounding twice
    # is exact.
    shift = precision + q.bit_length() - p.bit_length()
    num, den = (p << shift, q) if shift >= 0 else (p, q << -shift)
    quotient = num // den if rounding == round_floor else -(-num // den)
    return mp.make_mpf(from_man_exp(quotient, -shift, precision, rounding))


def _tolerance(tol, precision: int) -> mpf:
    """The exact value of ``tol`` (see ``_exact``) rounded down to ``precision``
    bits.  A precision-bit bound is at most ``tol`` exactly when it is at
    most this value, so the stop decisions compare against it."""
    exact = _exact(tol, precision, "tolerance")
    return _rounded(exact.numerator, exact.denominator, precision, round_floor)


def auto_truncate(
    kind: SeriesKind, z, tol, precision: int = DEFAULT_PRECISION
) -> tuple[int, mpf]:
    """Smallest k (at or below the minimum-term index) with |term(k)| <= tol.

    Returns ``(k, bound)`` where ``bound`` is the slop-widened magnitude of
    the first omitted term at z as the number it spells (see ``_exact``),
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
    index when ``tol`` is met first.
    """
    xf = _exact_argument(kind, z, precision)
    tol = _tolerance(tol, precision)
    # The bound c(k) (1 + slop) / x^(2k+1), as one integer ratio.
    slop = Fraction(1, 2 ** (precision - 32))
    bounds = {}

    def settled(k):
        c, power = kind.row.coefficient(k), 2 * k + 1
        bounds[k] = _rounded(
            c.numerator * (slop.denominator + slop.numerator) * xf.denominator**power,
            c.denominator * slop.denominator * xf.numerator**power, precision, round_ceiling)
        return bounds[k] <= tol or _turns(kind.row, xf, k)

    k = _least(settled, _guess(kind, xf, _ln(real_to_fraction(tol))))
    if k is None:
        raise DomainError(f"tolerance {mp.nstr(tol, 8)} for {kind.value} at "
                          f"this argument needs a truncation index above the cap "
                          f"of {INDEX_CAP}")
    bound = bounds[k]
    if bound <= tol:
        return k, bound
    raise ToleranceUnattainable(
        f"tolerance {mp.nstr(tol, 8)} is below the accuracy floor of "
        f"{kind.value} at this argument; best achievable bound is "
        f"{mp.nstr(bound, 8)} at k = {k}",
        best_bound=bound,
        k_best=k,
    )


def _certified(kind: SeriesKind, z, k: int, precision: int) -> CertifiedValue:
    x, s_k, t_k, wp = _sum_and_term(kind, z, k, precision)
    value = mpf_add(kind.row.prefix(x, wp), s_k, wp, round_nearest)
    sign = kind.row.sign(k)
    # Pull the anchor outward by 2**-(P-32) |value| and widen the bound by twice
    # that (exact shifts), so the containment survives rounding of value itself.
    size = mpf_abs(value)
    anchored = (mpf_sub if sign > 0 else mpf_add)(
        value, mpf_shift(size, 32 - precision), wp, round_nearest)
    bound = mpf_add(_widened(mpf_abs(t_k), wp, precision), mpf_shift(size, 33 - precision),
                    wp, round_nearest)
    return CertifiedValue(
        value=to_precision(anchored, precision),
        error_bound=to_precision(bound, precision),
        error_sign=sign,
        k_used=k,
        precision=precision,
    )


def _evaluate(kind: SeriesKind, z, tol, terms, precision: int) -> CertifiedValue:
    """The certified value behind the four ``ln_*`` functions.

    With a tolerance (``1e-12`` when neither it nor ``terms`` is given) the
    returned bound is at most ``tol``.  Rounding adds ``2 * slop * |value|``
    to the series bound; when that pushes it above ``tol``, precision rather
    than the series is the limit, and :class:`ToleranceUnattainable` says so.
    """
    if kind.row.integer_argument and (not isinstance(z, int) or isinstance(z, bool) or z < 1):
        raise DomainError(f"n must be a positive integer, got {z!r}")
    if terms is not None and tol is not None:
        raise ValueError("pass either tol or terms, not both")
    if terms is not None:
        if terms < 0:
            raise ValueError("terms must be >= 0")
        return _certified(kind, z, terms, precision)
    if tol is None:
        tol = _DEFAULT_TOL
    k, _ = auto_truncate(kind, z, tol, precision)
    certified = _certified(kind, z, k, precision)
    tol = _tolerance(tol, precision)
    if certified.error_bound > tol:
        raise ToleranceUnattainable(
            f"tolerance {mp.nstr(tol, 8)} is below what {precision}-bit "
            f"precision can certify for {kind.value} at this argument; achieved "
            f"bound is {mp.nstr(certified.error_bound, 8)} at k = {k}; "
            f"raise the precision",
            best_bound=certified.error_bound,
            k_best=k,
        )
    return certified


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
