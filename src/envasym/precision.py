"""Working-precision plumbing for binary floating point with explicit P bits.

Public functions take a precision ``P`` (bits), compute at ``working_bits(P)``
= ``P + GUARD_BITS`` and round results back to ``P``, so constants such as pi
and ln(2*pi) carry guard bits far below the series module's outward margin
``2**-(P-32) * |x|``.

Every number a caller passes is read by ``exact``, as the number it spells.
One rounder makes an exact value a float: ``_round`` rounds to nearest, down
or up, ``_quotient`` divides into it, and ``rounded`` is that quotient of two
integers.  z is rounded to nearest, ``tol`` and the coefficient table down,
the truncation search's bound up.  ``_product``, ``_quotient`` and ``_sum``
are exact integer arithmetic on (mantissa, exponent) pairs rounded to
nearest by it, so they have the bits of libmp's ``mpf_mul``, ``mpf_div`` and
``mpf_add``.  The series walk, the assembly of its enclosures and the
elementary prefixes call them, and the quadrature rounds its exact sums by
``_round``: a pair is the one number form of the certified path, ``_pair`` reads one from a libmp tuple and
``_to_mpf`` rounds one into the mpf the API returns.  ``_at_most`` compares
two pairs exactly, so a decision against a bound needs no mpf.  Error
messages print their numbers through ``_nstr``.

No module reads or sets mpmath's global ``mp.prec``.  Hot paths are pair
steps or libmp calls at an explicit precision; other code uses operators on
the numbers of ``_context(P)``, a private context at ``working_bits(P)``.  An
operator rounds at its left operand's context, so a global mpf goes through
``ctx.convert`` (exact) before any arithmetic, and results go back as global
mpf values, ``to_precision(x._mpf_, P)``.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.ctx_mp import MPContext
from mpmath.ctx_mp_python import _constant
from mpmath.libmp import from_man_exp, mpf_pos, round_floor, round_nearest, to_rational, to_str

from .errors import DomainError

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
GUARD_BITS = 32

#: Environment variable the CLI consults for a default precision override.
PRECISION_ENV_VAR = "ENVASYM_PRECISION"

#: Largest decimal exponent ``exact`` reads: building 10**|e| takes seconds beyond it.
EXPONENT_LIMIT = 100_000

#: Largest order the package takes or returns: the index ``min_term_index``
#: and ``auto_truncate`` return, an explicit ``terms=`` or k of ``term``,
#: ``partial_sum`` and ``envelope_interval``, the k of the oracle's
#: ``theta_ratio``, ``remainder_quadrature`` and ``coefficient_quadrature``,
#: and the k_max of the demo's scans.  An order above it raises
#: :class:`DomainError`: an explicit one at once, a searched one at once when
#: the float guess lies above it, else when the exact search passes it; either
#: way before any coefficient above the cap is built or any quadrature runs.
#: Building the coefficients up to the cap takes one to two seconds.
INDEX_CAP = 1000


def working_bits(precision: int) -> int:
    """The working precision ``precision + GUARD_BITS`` of a P-bit result."""
    return precision + GUARD_BITS


@functools.lru_cache(maxsize=16)
def _context(precision: int) -> MPContext:
    """A private mpmath context at ``working_bits(precision)``, never changed after."""
    ctx = MPContext()
    ctx.prec = working_bits(precision)
    return ctx


def convert(x, precision: int):
    """``mp.convert(x)`` at ``working_bits(precision)``, run in the private
    context of that precision, so the global ``mp.prec`` is never set.  A
    constant such as ``mp.pi`` is evaluated at that precision too, not at
    the one its own context holds."""
    if isinstance(x, _constant):
        return mp.make_mpf(x.func(working_bits(precision), round_nearest))
    value = _context(precision).convert(x)
    return mp.make_mpf(value._mpf_) if hasattr(value, "_mpf_") else mp.make_mpc(value._mpc_)


def checked_int(value, least: int, what: str) -> int:
    """value as an int, if an integer (``operator.index`` takes it; not a
    bool) >= least; ValueError otherwise."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an int >= {least}, got {value!r}")


def checked_index(k, what: str, least: int = 0) -> int:
    """k as an int in [least, INDEX_CAP]: ValueError below, DomainError above."""
    k = checked_int(k, least, what)
    if k > INDEX_CAP:
        raise DomainError(f"{what} must be at most the cap of {INDEX_CAP}, got {k}")
    return k


def checked_precision(precision) -> int:
    """precision, if an int (not a bool) >= MIN_PRECISION; ValueError otherwise.

    Unlike an index, a fixed-width integer such as numpy's is refused: a
    precision is passed on as given, into shifts and bit counts it overflows.
    """
    if isinstance(precision, int):
        return checked_int(precision, MIN_PRECISION, "precision")
    raise ValueError(f"precision must be an int >= {MIN_PRECISION}, got {precision!r}")


def exact(x, precision: int, what: str) -> Fraction:
    """The exact value of x, a finite real > 0 (else :class:`DomainError`):
    the decimal a string spells (its exponent within +-EXPONENT_LIMIT), or
    the value of an int (not a bool), float or mpf; a positive Fraction is
    returned as it is.  What ``Fraction`` refuses (an mpmath constant,
    "1 / 3", a numpy float32) counts as ``convert(x, precision)``."""
    if isinstance(x, Fraction) and x.numerator > 0:  # its denominator is positive
        return x
    if isinstance(x, str):
        digits = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if digits.isdecimal() and (len(digits) > 6 or int(digits) > EXPONENT_LIMIT):
            raise DomainError(f"the decimal exponent of the {what} must lie between "
                              f"-{EXPONENT_LIMIT} and {EXPONENT_LIMIT}, got {x!r}")
    try:
        try:
            value = Fraction(x)
        except (TypeError, ValueError):
            value = real_to_fraction(convert(x, precision))
        if value > 0 and not isinstance(x, bool):
            return value
    except (TypeError, ValueError, ArithmeticError):  # unparseable, complex, "inf", "1/0"
        pass
    raise DomainError(f"{what} must be a finite real > 0, got {x!r}")


def _round(m: int, e: int, bits: int, rounding: str) -> tuple:
    """m * 2**e rounded to ``bits`` bits, to nearest with ties to even, down
    or up (``round_nearest``, ``round_floor``, ``round_ceiling``), as a signed
    (mantissa, exponent) pair with the value libmp's ``from_man_exp`` gives.
    A mantissa of at most ``bits`` bits is kept; a carry leaves 2**bits."""
    n = m.bit_length() - bits
    if n <= 0:
        return m, e
    # Shifts and masks of a negative m act on its two's complement, so m >> n
    # is the floor of m / 2**n and the bits below it are its fraction.
    if rounding == round_nearest:
        h = m >> (n - 1)  # the kept bits and the half bit below them
        if h & 1 and (h & 2 or m & ((1 << (n - 1)) - 1)):
            h += 1
        return h >> 1, e + n
    if rounding == round_floor:
        return m >> n, e + n
    return -(-m >> n), e + n  # round_ceiling


def _product(a: tuple, b: tuple, wp: int) -> tuple:
    """a * b, rounded to nearest."""
    return _round(a[0] * b[0], a[1] + b[1], wp, round_nearest)


def _quotient(a: tuple, b: tuple, bits: int, rounding: str) -> tuple:
    """a / b (b nonzero), from a floor quotient q of at least bits + 2 bits
    and a sticky bit for a nonzero remainder, as ``mpf_div`` does: with a
    remainder the exact value lies strictly between 2q and 2q + 2, whatever
    the signs, and rounds as 2q + 1 does in every mode."""
    (am, ae), (bm, be) = a, b
    shift = bits + 2 + bm.bit_length() - am.bit_length()
    if shift >= 0:
        am <<= shift
    else:
        bm <<= -shift
    q, r = divmod(am, bm)
    return _round(2 * q + (r != 0), ae - be - shift - 1, bits, rounding)


def _sum(a: tuple, b: tuple, wp: int) -> tuple:
    """a + b, exact at the smaller exponent, then rounded to nearest, for
    addends of at most wp bits.  When one addend's top bit lies more than
    wp + 2 binades below the other's, it is below a quarter unit in the
    other's last place, so the other is the rounded sum, returned without
    aligning: at z = 1e100000 the aligned integers grow 660,000 bits a term."""
    (am, ae), (bm, be) = a, b
    if not am or not bm:
        return a if am else b
    gap = ae + am.bit_length() - be - bm.bit_length()
    if abs(gap) > wp + 2:
        return a if gap > 0 else b
    if ae > be:
        return _round((am << (ae - be)) + bm, be, wp, round_nearest)
    return _round(am + (bm << (be - ae)), ae, wp, round_nearest)


def _at_most(a: tuple, b: tuple) -> bool:
    """a <= b for pairs with nonnegative mantissas, decided exactly: on the
    binades of the top bits first, so a far exponent aligns no long integer."""
    (am, ae), (bm, be) = a, b
    if not am or not bm:
        return not am
    top = ae + am.bit_length() - be - bm.bit_length()
    if top:
        return top < 0
    return am << (ae - be) <= bm if ae >= be else am <= bm << (be - ae)


def _pair(x: tuple) -> tuple:
    """The signed (mantissa, exponent) pair of a finite libmp tuple
    (sign, mantissa, exponent, bit count)."""
    return (-x[1] if x[0] else x[1]), x[2]


def _to_mpf(x: tuple, bits: int) -> mpf:
    """A pair rounded to nearest at ``bits`` bits, as an mpf."""
    return mp.make_mpf(from_man_exp(*_round(*x, bits, round_nearest)))


def rounded(p: int, q: int, precision: int, rounding: str) -> mpf:
    """p / q (q > 0) rounded by ``rounding`` to a precision-bit float: one
    ``_quotient`` (``from_rational`` strips q's trailing zeros, in quadratic time)."""
    return mp.make_mpf(from_man_exp(*_quotient((p, 0), (q, 0), precision, rounding)))


def positive_real(x, precision: int, what: str) -> mpf:
    """``exact(x, precision, what)`` rounded to nearest at ``working_bits(precision)``."""
    value = exact(x, precision, what)
    return rounded(value.numerator, value.denominator, working_bits(precision), round_nearest)


def to_precision(x: tuple, precision: int) -> mpf:
    """Raw x rounded to nearest at ``precision`` bits, as an mpf."""
    return mp.make_mpf(mpf_pos(x, precision, round_nearest))


def _nstr(x, digits: int) -> str:
    """``mp.nstr(x, digits)`` of x rounded to nearest at 128 bits first, for
    the numbers of a message: the digits of a float much wider than that
    pass Python's 4,300-digit limit on int-to-str conversion."""
    return to_str(mpf_pos(x._mpf_, 128, round_nearest), digits)


def real_to_fraction(x: mpf) -> Fraction:
    """Exact rational value of a finite binary float (no re-rounding)."""
    if not (isinstance(x, mpf) and mp.isfinite(x)):
        raise ValueError(f"cannot convert {x!r} to a fraction")
    p, q = to_rational(x._mpf_)
    return Fraction(int(p), int(q))


def decimal_digits(precision: int) -> int:
    """Significant decimal digits used when serializing a P-bit value.

    ceil(P * 0.302), computed in integer arithmetic for reproducibility.
    """
    return (precision * 302 + 999) // 1000


def format_real(x: mpf, precision: int) -> str:
    """Deterministic full-precision decimal rendering of ``x``."""
    return mp.nstr(x, decimal_digits(precision), strip_zeros=False)
