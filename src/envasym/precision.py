"""Working-precision plumbing for binary floating point with explicit P bits.

All inexact computation in this package runs on mpmath reals.  Public
functions take a precision ``P`` (bits), do their internal arithmetic at
``P + GUARD_BITS``, and round results back to ``P``.  Constants such as pi
and ln(2*pi) are therefore always carried with guard bits, which keeps the
floating-point contribution to any returned bound far below the outward
widening margin ``2**-(P-32) * |x|`` of the series module.

No module reads or sets mpmath's global ``mp.prec``.  Hot paths are libmp
calls at an explicit precision; other code uses operators on the numbers of
``_context(P)``, a private context at ``working_bits(P)``.  An operator rounds
at its left operand's context, so a global mpf goes through ``ctx.convert``
(exact) before any arithmetic, and results go back as global mpf values,
``to_precision(x._mpf_, P)``.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.ctx_mp import MPContext
from mpmath.ctx_mp_python import _constant
from mpmath.libmp import mpf_pos, round_nearest, to_rational

from .errors import DomainError

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
GUARD_BITS = 32

#: Environment variable the CLI consults for a default precision override.
PRECISION_ENV_VAR = "ENVASYM_PRECISION"


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


def checked_precision(precision) -> int:
    """precision, if an int (not a bool) >= MIN_PRECISION; ValueError otherwise.

    Unlike an index, a fixed-width integer such as numpy's is refused: a
    precision is passed on as given, into shifts and bit counts it overflows.
    """
    if isinstance(precision, int):
        return checked_int(precision, MIN_PRECISION, "precision")
    raise ValueError(f"precision must be an int >= {MIN_PRECISION}, got {precision!r}")


def positive_real(x, precision: int, what: str) -> mpf:
    """``convert(x, precision)``; :class:`DomainError` unless finite and > 0
    (a bool is refused, not read as 0 or 1)."""
    try:
        xx = convert(x, precision)
        if not isinstance(x, bool) and mp.isfinite(xx) and xx > 0:
            return xx
    except (TypeError, ValueError, ArithmeticError):  # unparseable, complex, "1/0"
        pass
    raise DomainError(f"{what} must be a finite real > 0, got {x!r}")


def to_precision(x: tuple, precision: int) -> mpf:
    """Raw x rounded to nearest at ``precision`` bits, as an mpf."""
    return mp.make_mpf(mpf_pos(x, precision, round_nearest))


def real_to_fraction(x: mpf) -> Fraction:
    """Exact rational value of a finite binary float (no re-rounding)."""
    if not mp.isfinite(x):
        raise ValueError("cannot convert non-finite value to a fraction")
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
