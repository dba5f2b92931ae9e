"""Working-precision plumbing for binary floating point with explicit P bits.

All inexact computation in this package runs on mpmath reals.  Public
functions take a precision ``P`` (bits), do their internal arithmetic at
``P + GUARD_BITS``, and round results back to ``P``.  Constants such as pi
and ln(2*pi) are therefore always carried with guard bits, which keeps the
floating-point contribution to any returned bound far below the widening
margin ``2**-(P-32)`` documented in :func:`relative_slop`.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .errors import DomainError

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
GUARD_BITS = 32

#: Environment variable the CLI consults for a default precision override.
PRECISION_ENV_VAR = "ENVASYM_PRECISION"


def working_bits(precision: int) -> int:
    """The working precision ``precision + GUARD_BITS`` of a P-bit result."""
    return precision + GUARD_BITS


def working(precision: int):
    """Context manager setting mpmath precision to ``working_bits(precision)``."""
    return mp.workprec(working_bits(precision))


def positive_real(x, precision: int, what: str) -> mpf:
    """``x`` at ``working_bits(precision)``; :class:`DomainError` unless finite and > 0."""
    try:
        with working(precision):
            xx = mp.convert(x)
        if mp.isfinite(xx) and xx > 0:
            return xx
    except (TypeError, ValueError, ArithmeticError):  # unparseable, complex, "1/0"
        pass
    raise DomainError(f"{what} must be a finite real > 0, got {x!r}")


def round_to(x, precision: int) -> mpf:
    """Round ``x`` to ``precision`` bits (round to nearest)."""
    with mp.workprec(precision):
        return +x


def relative_slop(precision: int) -> mpf:
    """Relative widening margin ``2**-(precision-32)`` applied to enclosures.

    The enveloping bounds are exact in exact arithmetic; every returned
    interval endpoint and error bound is widened outward by this relative
    margin so the containment guarantee survives rounding without full
    directed-rounding machinery.  The value is a power of two, so
    ``real_to_fraction`` gives it exactly for the rational checks.
    """
    return mpf(2) ** (32 - precision)


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
