"""Independent ground truth: exact combinatorics and high-precision quadrature.

Everything the series side of the package claims can be cross-checked here
through a different route.  Logarithms of factorials, central binomial
coefficients and half-integer Gamma values come from exact big-integer
arithmetic; Binet's function, the series remainders and the damping ratios
come from numerical quadrature of their integral representations over
(0, inf).

The three integrand weights are

* ``theta``        -ln(1 - exp(-2*pi*eta))   (Binet / ln Gamma),
* ``theta-tilde``  ln(coth(pi*eta))          (central binomial),
* ``theta-hat``    ln(1 + exp(-2*pi*eta))    (ln Gamma(z + 1/2), de Moivre),

all strictly positive on (0, inf), which is the whole reason the series
envelop their functions.  Note the exponent in the first weight really is
e**(-2*pi*eta); a well-known misprint in some references has 2**(-2*pi*eta).

Quadrature results are trustworthy rather than certified: each value carries
an a-posteriori error estimate (the difference of the last two refinement
levels), not a proven bound.  Certification is the job of the series module.
The quadrature's node loop is libmp calls at an explicit precision; the
wrappers around it and the exact logarithms are operators in the private
context of the precision (see :mod:`envasym.precision`).  Apart from
``ThetaFamily.weight``, which rounds to the ambient precision, nothing reads
or sets ``mp.prec``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_float,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cosh_sinh,
    mpf_div,
    mpf_exp,
    mpf_le,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from ._expansions import WEIGHTS
from .errors import QuadratureNonConvergence
from .precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    _context,
    positive_real,
    to_precision,
    working_bits,
)

__all__ = [
    "QuadratureSpec",
    "ThetaFamily",
    "exact_ln_factorial",
    "exact_ln_central_binomial",
    "exact_ln_gamma_half",
    "binet_J",
    "binet_J_tilde",
    "theta_ratio",
    "remainder_quadrature",
    "coefficient_quadrature",
]


class ThetaFamily(enum.Enum):
    """One positive integrand weight per expansion; ``row`` is its table row."""

    THETA = "theta"
    THETA_TILDE = "theta-tilde"
    THETA_HAT = "theta-hat"

    def __init__(self, name: str):
        self.row = WEIGHTS[name]

    def weight(self, eta) -> mpf:
        """The family's weight at eta > 0, rounded to the ambient ``mp.prec``.

        The quadrature calls ``_weight`` at an explicit precision instead;
        this is that function at ``mp.prec``, for callers of the ambient
        context.
        """
        return mp.make_mpf(_weight(self, mp.convert(eta)._mpf_, mp.prec))


# Bits a weight's intermediate values carry beyond the precision it returns.
_WEIGHT_GUARD = 10


def _log1p(x: tuple, wp: int) -> tuple:
    """Raw ln(1 + x) for raw x > -1, rounded to nearest at wp bits.

    Where x*x/3 is below 2**-(wp+2*_WEIGHT_GUARD), x - x*x/2 is the value;
    it never rounds to 0 however small x is.  Elsewhere 1 + x is formed
    exactly, and ``mpf_log`` adds the bits its cancellation near 1 costs.
    """
    if x[2] + x[3] < -(wp // 2 + _WEIGHT_GUARD):
        return mpf_sub(x, mpf_shift(mpf_mul(x, x, wp, round_nearest), -1), wp, round_nearest)
    return mpf_log(mpf_add(fone, x), wp, round_nearest)


def _weight(family: ThetaFamily, eta: tuple, wp: int) -> tuple:
    """The family's weight at raw eta > 0, rounded to nearest at wp bits.

    With u = 2 pi eta and q = e^(-u) the weights are theta = -ln(1 - q),
    theta-hat = ln(1 + q) and theta-tilde = ln(1 + 2q/(1 - q)), each one
    logarithm of a quantity known to ``_WEIGHT_GUARD`` bits more than wp, so
    the result is within about one rounding at wp bits.  u carries as many
    bits again as its integer part, so that q keeps them at large eta; q,
    which reaches 2**-(10**12) in the tails, never rounds to 0.  Below
    u = 1, 1 - q cancels about -log2(u) bits, so q carries that many more,
    and once u*u is negligible 1 - q is u - u*u/2.
    """
    g = wp + _WEIGHT_GUARD
    pu = g + max(eta[2] + eta[3] + 3, 0)  # u < 2**(mag(eta) + 3)
    u = mpf_mul(mpf_pi(pu, round_nearest), mpf_shift(eta, 1), pu, round_nearest)
    mag = u[2] + u[3]
    if mag < -(g // 2):
        q = mpf_sub(fone, u, g, round_nearest)
        one_minus_q = mpf_sub(u, mpf_shift(mpf_mul(u, u, g, round_nearest), -1), g, round_nearest)
    else:
        q = mpf_exp(mpf_neg(u), g - min(mag, 0), round_nearest)
        one_minus_q = mpf_sub(fone, q, g, round_nearest)
    if family is ThetaFamily.THETA_HAT:
        return _log1p(q, wp)
    if family is ThetaFamily.THETA_TILDE:
        return _log1p(mpf_div(mpf_shift(q, 1), one_minus_q, g, round_nearest), wp)
    if mag <= 0:  # u < 1: 1 - q <= 1 - 1/e, far from 1
        return mpf_neg(mpf_log(one_minus_q, wp, round_nearest))
    return mpf_neg(_log1p(mpf_neg(q), wp))


@dataclass(frozen=True)
class QuadratureSpec:
    """The working precision of a quadrature, in bits.

    Refinement stops when two levels agree to ``effective_tol()``, the floor
    ``2**-(precision-32)``, which is as much as precision-P arithmetic can
    honestly resolve, or raises after ``_MAX_LEVELS`` levels.
    """

    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION}")

    def effective_tol(self) -> mpf:
        return mp.make_mpf(mpf_shift(fone, 32 - self.precision))


_DEFAULT_SPEC = QuadratureSpec()

# Refinement levels before a quadrature gives up.
_MAX_LEVELS = 20

# Stop extending a tail once this many consecutive transformed-integrand
# values fall below the running-sum threshold; guards against a lone
# accidental small value.
_TAIL_RUN = 2
_TAIL_CAP = 10**7

# A row is [eta, cosh t, eta**2, W per family]; these are the W columns.
_COLUMNS = {family: column for column, family in enumerate(ThetaFamily, start=3)}


class _NodeTable:
    """The z-free node values of one working precision, keyed by the exact t.

    A row holds eta = exp(lam*sinh t), cosh t and eta**2, free of z and
    shared by the three families, then one W(t) = weight(eta)*lam*cosh(t)*eta
    per family, filled when first needed, all as the raw libmp tuples
    (``mpf._mpf_``) the quadrature computed.  Every quadrature fills its
    family's W in the rows that exist, but only a family's second and later
    quadratures at this precision create rows, so a one-off call leaves
    nothing behind.
    Every stored value is a pure function of (t, precision, family), so a
    slot two quadratures fill at once holds the same number either way.
    """

    def __init__(self):
        self.rows: dict[float, list] = {}
        # next() on a count is atomic, so no quadrature is counted twice.
        self._quadratures = {family: itertools.count() for family in ThetaFamily}

    def storing(self, family: ThetaFamily) -> bool:
        """Count one quadrature of the family; True from the second on."""
        return next(self._quadratures[family]) > 0


def _negligible(term, total, wp: int) -> bool:
    """|term| <= 2**-wp * |total| for raw mpf tuples.

    A zero term is negligible.  Otherwise it is decided from the magnitudes
    (exponent plus bit count) unless they lie exactly wp binades apart; only
    then are the values compared.
    """
    if term == fzero:
        return True
    gap = (total[2] + total[3]) - (term[2] + term[3])
    if gap != wp:
        return gap > wp
    return mpf_le(mpf_abs(term), mpf_shift(mpf_abs(total), -wp))


@lru_cache(maxsize=4)
def _node_table(precision: int) -> _NodeTable:
    return _NodeTable()


def _de_quad_half_line(family: ThetaFamily, factor, spec: QuadratureSpec):
    """Integrate factor(eta, eta**2) * weight(eta) over (0, inf), double-exponentially.

    Substitutes eta = exp((pi/2) * sinh(t)) and applies the trapezoid rule in
    t with dyadic step refinement, reusing previous levels.  Refinement stops
    when two successive levels agree to the spec's relative tolerance; the
    returned error is that last inter-level difference.  The infinite tails
    are truncated where the transformed integrand falls to 2**-(P+32) of the
    running sum, however small the sum; eta = 0 is never sampled, so
    integrable endpoint singularities need no special casing.

    The node value at t is factor(eta, eta**2) * W(t), with
    W(t) = weight(eta) * (pi/2) * cosh(t) * eta.  These z-free values are
    read from the precision's node table where stored, and computed
    otherwise (see ``_NodeTable`` for what is stored when).  ``factor`` maps
    a raw libmp eta and its square to a raw value at ``working_bits(P)``.
    Every operation, the weight's included, is a libmp call at that
    precision, rounding to nearest.

    Returns (value, error_estimate) as mpf at working precision.  Raises
    QuadratureNonConvergence if the level cap is hit first.
    """
    prec = spec.precision
    wp = working_bits(prec)
    table = _node_table(prec)
    rows = table.rows
    column = _COLUMNS[family]
    store = table.storing(family)
    lam = mpf_shift(mpf_pi(wp, round_nearest), -1)
    target = spec.effective_tol()._mpf_

    def g(t: float):
        # t is dyadic, so the float key and its conversion are exact
        row = rows.get(t)
        if row is None:
            cosh, sinh = mpf_cosh_sinh(from_float(t), wp, round_nearest)
            eta = mpf_exp(mpf_mul(lam, sinh, wp, round_nearest), wp, round_nearest)
            eta2 = mpf_mul(eta, eta, wp, round_nearest)
            w = None
            if store:
                row = rows.setdefault(t, [eta, cosh, eta2, None, None, None])
        else:
            eta, cosh, eta2 = row[:3]
            w = row[column]
        if w is None:
            w = _weight(family, eta, wp)
            for x in (lam, cosh, eta):
                w = mpf_mul(w, x, wp, round_nearest)
            if row is not None:
                row[column] = w
        return mpf_mul(factor(eta, eta2), w, wp, round_nearest)

    def half_sums(h, start, step):
        # sum of g(j*h) over j = start, start+step, ... on both sides of 0
        total = fzero
        for sgn in (1, -1):
            j = start
            run = 0
            while True:
                term = g(sgn * j * h)
                total = mpf_add(total, term, wp, round_nearest)
                if _negligible(term, total, wp):
                    run += 1
                    if run >= _TAIL_RUN:
                        break
                else:
                    run = 0
                j += step
                if j > _TAIL_CAP:
                    raise QuadratureNonConvergence(
                        "tail truncation cap exceeded", value=mp.make_mpf(total)
                    )
        return total

    h = 1.0
    estimate = mpf_add(g(0.0), half_sums(h, 1, 1), wp, round_nearest)
    previous = None
    for level in range(1, _MAX_LEVELS + 1):
        h = h / 2
        # estimate/2 + h * (sum over the new nodes), with h = 2**-level
        estimate = mpf_add(mpf_shift(estimate, -1),
                           mpf_shift(half_sums(h, 1, 2), -level), wp, round_nearest)
        if previous is not None:
            err = mpf_abs(mpf_sub(estimate, previous, wp, round_nearest))
            if mpf_le(err, mpf_mul(target, mpf_abs(estimate), wp, round_nearest)):
                return mp.make_mpf(estimate), mp.make_mpf(err)
        previous = estimate
    raise QuadratureNonConvergence(
        f"no convergence within {_MAX_LEVELS} refinement levels",
        value=mp.make_mpf(estimate),
        error=None if previous is None else mp.make_mpf(
            mpf_abs(mpf_sub(estimate, previous, wp, round_nearest))),
    )


@lru_cache(maxsize=None)
def _moment_integral(family: ThetaFamily, k: int, spec: QuadratureSpec):
    """(value, err) of  integral eta^(2k) * weight(eta) deta  over (0, inf)."""
    wp = working_bits(spec.precision)
    return _de_quad_half_line(
        family, lambda eta, eta2: mpf_pow_int(eta, 2 * k, wp, round_nearest), spec
    )


# Bounded, as it is keyed by every z seen; 1024 entries hold a demo scan's
# grid for its perturbed and control passes many times over.
@lru_cache(maxsize=1024)
def _damped_moment_integral(family: ThetaFamily, k: int, z: mpf, spec: QuadratureSpec):
    """(value, err) of  integral eta^(2k)/(z^2+eta^2) * weight(eta) deta."""
    wp = working_bits(spec.precision)
    # z is rounded to wp bits before it is squared
    z2 = mpf_pow_int(mpf_pos(z._mpf_, wp, round_nearest), 2, wp, round_nearest)

    def factor(eta, eta2):
        return mpf_div(
            mpf_pow_int(eta, 2 * k, wp, round_nearest),
            mpf_add(z2, eta2, wp, round_nearest),
            wp, round_nearest,
        )

    return _de_quad_half_line(family, factor, spec)


def _finish(value, err, spec: QuadratureSpec, error: bool):
    """value, or (value, err) with error, each rounded to the spec's precision."""
    value = to_precision(value._mpf_, spec.precision)
    if error:
        return value, to_precision(err._mpf_, spec.precision)
    return value


def _ln_int(n: int, precision: int):
    """ln(n) in the private context of the precision, n rounded to its bits first."""
    ctx = _context(precision)
    return ctx.log(ctx.mpf(n))


def exact_ln_factorial(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln(n!) from the exact big integer, correct to the stated precision."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return to_precision(_ln_int(math.factorial(n), precision)._mpf_, precision)


def exact_ln_central_binomial(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln C(2n, n) from the exact big-integer binomial coefficient."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return to_precision(_ln_int(math.comb(2 * n, n), precision)._mpf_, precision)


def exact_ln_gamma_half(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln Gamma(n + 1/2) via the duplication formula.

    Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), so the result is assembled
    from exact integers plus ln(pi) at working precision.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ctx = _context(precision)
    value = (_ln_int(math.factorial(2 * n), precision) - _ln_int(math.factorial(n), precision)
             - 2 * n * ctx.log(2) + ctx.log(ctx.pi) / 2)
    return to_precision(value._mpf_, precision)


def _remainder(family: ThetaFamily, k: int, z, spec: QuadratureSpec):
    """(remainder, error): sign(k) z / (pi z^(2k)) times the damped moment integral."""
    zz = positive_real(z, spec.precision, "argument")
    value, err = _damped_moment_integral(family, k, zz, spec)
    ctx = _context(spec.precision)
    x = ctx.convert(zz)
    scale = x / (ctx.pi * x ** (2 * k))
    return family.row.sign(k) * scale * value, scale * err


def binet_J(z, spec: QuadratureSpec = _DEFAULT_SPEC, *, error: bool = False):
    """Binet's function J(z) = (z/pi) * integral of weight/(z^2+eta^2).

    J(z) is the correction term in Stirling's formula:
    ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + J(z).
    """
    return _finish(*_remainder(ThetaFamily.THETA, 0, z, spec), spec, error)


def binet_J_tilde(z, spec: QuadratureSpec = _DEFAULT_SPEC, *, error: bool = False):
    """The central-binomial correction J~(z) = J(2z) - 2 J(z), by quadrature.

    Computed directly from its own integral representation
    -(z/pi) * integral of ln(coth(pi eta))/(z^2+eta^2), i.e. the k = 0
    remainder of the central-binomial series, not from two J evaluations.
    """
    return _finish(*_remainder(ThetaFamily.THETA_TILDE, 0, z, spec), spec, error)


def theta_ratio(
    family: ThetaFamily,
    k: int,
    z,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    *,
    error: bool = False,
):
    """Ratio of the damped to the undamped moment integral; lies in (0, 1).

    This ratio is exactly the fraction of the first omitted term that the
    true remainder amounts to, so its containment in (0, 1) is the
    enveloping property itself.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    zz = positive_real(z, spec.precision, "argument")
    ctx = _context(spec.precision)
    num, num_err = map(ctx.convert, _damped_moment_integral(family, k, zz, spec))
    den, den_err = map(ctx.convert, _moment_integral(family, k, spec))
    x = ctx.convert(zz)
    value = x * x * num / den
    err = abs(value) * (num_err / abs(num) + den_err / abs(den))
    return _finish(value, err, spec, error)


def remainder_quadrature(
    family: ThetaFamily,
    k: int,
    z,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    *,
    error: bool = False,
):
    """Signed truncation remainder after k terms, from its integral form.

    Its sign is ``family.row.sign(k)``.  The k = 0 remainder is the whole
    correction function.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _finish(*_remainder(family, k, z, spec), spec, error)


def coefficient_quadrature(
    family: ThetaFamily,
    k: int,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    *,
    error: bool = False,
):
    """The k-th series coefficient as (1/pi) times a moment integral.

    Independent of the Bernoulli-number route in :mod:`envasym.coeffs`; the
    two must agree, and the test suite holds them to it.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    value, err = _moment_integral(family, k, spec)
    inv_pi = 1 / _context(spec.precision).pi
    return _finish(inv_pi * value, inv_pi * err, spec, error)
