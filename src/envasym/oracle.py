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
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import (
    from_float,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cosh_sinh,
    mpf_div,
    mpf_exp,
    mpf_le,
    mpf_mul,
    mpf_pi,
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
    positive_real,
    round_to,
    working,
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

    def weight(self, eta: mpf) -> mpf:
        """Evaluate the family's weight at eta > 0, at the ambient precision.

        Each weight keeps full relative precision at both ends of the range:
        expm1 avoids the 1 - e^(-u) cancellation as eta -> 0, and log1p or
        atanh forms avoid the log-near-one absolute-error floor as
        eta -> infinity (which moment factors eta^(2k) would amplify).
        """
        if self is ThetaFamily.THETA:
            # -ln(1 - e^(-2 pi eta))
            u = 2 * mp.pi * eta
            if u < 1:
                return -mp.log(-mp.expm1(-u))
            return -mp.log1p(-mp.exp(-u))
        if self is ThetaFamily.THETA_TILDE:
            # ln(coth(pi eta)) = 2 artanh(e^(-2 pi eta))
            if eta <= 1:
                return mp.log(mp.coth(mp.pi * eta))
            return 2 * mp.atanh(mp.exp(-2 * mp.pi * eta))
        return mp.log1p(mp.exp(-2 * mp.pi * eta))


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
        return mpf(2) ** (32 - self.precision)


_DEFAULT_SPEC = QuadratureSpec()

# Refinement levels before a quadrature gives up.
_MAX_LEVELS = 20

# Stop extending a tail once this many consecutive transformed-integrand
# values fall below the running-sum threshold; guards against a lone
# accidental small value.
_TAIL_RUN = 2
_TAIL_CAP = 10**7

_COLUMNS = {family: column for column, family in enumerate(ThetaFamily, start=1)}


class _NodeTable:
    """The z-free node values of one working precision, keyed by the exact t.

    A row holds eta = exp(lam*sinh t), shared by the three families, then one
    W(t) = weight(eta)*lam*cosh(t)*eta per family, filled when first needed,
    all as the raw libmp tuples (``mpf._mpf_``) the quadrature computed.  A
    family stores nothing during its first quadrature at this precision, so
    a one-off call leaves nothing behind.
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
    """|term| <= 2**-wp * |total| for nonzero raw mpf tuples.

    Decided from the magnitudes (exponent plus bit count) unless they lie
    exactly wp binades apart; only then are the values compared.
    """
    gap = (total[2] + total[3]) - (term[2] + term[3])
    if gap != wp:
        return gap > wp
    return mpf_le(mpf_abs(term), mpf_shift(mpf_abs(total), -wp))


@lru_cache(maxsize=4)
def _node_table(precision: int) -> _NodeTable:
    return _NodeTable()


def _de_quad_half_line(family: ThetaFamily, factor, spec: QuadratureSpec):
    """Integrate factor(eta) * weight(eta) over (0, inf), double-exponentially.

    Substitutes eta = exp((pi/2) * sinh(t)) and applies the trapezoid rule in
    t with dyadic step refinement, reusing previous levels.  Refinement stops
    when two successive levels agree to the spec's relative tolerance; the
    returned error is that last inter-level difference.  The infinite tails
    are truncated where the transformed integrand falls to 2**-(P+32) of the
    running sum, however small the sum; eta = 0 is never sampled, so
    integrable endpoint singularities need no special casing.

    The node value at t is factor(eta) * W(t), where the z-free part
    W(t) = weight(eta) * (pi/2) * cosh(t) * eta and eta itself are read from
    the precision's node table when an earlier quadrature stored them, and
    computed otherwise.  ``factor`` maps a raw libmp eta to a raw value at
    ``working_bits(P)``.  Every operation is a libmp call at that precision,
    rounding to nearest, so the loop reads no ``mp.prec``; only a cold W's
    weight runs in mpmath's context.

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
        if row is not None and row[column] is not None:
            return mpf_mul(factor(row[0]), row[column], wp, round_nearest)
        cosh, sinh = mpf_cosh_sinh(from_float(t), wp, round_nearest)
        if row is None:
            eta = mpf_exp(mpf_mul(lam, sinh, wp, round_nearest), wp, round_nearest)
            if store:
                row = rows.setdefault(t, [eta, None, None, None])
        else:
            eta = row[0]
        with working(prec):
            w = family.weight(mp.make_mpf(eta))._mpf_
        for x in (lam, cosh, eta):
            w = mpf_mul(w, x, wp, round_nearest)
        if store and row is not None:
            row[column] = w
        return mpf_mul(factor(eta), w, wp, round_nearest)

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
        family, lambda eta: mpf_pow_int(eta, 2 * k, wp, round_nearest), spec
    )


# Bounded, as it is keyed by every z seen; 1024 entries hold a demo scan's
# grid for its perturbed and control passes many times over.
@lru_cache(maxsize=1024)
def _damped_moment_integral(family: ThetaFamily, k: int, z: mpf, spec: QuadratureSpec):
    """(value, err) of  integral eta^(2k)/(z^2+eta^2) * weight(eta) deta."""
    wp = working_bits(spec.precision)
    with working(spec.precision):
        z2 = (mp.mpf(z) ** 2)._mpf_

    def factor(eta):
        return mpf_div(
            mpf_pow_int(eta, 2 * k, wp, round_nearest),
            mpf_add(z2, mpf_mul(eta, eta, wp, round_nearest), wp, round_nearest),
            wp, round_nearest,
        )

    return _de_quad_half_line(family, factor, spec)


def _finish(value, err, spec: QuadratureSpec, error: bool):
    value = round_to(value, spec.precision)
    if error:
        return value, round_to(err, spec.precision)
    return value


def exact_ln_factorial(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln(n!) from the exact big integer, correct to the stated precision."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with working(precision):
        return round_to(mp.log(mpf(math.factorial(n))), precision)


def exact_ln_central_binomial(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln C(2n, n) from the exact big-integer binomial coefficient."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with working(precision):
        return round_to(mp.log(mpf(math.comb(2 * n, n))), precision)


def exact_ln_gamma_half(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln Gamma(n + 1/2) via the duplication formula.

    Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), so the result is assembled
    from exact integers plus ln(pi) at working precision.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with working(precision):
        value = (
            mp.log(mpf(math.factorial(2 * n)))
            - mp.log(mpf(math.factorial(n)))
            - 2 * n * mp.log(2)
            + mp.log(mp.pi) / 2
        )
        return round_to(value, precision)


def _remainder(family: ThetaFamily, k: int, z, spec: QuadratureSpec):
    """(remainder, error): sign(k) z / (pi z^(2k)) times the damped moment integral."""
    zz = positive_real(z, spec.precision, "argument")
    value, err = _damped_moment_integral(family, k, zz, spec)
    with working(spec.precision):
        scale = zz / (mp.pi * zz ** (2 * k))
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
    num, num_err = _damped_moment_integral(family, k, zz, spec)
    den, den_err = _moment_integral(family, k, spec)
    with working(spec.precision):
        value = zz * zz * num / den
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
    with working(spec.precision):
        inv_pi = 1 / mp.pi
        return _finish(inv_pi * value, inv_pi * err, spec, error)
