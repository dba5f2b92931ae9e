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
The node loop sums exact integers in fixed point; only the returned value
and error are rounded, by the one rounder of :mod:`envasym.precision`.
Cold nodes and the weights are libmp calls at an explicit precision; the
wrappers and the exact logarithms are operators in the private context of
the precision.  Nothing reads or sets ``mp.prec``.
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
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from ._expansions import WEIGHTS
from .errors import QuadratureNonConvergence
from .precision import (
    DEFAULT_PRECISION,
    _context,
    _product,
    _round,
    checked_int,
    checked_precision,
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


def _weights(families, eta: tuple, wp: int) -> list:
    """Each family's weight at raw eta > 0, rounded to nearest at wp bits,
    from one u, q and 1 - q and one logarithm per family.

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
    weights = []
    for family in families:
        if family is ThetaFamily.THETA_HAT:
            weights.append(_log1p(q, wp))
        elif family is ThetaFamily.THETA_TILDE:
            weights.append(_log1p(mpf_div(mpf_shift(q, 1), one_minus_q, g, round_nearest), wp))
        elif mag <= 0:  # u < 1: 1 - q <= 1 - 1/e, far from 1
            weights.append(mpf_neg(mpf_log(one_minus_q, wp, round_nearest)))
        else:
            weights.append(mpf_neg(_log1p(mpf_neg(q), wp)))
    return weights


@dataclass(frozen=True)
class QuadratureSpec:
    """The working precision of a quadrature, in bits.

    Refinement stops when two levels agree to ``effective_tol()``, the floor
    ``2**-(precision-32)``, which is as much as precision-P arithmetic can
    honestly resolve, or raises after ``_MAX_LEVELS`` levels.
    """

    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        checked_precision(self.precision)

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

# Bits a quadrature's level-0 sum carries in its fixed-point unit: the sums
# then stay within 2**-(wp+8) relative of their exact values (see _half_sum).
_SUM_GUARD = 38

# A row is [e = eta**2, W per family] as (mantissa, exponent) pairs; these are
# the W columns.
_COLUMNS = {family: column for column, family in enumerate(ThetaFamily, start=1)}

# Bits the running E = e^-t of a level carries beyond the working precision,
# and the node indices, its multiples, where it is recomputed from a direct exp.
_NODE_GUARD = 30
_RESEED = 1024


class _NodeTable:
    """The node rows of one working precision, keyed by the exact t.

    A row is either absent or whole: e = eta**2 with eta = exp(t - e^-t),
    then W(t) = weight(eta)*eta*(1 + e^-t) of every family in ``_COLUMNS``
    order, each the signed (mantissa, exponent) pair of the libmp value the
    quadrature computed, the only values a quadrature reads.  A quadrature
    that stores builds the whole row of each node it computes; one that does
    not store computes its own W there and keeps nothing.  Every undamped
    moment integral stores; a damped one stores from its family's second
    damped quadrature at this precision, or once the table holds any row, so
    a one-off damped query at a fresh precision leaves nothing behind.  Every
    stored value is a pure function of (t, precision, family), so a row two
    quadratures make at once is the same either way.
    """

    def __init__(self):
        self.rows: dict[float, list] = {}
        # next() on a count is atomic, so no quadrature is counted twice.
        self._damped = {family: itertools.count() for family in ThetaFamily}

    def storing(self, family: ThetaFamily) -> bool:
        """Count one damped quadrature of the family; True from the second on,
        or once the table holds a row."""
        return next(self._damped[family]) > 0 or bool(self.rows)


class _Level:
    """(eta, 1 + E) with E = e^-t at the nodes t = t0 + n*dt of one side of a
    refinement level (dt < 0 on the t < 0 side), from a recurrence instead of
    exps: eta = exp(t - E), and d(eta)/dt = eta*(1 + E).

    A step along the level multiplies E by e^-dt at gp = wp + _NODE_GUARD
    bits.  At every index n divisible by _RESEED, E is made afresh from one
    exp, so the E at n comes from the same n % _RESEED steps whatever ran
    before, and every value is a pure function of (t, wp).  Rounded to
    nearest at wp, eta = exp(t - E) from the exact t, and 1 + E.

    Error: E starts within one rounding of 2**-gp and each step adds two
    (the product's and the step factor's), so it stays within
    2*_RESEED*2**-gp < 2**-(wp+18) relative, and the exponent t - E within
    2**-(wp+18)*E + 2**-gp*|t - E|.  For t >= -11, where E < 2**16 (beyond
    every tail below P = 50,000), eta and 1 + E are within 2**(1-wp)
    relative.
    """

    def __init__(self, t0: float, dt: float, wp: int):
        self.t0, self.dt, self.wp, self.gp = t0, dt, wp, wp + _NODE_GUARD
        self._step = None  # e^-dt at gp bits, made on first use
        self._last = None  # (n, E) of the last index computed

    def _e(self, n: int) -> tuple:
        """E at index n, rounded to nearest at gp bits."""
        gp = self.gp
        start = n - n % _RESEED
        if self._last is None or not start <= self._last[0] <= n:
            self._last = start, mpf_exp(from_float(-(self.t0 + start * self.dt)), gp,
                                        round_nearest)
        m, e = self._last
        if m < n:
            if self._step is None:
                self._step = mpf_exp(from_float(-self.dt), gp, round_nearest)
            for _ in range(n - m):
                e = mpf_mul(e, self._step, gp, round_nearest)
        self._last = n, e
        return e

    def node(self, n: int) -> tuple:
        """(eta, 1 + E) at t = t0 + n*dt."""
        e = self._e(n)
        t = from_float(self.t0 + n * self.dt)
        return (mpf_exp(mpf_sub(t, e, self.gp, round_nearest), self.wp, round_nearest),
                mpf_add(fone, e, self.wp, round_nearest))


def _half_sum(total: int, rows: dict, cold, js: range, dt: float, column: int, k: int,
              z2, u: int, wp: int, after: int = 0) -> tuple:
    """(total, peak): the integer total plus the terms at t = j*dt for j in
    js, in units of 2**u, and the j of the largest term, or None if the
    tail did not end before js ran out.

    A node's row is read by its exact dyadic t, else ``cold(t, j)`` makes
    it.  Its term is q = floor(x / 2**u) of the exact x = W * e**k over the
    exact z2 + e, or of W * e**k when z2 is None: one floor division of
    exact integers, the numerator shifted first (nested floors are exact).
    Where the smaller addend of z2 + e tops out (exponent plus bit length)
    more than T = wp + G + 8 binades below the larger, G = _SUM_GUARD, it
    is dropped, which leaves q in [floor(x), x * (1 + 2**-T)].  The tail
    ends at the _TAIL_RUN-th negligible term in a row past j = ``after``,
    q <= 2**-wp * total, the sum so far (a zero term is): exactly,
    q <= total >> wp.  A refinement level passes twice the j of the
    previous level's largest term on the side, the same t at half the step:
    at large k the mass lies near eta = k/pi, and a fine level's first
    nodes fall below one unit of the sum, which must not end the side
    before it reaches the mass.

    Error: ``_de_quad_half_line`` sums each level's n nodes, S_l, in one
    unit 2**u that leaves the level-0 sum S_0 wp + G bits (rescaling it
    costs under one unit).  So S_l * 2**(u-l) is within (n + 1) * 2**(u-l)
    plus 2**-T relative of the exact trapezoid sum of the stored inputs,
    and as S_l >= S_0 >= 2**(wp+G-1), within 2**-(wp+8) relative for any
    n < 2**28, more nodes than the caps allow.
    """
    get = rows.get
    if z2 is not None:
        zm, ze = z2
        top = ze + zm.bit_length()
        far = wp + _SUM_GUARD + 8
    run = largest = peak = 0
    for j in js:
        t = j * dt
        row = get(t) or cold(t, j)
        (em, ee), (wm, we) = row[0], row[column]
        num, shift = wm * em**k, we + k * ee - u
        if z2 is not None:
            # the divisor: the larger addend alone, or the exact z2 + e
            gap = top - ee - em.bit_length()  # z2's top less e's
            if gap > far:
                em, ee = zm, ze
            elif gap >= -far:
                em, ee = ((zm << (ze - ee)) + em, ee) if ze > ee else (zm + (em << (ee - ze)), ze)
            shift -= ee
            q = (num << shift if shift >= 0 else num >> -shift) // em
        else:
            q = num << shift if shift >= 0 else num >> -shift
        total += q
        if q > largest:
            largest, peak = q, j
        if q <= total >> wp and j > after:
            run += 1
            if run >= _TAIL_RUN:
                return total, peak
        else:
            run = 0
    return total, None


@lru_cache(maxsize=4)
def _node_table(precision: int) -> _NodeTable:
    return _NodeTable()


def _de_quad_half_line(family: ThetaFamily, k: int, z2, spec: QuadratureSpec, store: bool):
    """Integrate eta**(2k) * weight(eta) over (0, inf), over z2 + eta**2 unless
    z2 is None, double-exponentially.

    Substitutes eta = exp(t - e^-t), the map of Mori and Sugihara (2001) for
    integrands that decay exponentially in eta, as the weights do, and
    applies the trapezoid rule in t with dyadic step refinement, reusing
    previous levels.  Refinement stops when two successive levels agree to
    the spec's relative tolerance; the returned error is that last
    inter-level difference.  The infinite tails are truncated where the
    transformed integrand falls to 2**-(P+32) of the running sum, however
    small the sum; eta = 0 is never sampled, so integrable endpoint
    singularities need no special casing.

    A node's e = eta**2 and W(t) = weight(eta) * eta * (1 + e^-t) are z-free
    and positive: read from the row of the precision's node table (see
    ``_NodeTable``), else libmp calls at ``working_bits(P)`` on the eta and
    1 + e^-t of the level's recurrence (see ``_Level``), made pairs once.
    With ``store`` such a node's row is built whole, the W of every family
    from one ``_weights`` call, and kept; without it only this family's W is
    computed.  Each side of a level is one loop over the pairs,
    ``_half_sum``, which adds each node's term exactly, as an integer in the
    quadrature's one unit.  Two levels' sums are compared exactly, and the
    estimate and the difference are rounded to working precision once each.

    Returns (value, error_estimate) as mpf at working precision.  Raises
    QuadratureNonConvergence if the level cap or the tail cap is hit first,
    with the last completed level's estimate and its difference from the
    level before, each None where there is none.
    """
    prec = spec.precision
    wp = working_bits(prec)
    rows = _node_table(prec).rows
    families = tuple(ThetaFamily) if store else (family,)
    column = _COLUMNS[family]
    estimate = err = None

    def cold(t, eta, factor):
        # the row at a t without one; W of this family alone unless stored
        row = [mpf_mul(eta, eta, wp, round_nearest)[1:3]] + [None] * len(_COLUMNS)
        for each, weight in zip(families, _weights(families, eta, wp)):
            row[_COLUMNS[each]] = mpf_mul(mpf_mul(weight, factor, wp, round_nearest), eta,
                                          wp, round_nearest)[1:3]
        return rows.setdefault(t, row) if store else row

    peaks = [0, 0]  # the j of the last level's largest term on each side

    def half_sums(h, start, step, u):
        # sum of the nodes j*h over j = start, start+step, ... on both sides of 0
        total = 0
        for side, dt in enumerate((h, -h)):
            level = _Level(start * dt, step * dt, wp)
            total, peaks[side] = _half_sum(total, rows, lambda t, j, level=level: cold(
                t, *level.node((j - start) // step)), range(start, _TAIL_CAP + 1, step), dt,
                column, k, z2, u, wp, 2 * peaks[side])
            if peaks[side] is None:
                raise _unconverged("tail truncation cap exceeded", estimate, err)
        return total

    # the node at t = 0 alone, at a unit that leaves it more than wp + G bits
    # (from a lower bound on its W * e**k and an upper one on its z2 + e)
    middle = rows.get(0.0) or cold(0.0, *_Level(0.0, 1.0, wp).node(0))
    (em, ee), (wm, we) = middle[0], middle[column]
    u = we + wm.bit_length() - 1 + k * (ee + em.bit_length() - 1) - wp - _SUM_GUARD
    if z2 is not None:
        u -= max(z2[1] + z2[0].bit_length(), ee + em.bit_length()) + 1
    total = _half_sum(0, {0.0: middle}, None, range(1), 0.0, column, k, z2, u, wp)[0]
    # then its level's two sides, and the sum rescaled to wp + G bits
    total += half_sums(1.0, 1, 1, u)
    shift = total.bit_length() - wp - _SUM_GUARD
    total, u = total >> shift, u + shift
    for level in range(1, _MAX_LEVELS + 1):
        # the sum over level l's nodes, in units of 2**(u - l)
        previous, total = total, total + half_sums(2.0**-level, 1, 2, u)
        estimate = from_man_exp(*_round(total, u - level, wp, round_nearest))
        if level > 1:
            diff = abs(total - 2 * previous)
            err = from_man_exp(*_round(diff, u - level, wp, round_nearest))
            # |difference| <= effective_tol() * estimate, exact
            if diff << (prec - 32) <= total:
                return mp.make_mpf(estimate), mp.make_mpf(err)
    raise _unconverged(f"no convergence within {_MAX_LEVELS} refinement levels", estimate, err)


def _unconverged(message: str, estimate, err) -> QuadratureNonConvergence:
    """The error of a quadrature a cap stopped, with the last completed
    level's estimate and difference as mpf, each None where there is none."""
    value, error = (None if x is None else mp.make_mpf(x) for x in (estimate, err))
    return QuadratureNonConvergence(message, value=value, error=error)


# Bounded, as it is keyed by every z seen; 1024 entries hold a demo scan's
# grid for its perturbed and control passes many times over.
@lru_cache(maxsize=1024)
def _integral(family: ThetaFamily, k: int, z, spec: QuadratureSpec):
    """(value, err) of  integral eta^(2k) * weight(eta) deta  over (0, inf),
    over z^2 + eta^2 unless z is None: every quadrature result the oracle
    keeps.  The undamped moment stores, so every node it computes gets its
    whole row; a damped integral stores as ``_NodeTable.storing`` decides."""
    if z is None:
        return _de_quad_half_line(family, k, None, spec, True)
    wp = working_bits(spec.precision)
    x = mpf_pos(z._mpf_, wp, round_nearest)[1:3]
    return _de_quad_half_line(family, k, _product(x, x, wp), spec,
                              _node_table(spec.precision).storing(family))


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
    value, err = _integral(family, k, zz, spec)
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
    k = checked_int(k, 0, "k")
    zz = positive_real(z, spec.precision, "argument")
    ctx = _context(spec.precision)
    # the moment first: its rows serve the damped quadrature
    den, den_err = map(ctx.convert, _integral(family, k, None, spec))
    num, num_err = map(ctx.convert, _integral(family, k, zz, spec))
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
    k = checked_int(k, 0, "k")
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
    k = checked_int(k, 0, "k")
    value, err = _integral(family, k, None, spec)
    inv_pi = 1 / _context(spec.precision).pi
    return _finish(inv_pi * value, inv_pi * err, spec, error)
