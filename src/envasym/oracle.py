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
A cold node takes eta from one exp; its weights are fixed-point series in
u = 2*pi*eta where u is small and in q = exp(-u) where q is small, each
rounded once, and libmp's exp and logarithm between them.  The series'
coefficients are exact rationals the module derives itself, not from
:mod:`envasym.coeffs`: the small-u tables from the one power series of
ln(sinh x / x), whose x**(2n) coefficient times 4**n - 1 and 2 - 4**n gives
those of ln cosh x and ln(tanh x / x), by sinh 2x = 2 sinh x cosh x, the same
duplication that turns Binet's series into the central binomial one.
The wrappers and the exact logarithms are operators in the private context
of the precision.  Nothing reads or sets ``mp.prec``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_ln2,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_fixed,
)

from ._expansions import WEIGHTS
from .errors import QuadratureNonConvergence
from .precision import (
    DEFAULT_PRECISION,
    _context,
    _product,
    _round,
    checked_index,
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

# Bits the fixed-point unit of the two series branches carries beyond wp.
_SERIES_GUARD = 16

# The most terms a series branch of ``_weights`` takes, which sets where it
# starts (``_edges``).  In the edge binade a node's weights cost, in µs (one
# family / all three; the exp and logarithms they replace in brackets):
# small u 12 / 35 (30 / 57) at 256 bits, 24 / 72 (56 / 110) at 512; small
# q 29 / 44 (40 / 66) at 256 bits, 43 / 66 (61 / 106) at 512.
_SMALL_U_TERMS = 24
_SMALL_Q_TERMS = 12


def _log_of_series(f: list) -> list:
    """ln of the power series f with f[0] = 1, to as many terms, exactly:
    g' f = f' gives n g_n = n f_n - sum of k g_k f_(n-k) over 0 < k < n."""
    g = [Fraction(0)]
    for n in range(1, len(f)):
        g.append(f[n] - sum((k * g[k] * f[n - k] for k in range(1, n)), Fraction(0)) / n)
    return g


@lru_cache(maxsize=1)
def _exact_log_tables() -> tuple:
    """(A, C, D): the coefficients of u**2, ..., u**(2n) of ln(sinh x / x),
    ln(cosh x) and ln(tanh x / x) at x = u/2, n = _SMALL_U_TERMS, as exact
    rationals, from the one series of sinh x / x in x**2.  By duplication,
    sinh 2x = 2 sinh x cosh x gives ln cosh x = ln(sinh 2x / 2x) - ln(sinh x
    / x), so C_n = (4**n - 1) A_n, and tanh = sinh / cosh gives D_n = A_n -
    C_n = (2 - 4**n) A_n."""
    sinhc = [Fraction(1, math.factorial(2 * i + 1)) for i in range(_SMALL_U_TERMS + 1)]
    a = [c / 4**p for p, c in enumerate(_log_of_series(sinhc)) if p]
    return (tuple(a), tuple((4**p - 1) * c for p, c in enumerate(a, 1)),
            tuple((2 - 4**p) * c for p, c in enumerate(a, 1)))


@lru_cache(maxsize=16)
def _fixed_constants(f: int) -> tuple:
    """2 pi, ln 2 pi, ln 2 and ln pi in units of 2**-f, floored; the tables
    A, C and D rounded to nearest in the same unit; and 1/i floored for
    1 < i <= _SMALL_Q_TERMS, the small-q series' coefficients."""
    p = f + 8
    pi = mpf_pi(p, round_nearest)
    constants = [mpf_shift(pi, 1), mpf_log(mpf_shift(pi, 1), p, round_nearest),
                 mpf_ln2(p, round_nearest), mpf_log(pi, p, round_nearest)]
    tables = [tuple(round(c * (1 << f)) for c in table) for table in _exact_log_tables()]
    inverses = tuple((1 << f) // i for i in range(2, _SMALL_Q_TERMS + 1))
    return (*(to_fixed(c, f) for c in constants), *tables, inverses)


@lru_cache(maxsize=16)
def _edges(wp: int) -> tuple:
    """(a, b): eta < 2**a takes the small-u branch of ``_weights``, eta >=
    2**(b-1) the small-q branch, f = wp + _SERIES_GUARD.

    a is the largest of at most -5 with ceil((f + 2)/(3 - 2(a + 3))) <=
    _SMALL_U_TERMS + 1: u = 2 pi eta < 2**(a+3) <= 1/4, so at most
    _SMALL_U_TERMS terms of each table reach one unit (see ``_small_u``).
    b is the least with _SMALL_Q_TERMS * floor(4.5 * 2**b) >= f: from
    eta >= 2**(b-1), u >= pi * 2**b and q = e^-u < 2**-(4.5 * 2**b), so
    _SMALL_Q_TERMS terms of the relative series leave a tail below one unit
    (see ``_small_q``).  At 256 bits (a, b) = (-8, 3): u < 2**-5 and
    q < 2**-36; at 512 bits (-13, 4): u < 2**-10 and q < 2**-72."""
    f = wp + _SERIES_GUARD
    a = -5
    while -(-(f + 2) // (3 - 2 * (a + 3))) > _SMALL_U_TERMS + 1:
        a -= 1
    b = 1
    while _SMALL_Q_TERMS * (9 << b >> 1) < f:
        b += 1
    return a, b


def _terms(rho: int, m: int, f: int) -> int:
    """The least n with (n + 1)(rho - 2m) >= f + 2: past n terms, a table
    with r = (u/R)**2 < 2**(2m - rho) leaves a tail below 4 r**(n+1) <=
    2**-f (see ``_small_u``)."""
    return -(-(f + 2) // (rho - 2 * m)) - 1


def _small_u(families, eta: tuple, s: tuple, wp: int) -> list:
    """The weights at eta < 2**a, a from ``_edges``, in fixed point.

    With u = 2 pi eta and s = ln eta,
    theta = -ln 2pi - s + u/2 - A(u**2), theta-hat = ln 2 - u/2 + C(u**2) and
    theta-tilde = -ln pi - s - D(u**2), A, C and D the tables of
    ``_exact_log_tables``, from ln(1 - q) = ln u - u/2 + ln(sinh(u/2)/(u/2)),
    ln(1 + q) = ln 2 - u/2 + ln cosh(u/2) and ln coth(u/2) = -ln(u/2) -
    ln(tanh(u/2)/(u/2)).  By duplication C_n = (4**n - 1) A_n and D_n =
    (2 - 4**n) A_n, the coefficients of u**(2n).

    Error, in units of 2**-f, f = wp + _SERIES_GUARD: |A_n| = zeta(2n) /
    (n (2 pi)**(2n)) from its Bernoulli form, and |C_n| and |D_n| are below
    4**n |A_n|, so a coefficient of u**(2n) is below zeta(2) R**(-2n) < 2.1
    R**(-2n), R = 2 pi for A and pi for C and D, so with 2**m the
    power of two above the integer u, r = (u/R)**2 < 2**(2m - rho), rho = 5
    and 3 (log2 pi > 1.65 also covers u's floor), and u < 1/4 leaves the
    tail past n terms below 2.1 r**(n+1) / (1 - r) < 4 r**(n+1), one unit
    at n = ``_terms(rho, m, f)``.  Horner's rule floors once per term, and
    later terms multiply each floor by u**2 < 1/16, so a sum is within 2.2
    units plus its tail.  With the floored ln 2 pi, ln 2 or ln pi (1), s (1)
    and u/2 (2), a weight is within 7 units of its value at (eta, s), and
    above 1/2, so within 2**-(wp+12) relative before its one rounding to wp.
    No integer grows with |log2 u|: a u below 2**-f is 0.
    """
    f = wp + _SERIES_GUARD
    two_pi, ln_2pi, ln_2, ln_pi, *tables, _ = _fixed_constants(f)
    u = two_pi * eta[1] >> -eta[2]
    y, m, log_eta = u * u >> f, u.bit_length() - f, to_fixed(s, f)
    weights = []
    for family in families:
        if family is ThetaFamily.THETA:
            x = -ln_2pi - log_eta + (u >> 1) - _horner(tables[0], y, _terms(5, m, f), f)
        elif family is ThetaFamily.THETA_HAT:
            x = ln_2 - (u >> 1) + _horner(tables[1], y, _terms(3, m, f), f)
        else:
            x = -ln_pi - log_eta - _horner(tables[2], y, _terms(3, m, f), f)
        weights.append(from_man_exp(*_round(x, -f, wp, round_nearest)))
    return weights


def _horner(table: tuple, y: int, n: int, f: int) -> int:
    """The sum of table[i-1] * y**i over 0 < i <= n, in units of 2**-f."""
    total = 0
    for c in reversed(table[:n]):
        total = (total + c) * y >> f
    return total


def _small_q(families, q: tuple, wp: int) -> list:
    """The weights at eta >= 2**(b-1), b from ``_edges``, as q times a
    relative series in fixed point, from -ln(1 - q), ln(1 + q) and
    2 atanh(q): theta = q (1 + q/2 + q**2/3 + ...) to the power
    q**(_SMALL_Q_TERMS-1), theta-hat the same with alternating signs, and
    theta-tilde = 2q (1 + q**2/3 + q**4/5 + ...) to the same power or one
    below.

    Error, in units of 2**-f, f = wp + _SERIES_GUARD: q < 2**-(f /
    _SMALL_Q_TERMS) <= 1/2, so each tail is below q**_SMALL_Q_TERMS < 1
    unit.  The coefficients are floored, Horner's rule floors once per
    term, and later terms multiply each floor by |q| or q**2 <= 1/2, so a
    sum near 2**f is within 4 units, and with q within 2**-(wp+9) relative
    (see ``_weights``) a weight is within 2**-(wp+8) relative before its one
    rounding to wp.  No integer grows with |log2 q|: a q below 2**-f is 0
    in the series, and the weight is q or 2q rounded.
    """
    f = wp + _SERIES_GUARD
    x, inverses = to_fixed(q, f), _fixed_constants(f)[-1]
    weights = []
    for family in families:
        if family is ThetaFamily.THETA_TILDE:  # twice the odd terms
            total, e = _horner(inverses[1::2], x * x >> f, (_SMALL_Q_TERMS - 1) // 2, f), 1 - f
        else:
            y = -x if family is ThetaFamily.THETA_HAT else x
            total, e = _horner(inverses, y, _SMALL_Q_TERMS - 1, f), -f
        weights.append(from_man_exp(*_round(q[1] * ((1 << f) + total), q[2] + e, wp,
                                            round_nearest)))
    return weights


def _weights(families, eta: tuple, s: tuple, wp: int) -> list:
    """Each family's weight at raw eta > 0 with s = ln eta, rounded to
    nearest at wp bits, by one of three branches chosen from the binade of
    eta and wp (``_edges``).  With u = 2 pi eta and q = e^-u:

    * small u: a fixed-point series in u**2 with s and u, neither q nor a
      logarithm (``_small_u``);
    * small q: q times a fixed-point series in q, no logarithm
      (``_small_q``);
    * between them, theta = -ln(1 - q), theta-hat = ln(1 + q) and
      theta-tilde = ln(1 + 2q/(1 - q)), each one logarithm of a quantity
      known to ``_WEIGHT_GUARD`` bits more than wp, so within about one
      rounding at wp bits.

    Each family's weight depends on (eta, s, wp) alone, so alone or in a
    row it has the same bits.  u carries as many bits again as its integer
    part, so that q keeps them at large eta.  Below u = 1, 1 - q cancels
    about -log2(u) bits, so q carries that many more.
    """
    small_u, small_q = _edges(wp)
    top = eta[2] + eta[3]
    if top <= small_u:
        return _small_u(families, eta, s, wp)
    g = wp + _WEIGHT_GUARD
    pu = g + max(top + 3, 0)  # u < 2**(top + 3)
    u = mpf_mul(mpf_pi(pu, round_nearest), mpf_shift(eta, 1), pu, round_nearest)
    mag = u[2] + u[3]
    q = mpf_exp(mpf_neg(u), g - min(mag, 0), round_nearest)
    if top >= small_q:
        return _small_q(families, q, wp)
    one_minus_q = mpf_sub(fone, q, g, round_nearest)
    weights = []
    for family in families:
        # 1 + x is exact, and mpf_log adds the bits its cancellation near 1 costs
        if family is ThetaFamily.THETA_HAT:
            weights.append(mpf_log(mpf_add(fone, q), wp, round_nearest))
        elif family is ThetaFamily.THETA_TILDE:
            x = mpf_div(mpf_shift(q, 1), one_minus_q, g, round_nearest)
            weights.append(mpf_log(mpf_add(fone, x), wp, round_nearest))
        else:  # below u = 1, 1 - q < 1 - 1/e is far from 1
            x = one_minus_q if mag <= 0 else mpf_sub(fone, q)
            weights.append(mpf_neg(mpf_log(x, wp, round_nearest)))
    return weights


@dataclass(frozen=True)
class QuadratureSpec:
    """The working precision of a quadrature, in bits.

    Refinement stops when two levels agree to ``effective_tol()``, the floor
    ``2**-(precision-32)``, which is as much as precision-P arithmetic can
    honestly resolve, or raises once it has visited ``_NODE_BUDGET`` nodes.
    """

    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        checked_precision(self.precision)

    def effective_tol(self) -> mpf:
        return mp.make_mpf(mpf_shift(fone, 32 - self.precision))


_DEFAULT_SPEC = QuadratureSpec()

# The most nodes, warm or cold, one quadrature visits over both sides of all
# its levels, the middle node included: the least power of two at least twice
# the most any measured use visits (109,444, a cold 128-bit binet_J("1e-300")).
# Every level visits at least four, so the levels need no cap of their own.
_NODE_BUDGET = 2**18

# Stop extending a tail once this many consecutive transformed-integrand
# values fall below the running-sum threshold; guards against a lone
# accidental small value.
_TAIL_RUN = 2

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
    """The node rows of one working precision, in the order a quadrature
    walks them: ``middle``, the row at t = 0 or none, and ``sides[level,
    side]``, the rows of one side of a refinement level, side 0 at t > 0 and
    side 1 at t < 0.  Row i of level 0 lies at t = +-(i + 1), and row i of
    level l >= 1 at t = +-(2i + 1) * 2**-l.  Every quadrature at the
    precision walks each side from its first node, so a stored side is a
    prefix of it.

    A row is either absent or whole: e = eta**2 with eta = exp(t - e^-t),
    then W(t) = weight(eta)*eta*(1 + e^-t) of every family in ``_COLUMNS``
    order, each the signed (mantissa, exponent) pair of the libmp value the
    quadrature computed, the only values a quadrature reads.  A quadrature
    that stores builds the whole row of each node past the stored prefix and
    writes row i as ``rows[i:i + 1] = [row]``: it has read or written rows 0
    to i - 1, so this appends the row, or replaces the equal row another
    quadrature has just appended.  One that does not store computes its own
    W there and writes nothing.  Every undamped moment integral stores; a
    damped one stores from its family's second damped quadrature at this
    precision, or once the table holds any row, so a one-off damped query at
    a fresh precision leaves nothing behind.  Every stored value is a pure
    function of (t, precision, family), so a row two quadratures make at
    once is the same either way.
    """

    def __init__(self):
        self.middle = []
        self.sides = {}
        # next() on a count is atomic, so no quadrature is counted twice.
        self._damped = {family: itertools.count() for family in ThetaFamily}

    def storing(self, family: ThetaFamily) -> bool:
        """Count one damped quadrature of the family; True from the second on,
        or once the table holds a row: every storing quadrature writes the
        middle row first, so the middle row alone tells."""
        return next(self._damped[family]) > 0 or bool(self.middle)


def _nodes(t0: float, dt: float, wp: int, start: int):
    """(eta, 1 + E, s) with E = e^-t at the nodes t = t0 + n*dt of one side
    of a refinement level (dt < 0 on the t < 0 side), n = start, start + 1,
    ..., from a recurrence instead of exps: eta = exp(t - E), and d(eta)/dt =
    eta*(1 + E).  The exponent s = t - E = ln eta goes to the weights, whose
    small-u branch needs no other logarithm.

    A step along the side multiplies E by e^-dt at gp = wp + _NODE_GUARD
    bits.  At every index n divisible by _RESEED, E is made afresh from one
    exp, and the stream starts at the last such index at or below start, so
    the E at n comes from the same n % _RESEED steps wherever the stream
    started, and every value is a pure function of (t, wp).  s = t - E is
    rounded to nearest at gp bits from the exact t; eta = exp(s) and 1 + E
    at wp.

    Error: E starts within one rounding of 2**-gp and each step adds two
    (the product's and the step factor's), so it stays within
    2*_RESEED*2**-gp < 2**-(wp+18) relative, and the exponent t - E within
    2**-(wp+18)*E + 2**-gp*|t - E|.  For t >= -11, where E < 2**16 (beyond
    every tail below P = 50,000), eta and 1 + E are within 2**(1-wp)
    relative.
    """
    gp = wp + _NODE_GUARD
    step = mpf_exp(from_float(-dt), gp, round_nearest)
    for n in itertools.count(start - start % _RESEED):
        t = t0 + n * dt
        if n % _RESEED:
            e = mpf_mul(e, step, gp, round_nearest)
        else:
            e = mpf_exp(from_float(-t), gp, round_nearest)
        if n >= start:
            s = mpf_sub(from_float(t), e, gp, round_nearest)
            yield mpf_exp(s, wp, round_nearest), mpf_add(fone, e, wp, round_nearest), s


def _half_sum(total: int, rows: list, cold, n: int, column: int, k: int, z2, u: int,
              wp: int, after: int = -1) -> tuple:
    """(total, peak, m): the integer total plus the terms of the first n
    nodes of one side of a level, in units of 2**u; the index of the largest
    term, or None if the tail did not end within n nodes; and the m nodes
    summed.

    The sum has two phases: the first of the side's stored rows, as many as
    it holds on entry (at most n), read in order, with no t and no lookup;
    then ``cold(warm, n)``, the stream of the rows of indices warm to n - 1
    past them, also where another quadrature appends them meanwhile; cold
    may be None where the stored rows cover all n.  At k = 0 a term takes W
    alone, with no power of e.  A node's term is q = floor(x / 2**u) of the
    exact x = W * e**k over the exact z2 + e, or of W * e**k when z2 is
    None: one floor division of exact integers, the numerator shifted first
    (nested floors are exact).  Where the smaller addend of z2 + e tops out
    (exponent plus bit length) more than T = wp + G + 8 binades below the
    larger, G = _SUM_GUARD, it is dropped, which leaves q in [floor(x),
    x * (1 + 2**-T)].  The tail ends at the _TAIL_RUN-th negligible term in
    a row past index ``after``, q <= 2**-wp * total, the sum so far (a zero
    term is): exactly, q <= total >> wp.  A refinement level passes the t of
    the previous level's largest term on the side: at large k the mass lies
    near eta = k/pi, and a fine level's first nodes fall below one unit of
    the sum, which must not end the side before it reaches the mass.

    Error: ``_de_quad_half_line`` sums each level's n nodes, S_l, in one
    unit 2**u that leaves the level-0 sum S_0 wp + G bits (rescaling it
    costs under one unit).  So S_l * 2**(u-l) is within (n + 1) * 2**(u-l)
    plus 2**-T relative of the exact trapezoid sum of the stored inputs,
    and as S_l >= S_0 >= 2**(wp+G-1), within 2**-(wp+8) relative for any
    n < 2**28, and no quadrature visits more than ``_NODE_BUDGET`` = 2**18.
    """
    warm = min(len(rows), n)
    nodes = itertools.chain(itertools.islice(rows, warm), cold(warm, n) if warm < n else ())
    if z2 is not None:
        zm, ze = z2
        top = ze + zm.bit_length()
        far = wp + _SUM_GUARD + 8
    run = largest = 0
    peak = -1
    for i, row in enumerate(nodes):
        (em, ee), (wm, we) = row[0], row[column]
        num, shift = wm, we - u
        if k:
            num, shift = wm * em**k, shift + k * ee
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
            largest, peak = q, i
        if q <= total >> wp and i > after:
            run += 1
            if run >= _TAIL_RUN:
                return total, peak, i + 1
        else:
            run = 0
    return total, None, n


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
    and positive: read in order from the stored prefix of its side in the
    precision's node table (see ``_NodeTable``), else, past that prefix,
    made at ``working_bits(P)`` from the eta, 1 + e^-t and s = ln eta of the
    side's stream (see ``_nodes``) and the weights (see ``_weights``),
    and made pairs once.
    With ``store`` such a node's row is built whole, the W of every family
    from one ``_weights`` call, and written at its index; without it only
    this family's W is computed, and nothing is written.  Each side of a
    level is one loop over the pairs, ``_half_sum``, which adds each node's
    term exactly, as an integer in the quadrature's one unit.  Two levels'
    sums are compared exactly, and the estimate and the difference are
    rounded to working precision once each.

    Each side is cut to the nodes left of ``_NODE_BUDGET``, which bounds
    the nodes the whole quadrature visits, warm or cold.

    Returns (value, error_estimate) as mpf at working precision.  Raises
    QuadratureNonConvergence once the budget is spent before two levels
    agree, with the last completed level's estimate and its difference from
    the level before, each None where there is none.
    """
    prec = spec.precision
    wp = working_bits(prec)
    table = _node_table(prec)
    families = tuple(ThetaFamily) if store else (family,)
    column = _COLUMNS[family]
    estimate = err = None

    def cold(rows, t0, dt):
        # (start, n) -> the rows of nodes start to n - 1 of rows' side, from its
        # stream of (eta, 1 + e^-t, s) at t = t0 + i*dt: whole and written to
        # rows if stored, else W of this family alone
        def stream(start, n):
            for i, (eta, factor, s) in zip(range(start, n), _nodes(t0, dt, wp, start)):
                row = [mpf_mul(eta, eta, wp, round_nearest)[1:3]] + [None] * len(_COLUMNS)
                for each, weight in zip(families, _weights(families, eta, s, wp)):
                    row[_COLUMNS[each]] = mpf_mul(mpf_mul(weight, factor, wp, round_nearest), eta,
                                                  wp, round_nearest)[1:3]
                if store:
                    rows[i:i + 1] = [row]
                yield row
        return stream

    peaks = [-1, -1]  # the index of the last level's largest term on each side
    left = _NODE_BUDGET - 1  # the nodes not yet visited, past the middle one

    def half_sums(level, u):
        # the sum over both sides of the level, as many nodes as are left;
        # the tail test starts past the t of the last level's peak p: past
        # index p on level 1, and 2p on finer ones
        nonlocal left
        total = 0
        for side, dt in enumerate((2.0**-level, -2.0**-level)):
            rows = table.sides.setdefault((level, side), [])
            stream = cold(rows, dt, 2 * dt if level else dt)
            total, peaks[side], n = _half_sum(total, rows, stream, left, column, k, z2, u, wp,
                                              peaks[side] << (level > 1))
            left -= n
            if peaks[side] is None:
                raise QuadratureNonConvergence(f"no convergence within {_NODE_BUDGET} nodes",
                                               value=estimate, error=err)
        return total

    # the node at t = 0 alone, at a unit that leaves it more than wp + G bits
    # (from a lower bound on its W * e**k and an upper one on its z2 + e)
    middle = table.middle[:1] or list(cold(table.middle, 0.0, 1.0)(0, 1))
    (em, ee), (wm, we) = middle[0][0], middle[0][column]
    u = we + wm.bit_length() - 1 + k * (ee + em.bit_length() - 1) - wp - _SUM_GUARD
    if z2 is not None:
        u -= max(z2[1] + z2[0].bit_length(), ee + em.bit_length()) + 1
    total = _half_sum(0, middle, None, 1, column, k, z2, u, wp)[0]
    # then its level's two sides, and the sum rescaled to wp + G bits
    total += half_sums(0, u)
    shift = total.bit_length() - wp - _SUM_GUARD
    total, u = total >> shift, u + shift
    for level in itertools.count(1):
        # the sum over level l's nodes, in units of 2**(u - l)
        previous, total = total, total + half_sums(level, u)
        estimate = mp.make_mpf(from_man_exp(*_round(total, u - level, wp, round_nearest)))
        if level > 1:
            diff = abs(total - 2 * previous)
            err = mp.make_mpf(from_man_exp(*_round(diff, u - level, wp, round_nearest)))
            # |difference| <= effective_tol() * estimate, exact
            if diff << (prec - 32) <= total:
                return estimate, err


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
    n, precision = checked_int(n, 0, "n"), checked_precision(precision)
    return to_precision(_ln_int(math.factorial(n), precision)._mpf_, precision)


def exact_ln_central_binomial(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln C(2n, n) from the exact big-integer binomial coefficient."""
    n, precision = checked_int(n, 1, "n"), checked_precision(precision)
    return to_precision(_ln_int(math.comb(2 * n, n), precision)._mpf_, precision)


def exact_ln_gamma_half(n: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """ln Gamma(n + 1/2) via the duplication formula.

    Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), so the result is assembled
    from exact integers plus ln(pi) at working precision.
    """
    n, precision = checked_int(n, 0, "n"), checked_precision(precision)
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
    enveloping property itself.  k above ``INDEX_CAP`` raises
    :class:`DomainError` before any quadrature runs.
    """
    k = checked_index(k, "k")
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
    correction function.  k above ``INDEX_CAP`` raises :class:`DomainError`
    before any quadrature runs.
    """
    k = checked_index(k, "k")
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
    two must agree, and the test suite holds them to it.  k above
    ``INDEX_CAP`` raises :class:`DomainError` before any quadrature runs.
    """
    k = checked_index(k, "k")
    value, err = _integral(family, k, None, spec)
    inv_pi = 1 / _context(spec.precision).pi
    return _finish(inv_pi * value, inv_pi * err, spec, error)
