"""The one rounder and the integer steps of the series walk against libmp,
and the quadrature's node terms against exact fractions.

``precision._round`` rounds a signed m * 2**e to nearest, down or up at a
given number of bits, and ``_product``, ``_quotient`` and ``_sum`` are exact
integer arithmetic followed by it.  The series walk takes every step
through them.  libmp rounds correctly in these modes, so each must give
libmp's bits exactly: ``from_man_exp(m, e, bits, rounding)``, ``mpf_mul``,
``mpf_div`` and ``mpf_add``; the searches' one comparison, ``_at_most``,
must be the exact one.  The walk's coefficient table,
``series._rounded_coefficient``, must hold ``from_rational``'s floor.  The
quadrature's node loop (``oracle._half_sum``) rounds nothing: a node's term
is the floor of its exact value in a fixed unit, checked through the loop
itself on one planted node.  CI runs this file a second time under the
``ci`` Hypothesis profile (``HYPOTHESIS_PROFILE=ci``, 2,000 examples).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_man_exp,
    from_rational,
    mpf_add,
    mpf_div,
    mpf_mul,
    round_ceiling,
    round_floor,
    round_nearest,
)

from envasym import coeffs, oracle
from envasym.oracle import _half_sum
from envasym.precision import _at_most, _product, _quotient, _round, _sum
from envasym.series import _rounded_coefficient

WP = st.integers(1, 600)
EXPONENT = st.integers(-3000, 3000)
SIGN = st.sampled_from([1, -1])
MODE = st.sampled_from([round_nearest, round_floor, round_ceiling])


def raw(pair):
    return from_man_exp(*pair)


def operand(wp):
    """A signed pair of at most wp bits, as the walk's steps take."""
    return st.tuples(st.integers(-(2**wp - 1), 2**wp - 1), EXPONENT)


def nonzero(wp):
    return operand(wp).filter(lambda pair: pair[0] != 0)


@st.composite
def mantissas(draw):
    """(m, wp): m random, or shorter than wp, or a kept part and the bits
    below it, which may be an exact tie (of either parity) and may carry an
    all-ones kept part up to 2**wp."""
    wp = draw(WP)
    n = draw(st.integers(1, 300))  # bits below the last kept one
    kept = draw(st.one_of(st.integers(2 ** (wp - 1), 2**wp - 1), st.just(2**wp - 1)))
    below = draw(st.one_of(st.just(1 << (n - 1)), st.integers(0, (1 << n) - 1)))
    m = draw(st.one_of(st.integers(0, 2 ** (2 * wp + 8)), st.integers(0, 2**wp - 1),
                       st.just((kept << n) | below)))
    return draw(SIGN) * m, wp


@settings(deadline=None)
@given(mantissas(), EXPONENT, MODE)
# negative all-ones mantissas whose floor carries to -2**wp, and exact ties
@example((-((2**53 - 1) << 5 | 1), 53), 0, round_floor)
@example((-((2**1 - 1) << 5 | 1), 1), 0, round_floor)
@example((-((2**52 + 1) << 4 | 8), 53), 0, round_nearest)
@example((-(2**52 << 4 | 8), 53), 0, round_nearest)
def test_round_is_libmps_in_every_mode(m_wp, e, rounding):
    m, wp = m_wp
    got = _round(m, e, wp, rounding)
    assert raw(got) == from_man_exp(m, e, wp, rounding)
    assert abs(got[0]).bit_length() <= wp or abs(got[0]) == 2**wp


@settings(deadline=None)
@given(WP.flatmap(lambda wp: st.tuples(operand(wp), nonzero(wp), st.just(wp))))
# products that carry to a new binade or tie, of either sign
@example(((2**53 - 1, 0), (2**53 - 1, 0), 53))
@example(((-(2**52 + 1), 7), (2**52 + 1, -3), 53))
@example(((3, 0), (-5, 0), 1))
# 2**54 + 2 + 1/3 lies just off the tie between two 53-bit neighbours:
# only the remainder rounds it away from the even one
@example(((3 * (2**54 + 2) + 1, 0), (3, 0), 53))
@example(((-(3 * (2**54 + 2) + 1), 0), (3, 0), 53))
@example(((0, 5), (-1, 0), 8))
def test_product_and_quotient_are_libmps(a_b_wp):
    a, b, wp = a_b_wp
    assert raw(_product(a, b, wp)) == mpf_mul(raw(a), raw(b), wp, round_nearest)
    assert raw(_quotient(a, b, wp, round_nearest)) == mpf_div(raw(a), raw(b), wp, round_nearest)


def signed(draw, bits):
    return draw(SIGN) * draw(st.integers(2 ** (bits - 1), 2**bits - 1))


@st.composite
def divisions(draw):
    """(a, b, bits): signed operands of any length, the numerator often
    longer than bits + 2 plus the denominator (where the quotient shifts the
    denominator up); or a = b * c * 2**t + d, d in {-1, 0, 1}, whose quotient
    lies on or just off the bits-bit number c * 2**t, where only the
    remainder tells floor and ceiling apart."""
    bits, b_len = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    bm = signed(draw, b_len)
    if draw(st.booleans()):
        a_len = draw(st.one_of(st.integers(1, 400),
                               st.integers(bits + 3 + b_len, bits + 203 + b_len)))
        am = signed(draw, a_len)
    else:
        c = signed(draw, draw(st.integers(1, bits)))
        am = (bm * c << draw(st.integers(0, 400))) + draw(st.sampled_from([-1, 0, 1]))
    return (am, draw(EXPONENT)), (bm, draw(EXPONENT)), bits


@settings(deadline=None)
@given(divisions(), MODE)
# 400 bits over 3 at 53: the numerator's shift would be negative
@example(((2**400 - 1, 0), (-3, 0), 53), round_floor)
@example(((2**400 - 1, 0), (3, 0), 53), round_ceiling)
# a remainder of 1 under a floor quotient of 2**55, whose dropped bits are
# zero: only the sticky bit rounds the ceiling up
@example((((3 << 100) + 1, 0), (3, 0), 53), round_ceiling)
def test_quotient_is_libmps_in_every_mode(a_b_bits, rounding):
    a, b, bits = a_b_bits
    assert raw(_quotient(a, b, bits, rounding)) == mpf_div(raw(a), raw(b), bits, rounding)


@pytest.mark.parametrize("family", sorted(coeffs.COEFFICIENT_FAMILIES))
def test_the_coefficient_table_holds_the_floor(family):
    for wp in (96, 288, 544):
        for j in range(201):
            c = coeffs.COEFFICIENT_FAMILIES[family](j)
            got = _rounded_coefficient(family, j, wp)
            assert abs(got[0]).bit_length() <= wp
            assert raw(got) == from_rational(c.numerator, c.denominator, wp, round_floor), (wp, j)


@st.composite
def addends(draw):
    """(a, b, wp): random, or b's top bit wp - 3 to wp + 3 binades from a's
    (either way round; a may be a power of two, below which the unit in the
    last place halves), or b = -a, or a zero at any exponent."""
    wp = draw(WP)
    a = draw(operand(wp))
    shape = draw(st.sampled_from(["random", "gap", "cancel", "zero"]))
    if shape == "random":
        b = draw(operand(wp))
    elif shape == "cancel":
        b = (-a[0], a[1])
    elif shape == "zero":
        b = (0, draw(EXPONENT))
        if draw(st.booleans()):
            a, b = b, a
    else:
        bits = draw(st.integers(1, wp))
        b_man = draw(SIGN) * draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        a = (draw(st.sampled_from([a[0] or 1, draw(SIGN) << draw(st.integers(0, wp))])), a[1])
        top = a[1] + abs(a[0]).bit_length() - draw(st.integers(wp - 3, wp + 3))
        b = (b_man, top - bits)
        if draw(st.booleans()):
            a, b = b, a
    return a, b, wp


@settings(deadline=None)
@given(addends())
# 2**52 - 3/8 at 53 bits, 54 binades apart: the smaller addend moves the
# sum, and rounds it to 2**52 - 1/2; 2**52 - 3/16, 55 apart, rounds to 2**52
@example(((1 << 52, 0), (-3, -3), 53))
@example(((-3, -3), (1 << 52, 0), 53))
@example(((1 << 52, 0), (-3, -4), 53))
# cancellation, a zero at any exponent, and a carry into a new binade
@example(((2**40 + 1, -7), (-(2**40 + 1), -7), 41))
@example(((0, 100), (-5, -3), 3))
@example(((2**53 - 1, 0), (1, 0), 53))
def test_sum_is_libmps(a_b_wp):
    a, b, wp = a_b_wp
    assert raw(_sum(a, b, wp)) == mpf_add(raw(a), raw(b), wp, round_nearest)


def exact_value(pair) -> Fraction:
    return pair[0] * Fraction(2) ** pair[1]


NONNEGATIVE = st.tuples(st.integers(0, 2**80), EXPONENT)


@settings(deadline=None)
@given(NONNEGATIVE, NONNEGATIVE)
@example((6, 0), (3, 1))  # one number in two forms: a tie
@example((3, 1), (6, 0))
@example((2**80, -80), (1, 0))
@example((2**80 - 1, -80), (1, 0))
@example((1, 0), (2**80 - 1, -80))
@example((0, 5), (1, -3000))  # zero lies below every positive pair
@example((1, -3000), (0, 5))
@example((0, 7), (0, -7))
def test_at_most_is_the_exact_comparison(a, b):
    assert _at_most(a, b) == (exact_value(a) <= exact_value(b))


def test_sum_around_the_shortcut_threshold():
    # Every gap from wp - 3 to wp + 3 binades, with the larger addend a power
    # of two (where a smaller one of opposite sign meets the halved unit
    # below it) or not, and the smaller one short or long, either order.
    for wp in (1, 2, 3, 10, 64, 288):
        for large in {2 ** (wp - 1), 2**wp - 1, 2 ** (wp - 1) + 1}:
            for gap in range(wp - 3, wp + 4):
                for small in (1, 3, 5, 2**wp - 1):
                    for sign in (1, -1):
                        b = (sign * small, wp - gap - small.bit_length())
                        for x, y in (((large, 0), b), (b, (large, 0))):
                            assert raw(_sum(x, y, wp)) == mpf_add(
                                raw(x), raw(y), wp, round_nearest), (wp, large, gap, small, sign)


def positive(draw, max_bits):
    return draw(st.integers(1, 2**max_bits - 1))


def top(pair):
    return pair[1] + pair[0].bit_length()


def exact(pair):
    return Fraction(pair[0]) * Fraction(2) ** pair[1]


def far(wp):
    """T: the binades below the larger addend of z2 + e past which the node
    loop drops the smaller."""
    return wp + oracle._SUM_GUARD + 8


@st.composite
def node_terms(draw):
    """(e, w, k, z2, u, wp) for a node of ``oracle._half_sum`` in units of
    2**u, z2 None for an undamped node.  Shapes:

    * random positive pairs of at most wp bits, z2's top up to 5,000 binades
      above or below e's, and x = W * e**k / (z2 + e) from below one unit to
      wp + G + 20 bits;
    * an exact multiple: x = c + d / D in units, D the exact z2 + e (1 when
      undamped) and d in {-1, 0, 1}, so that x is an integer or just off one;
    * the drop threshold T: the smaller of z2 and e T - 3 to T + 3 binades
      below the larger, or wp - 3 to T + 3 (where a threshold near wp would
      drop it), and x below 2**T units.
    """
    k = draw(st.integers(0, 6))
    wp = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["random", "exact", "threshold"]))
    e, w = (positive(draw, wp), draw(EXPONENT)), (positive(draw, wp), draw(EXPONENT))
    z2 = None
    if shape == "exact":
        if k:
            e = (1, e[1])  # e**k a power of two
        if draw(st.booleans()):
            z2m = positive(draw, wp)
            z2 = (z2m, top(e) + draw(st.integers(-wp, wp)) - z2m.bit_length())
            d = exact(z2) + exact(e)
            dm, de = d.numerator, -(d.denominator.bit_length() - 1)
        else:
            dm, de = 1, 0
        u = draw(EXPONENT)
        c = draw(st.integers(1, 2 ** (wp + oracle._SUM_GUARD)))
        return e, (c * dm + draw(st.sampled_from([-1, 0, 1])), de - k * e[1] + u), k, z2, u, wp
    if shape == "threshold":
        small = positive(draw, wp)
        gap = draw(st.one_of(st.integers(far(wp) - 3, far(wp) + 3),
                             st.integers(wp - 3, far(wp) + 3)))
        if draw(st.booleans()):  # e the smaller
            z2 = (positive(draw, wp), top(e) + gap - wp)
            e = (small, top(z2) - gap - small.bit_length())
        else:
            z2 = (small, top(e) - gap - small.bit_length())
    elif draw(st.booleans()):
        z2m = positive(draw, wp)
        z2 = (z2m, top(e) + draw(st.integers(-5000, 5000)) - z2m.bit_length())
    # x < 2**bound units at u = 0
    bound = top(w) + k * top(e) - (0 if z2 is None else max(top(z2), top(e)) - 1)
    most = far(wp) if shape == "threshold" else wp + oracle._SUM_GUARD + 20
    return e, w, k, z2, bound - draw(st.integers(-4, most)), wp


def loop_term(e, w, k, z2, u, wp):
    """The term ``oracle._half_sum`` makes of one node, planted as the one
    stored row of a side with the pairs e and w: the loop's sum from 0 is the
    term itself."""
    return _half_sum(0, [[e, w]], None, 1, 1, k, z2, u, wp)[0]


@settings(deadline=None)
@given(node_terms())
# damped at k = 0, z2 = 2**60 and e = 1 at wp = 53: 60 binades apart, inside
# T = 99, so e counts, and x = 2**200 / (2**60 + 1) floors below 2**140
@example(((1, 0), (1, 200), 0, (1, 60), 0, 53))
# the same with e 100 binades below z2, past T: dropped, x within 2**-T
@example(((1, 0), (1, 200), 0, (1, 100), 0, 53))
# z2 the smaller, 99 and 100 binades below e, at k = 2
@example(((5, 100), (7, 30), 2, (3, 2), -40, 53))
@example(((5, 100), (7, 30), 2, (3, 1), -40, 53))
# undamped: W * e**3 in units of 2**-5, a negative shift, and a term below one unit
@example(((3, -2), (5, 10), 3, None, -5, 20))
@example(((3, -2), (5, 10), 3, None, 40, 20))
@example(((2**20 - 1, -30), (2**20 - 1, -30), 0, None, -10, 20))
def test_a_node_term_is_the_floor_of_its_exact_value(node):
    # x = W * e**k / (z2 + e) in units of 2**u, exact; where the loop drops
    # the smaller addend, the term lies in [floor(x), x * (1 + 2**-T)], and
    # within 2 of x below 2**T units
    e, w, k, z2, u, wp = node
    x = exact(w) * exact(e) ** k / Fraction(2) ** u
    if z2 is not None:
        x /= exact(z2) + exact(e)
    got = loop_term(e, w, k, z2, u, wp)
    if z2 is None or abs(top(z2) - top(e)) <= far(wp):
        assert got == math.floor(x)
    else:
        assert math.floor(x) <= got <= x * (1 + Fraction(1, 2 ** far(wp)))
        if x < 2 ** far(wp):
            assert got - x < 2
