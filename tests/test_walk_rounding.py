"""The one rounder and the integer steps of its two callers against libmp.

``precision._round`` rounds a signed m * 2**e to nearest, down or up at a
given number of bits, and ``_product``, ``_quotient`` and ``_sum`` are exact
integer arithmetic followed by it.  The series walk and the quadrature's
node loop (``oracle._half_sum``) take every step through them; the loop
forms a node's term as one ``_round`` or ``_quotient`` of exact integers,
checked through the loop itself on one planted node.  libmp rounds
correctly in these modes, so each must give libmp's bits exactly:
``from_man_exp(m, e, bits, rounding)``, ``mpf_mul``, ``mpf_div`` and
``mpf_add``.  The walk's coefficient table,
``series._rounded_coefficient``, must hold ``from_rational``'s floor.  CI
runs this file a second time under the ``ci`` Hypothesis profile
(``HYPOTHESIS_PROFILE=ci``, 2,000 examples).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    fone,
    from_man_exp,
    from_rational,
    mpf_add,
    mpf_div,
    mpf_mul,
    round_ceiling,
    round_floor,
    round_nearest,
)

from envasym import coeffs
from envasym.oracle import _half_sum
from envasym.precision import _product, _quotient, _round, _sum
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
@given(st.data(), WP)
def test_product_and_quotient_are_libmps(data, wp):
    a, b = data.draw(operand(wp)), data.draw(nonzero(wp))
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
def test_sum_is_libmps(a_b_wp):
    a, b, wp = a_b_wp
    assert raw(_sum(a, b, wp)) == mpf_add(raw(a), raw(b), wp, round_nearest)


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


def odd(draw, max_bits):
    return 2 * draw(st.integers(1, 2 ** (max_bits - 1) - 1)) + 1


def top(pair):
    return pair[1] + pair[0].bit_length()


@st.composite
def node_terms(draw):
    """(e, w, k, z2, wp) for a node of ``oracle._half_sum``, z2 None for an
    undamped node.  Shapes:

    * random positive pairs of at most wp bits, z2's top up to 5,000 binades
      above or below e's;
    * an exact tie: odd W and e, k >= 1 and wp one bit shorter than
      W * e**k, so that W * e**k, and its quotient by z2 + e = 2**s, is a
      midpoint;
    * the far-gap threshold G = (k + 2) * wp + 2: the smaller of z2 and e
      G - 3 to G + 3 binades below the larger, A, and W * e**k / A often a
      midpoint or a representable number, where the stand-in for the
      smaller addend must still round to the side the true one does.
    """
    k = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["random", "tie", "threshold"]))
    if shape == "tie":
        k = max(k, 1)
        em, wm = odd(draw, 40), odd(draw, 40)
        wp = (wm * em**k).bit_length() - 1
        x, y = draw(EXPONENT), draw(EXPONENT)
        s = draw(st.integers(em.bit_length(), wp))
        z2 = draw(st.sampled_from([None, (2**s - em, x)]))
        return (em, x), (wm, y), k, z2, wp
    wp = draw(st.integers(1, 300))
    e, w = (positive(draw, wp), draw(EXPONENT)), (positive(draw, wp), draw(EXPONENT))
    if shape == "random":
        if draw(st.booleans()):
            return e, w, k, None, wp
        z2m = positive(draw, wp)
        return e, w, k, (z2m, top(e) + draw(st.integers(-5000, 5000)) - z2m.bit_length()), wp
    gap = (k + 2) * wp + 2 + draw(st.integers(-3, 3))
    small = positive(draw, wp)
    if draw(st.booleans()):  # z2 = 2**j, the larger: x = W * e**k / 2**j
        if k and draw(st.booleans()):
            em, wm = odd(draw, 30), odd(draw, 30)
            wp = (wm * em**k).bit_length() - 1
            gap = (k + 2) * wp + 2 + draw(st.integers(-3, 3))
            small, w = em, (wm, w[1])
        j = draw(st.integers(0, wp))
        z2 = (2**j, draw(EXPONENT))
        return (small, top(z2) - gap - small.bit_length()), w, k, z2, wp
    if k and draw(st.booleans()):  # e the larger: x = W * e**(k-1)
        em, wm = odd(draw, 30), odd(draw, 30)
        wp = max((wm * em ** (k - 1)).bit_length() - 1, em.bit_length(), wm.bit_length())
        gap = (k + 2) * wp + 2 + draw(st.integers(-3, 3))
        small = min(small, 2**wp - 1)
        e, w = (em, e[1]), (wm, w[1])
    return e, w, k, (small, top(e) - gap - small.bit_length()), wp


def loop_term(e, w, k, z2, wp):
    """The term ``oracle._half_sum`` makes of one node, planted at t = 1 with
    the pairs e and w: the loop's sum from a zero total is the term itself."""
    got, _ = _half_sum((0, 0), {1.0: [e, w]}, None, range(1, 2), 1.0, 1, k, z2, wp)
    return got


def node_reference(e, w, k, z2, wp):
    """The node's term in libmp calls: W * e**k exactly, then one mpf_mul,
    or one mpf_div by the exact z2 + e, at wp bits."""
    power = fone
    for _ in range(k):
        power = mpf_mul(power, raw(e))
    if z2 is None:
        return mpf_mul(raw(w), power, wp, round_nearest)
    return mpf_div(mpf_mul(raw(w), power), mpf_add(raw(z2), raw(e), 0), wp, round_nearest)


@settings(deadline=None)
@given(node_terms())
# e 11 and 43 binades below z2 = 1, inside G = 17 and 62: a stand-in at
# wp + 2 binades rounds these quotients the other way
@example(((29, -15), (26, 2), 1, (1, 0), 5))
@example(((1005, -52), (3248, -5), 3, (1, 0), 12))
def test_a_node_term_is_one_libmp_rounding(node):
    e, w, k, z2, wp = node
    got = loop_term(e, w, k, z2, wp)
    assert raw(got) == node_reference(e, w, k, z2, wp)
    assert abs(got[0]).bit_length() <= wp or got[0] == 2**wp
