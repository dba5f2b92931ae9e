"""Series evaluation, enclosures, truncation policy, and their invariants."""

import itertools
import math
import os
import subprocess
import sys
import threading
import time
import types
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_gt,
    mpf_le,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
)

import envasym
from envasym import (
    DomainError,
    QuadratureSpec,
    SeriesKind,
    ToleranceUnattainable,
    auto_truncate,
    binet_J,
    binet_J_tilde,
    envelope_interval,
    exact_ln_central_binomial,
    exact_ln_factorial,
    exact_ln_gamma_half,
    ln_central_binomial,
    ln_factorial_demoivre,
    ln_gamma,
    ln_gamma_plus_half,
    min_term_index,
    partial_sum,
    term,
)
from envasym import coeffs, precision, series
from envasym._expansions import Expansion, _constants
from envasym.coeffs import COEFFICIENT_FAMILIES, beta, beta_hat, beta_tilde
from envasym.precision import _pair, positive_real, real_to_fraction, rounded
from envasym.series import INDEX_CAP

P = 256
SPEC = QuadratureSpec(precision=P)
ALL_KINDS = list(SeriesKind)


def decimal_below(x: Fraction, digits: int = 80) -> str:
    """x rounded down to a decimal string of the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_FLOOR
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def exactly_close(got, expected: Fraction, bits: int = 250) -> bool:
    """Exact-rational comparison, immune to the ambient mpmath precision."""
    return abs(real_to_fraction(got) - expected) < Fraction(1, 2**bits)


def assert_contains_is_exact(enclosure, lo, hi):
    """``contains`` on the exact rationals at its ends and 2**-2000 past them."""
    lo, hi, tiny = real_to_fraction(lo), real_to_fraction(hi), Fraction(1, 2**2000)
    assert enclosure.contains(lo) and enclosure.contains(hi)
    assert not enclosure.contains(lo - tiny) and not enclosure.contains(hi + tiny)

FAMILY = {
    SeriesKind.BINET_J: beta,
    SeriesKind.CENTRAL_BINOMIAL: beta_tilde,
    SeriesKind.GAMMA_PLUS_HALF: beta_hat,
    SeriesKind.DE_MOIVRE: beta_hat,
}


def frac_term(kind, j, zf: Fraction) -> Fraction:
    """Independent exact-rational term oracle."""
    if kind is SeriesKind.DE_MOIVRE:
        zf = zf + Fraction(1, 2)
    sign = (1 if j % 2 == 0 else -1) if kind is SeriesKind.BINET_J else (
        -1 if j % 2 == 0 else 1
    )
    return sign * FAMILY[kind](j) / zf ** (2 * j + 1)


def frac_partial_sum(kind, zf: Fraction, k: int) -> Fraction:
    return sum((frac_term(kind, j, zf) for j in range(k)), Fraction(0))


def scan_min_term_index(kind, zf: Fraction, k_cap=60) -> int:
    """Brute-force scan oracle using zeta-form coefficient magnitudes.

    Coefficients come from 2*(2k)! zeta(2k+2) / (2 pi)^(2k+2) rather than
    Bernoulli numbers, so this check does not share a code path with the
    production coefficients.
    """
    if kind is SeriesKind.DE_MOIVRE:
        zf = zf + Fraction(1, 2)
    with mp.workprec(200):
        mags = []
        for k in range(k_cap):
            base = (
                2 * mp.factorial(2 * k) * mp.zeta(2 * k + 2) / (2 * mp.pi) ** (2 * k + 2)
            )
            if kind is SeriesKind.CENTRAL_BINOMIAL:
                base *= 2 - mpf(2) ** (-2 * k - 1)
            elif kind in (SeriesKind.GAMMA_PLUS_HALF, SeriesKind.DE_MOIVRE):
                base *= 1 - mpf(2) ** (-2 * k - 1)
            mags.append(base / mp.convert(zf) ** (2 * k + 1))
        for k in range(k_cap - 1):
            if mags[k + 1] >= mags[k]:
                return k
    raise AssertionError("scan cap too small")


class TestTerm:
    def test_binet_first_term_at_one(self):
        assert exactly_close(term(SeriesKind.BINET_J, 0, 1), Fraction(1, 12))

    def test_central_binomial_first_term_is_negative(self):
        got = term(SeriesKind.CENTRAL_BINOMIAL, 0, 1)
        assert exactly_close(got, Fraction(-1, 8))

    def test_gamma_half_second_term_at_two(self):
        # beta_hat(1) / 2^3 with a positive sign
        got = term(SeriesKind.GAMMA_PLUS_HALF, 1, 2)
        assert exactly_close(got, Fraction(7, 23040))

    def test_demoivre_uses_half_shift(self):
        got = term(SeriesKind.DE_MOIVRE, 0, 1)
        assert exactly_close(got, -Fraction(1, 24) / Fraction(3, 2))

    def test_rejects_nonpositive_argument(self):
        for bad in (0, -1, "-2.5"):
            with pytest.raises(DomainError):
                term(SeriesKind.BINET_J, 0, bad)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            term(SeriesKind.BINET_J, -1, 1)


class TestPartialSum:
    def test_empty_sum_is_zero(self):
        assert partial_sum(SeriesKind.BINET_J, mpf("7.25"), 0) == 0

    def test_binet_two_terms_at_one(self):
        got = partial_sum(SeriesKind.BINET_J, 1, 2)
        assert exactly_close(got, Fraction(29, 360))

    def test_central_binomial_one_term_at_ten(self):
        got = partial_sum(SeriesKind.CENTRAL_BINOMIAL, 10, 1)
        assert exactly_close(got, Fraction(-1, 80))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        k=st.integers(min_value=0, max_value=12),
        z=st.fractions(
            min_value=Fraction(1, 4), max_value=64, max_denominator=2**20
        ),
    )
    def test_matches_exact_rational_oracle(self, kind, k, z):
        expected = frac_partial_sum(kind, z, k)
        got = partial_sum(kind, z, k, P)
        with mp.workprec(320):
            assert abs(got - mp.convert(expected)) <= mpf(2) ** -(P - 8) * (
                1 + abs(mp.convert(expected))
            )


class TestEnvelopeInterval:
    def test_binet_zeroth_interval_at_one(self):
        env = envelope_interval(SeriesKind.BINET_J, 1, 0)
        assert exactly_close(env.lo, Fraction(0), bits=200)
        assert exactly_close(env.hi, Fraction(1, 12), bits=200)
        assert exactly_close(env.bound, Fraction(1, 12), bits=200)
        # J(1) = 1 - ln(2 pi)/2 sits inside
        with mp.workprec(320):
            assert env.contains(1 - mp.log(2 * mp.pi) / 2)

    def test_central_binomial_interval_at_ten(self):
        env = envelope_interval(SeriesKind.CENTRAL_BINOMIAL, 10, 1)
        assert exactly_close(env.lo, Fraction(-1, 80), bits=200)
        assert exactly_close(env.hi, Fraction(-1, 80) + Fraction(1, 192) / 1000, bits=200)
        with mp.workprec(320):
            truth = exact_ln_central_binomial(10, 320) - (
                10 * mp.log(4) - mp.log(10 * mp.pi) / 2
            )
            assert env.contains(truth)

    def test_gamma_half_interval_at_five(self):
        env = envelope_interval(SeriesKind.GAMMA_PLUS_HALF, 5, 2)
        width = real_to_fraction(env.hi) - real_to_fraction(env.lo)
        assert abs(width - Fraction(31, 40320) / 5**5) < Fraction(1, 2**200)
        with mp.workprec(320):
            truth = exact_ln_gamma_half(5, 320) - (
                5 * mp.log(5) - 5 + mp.log(2 * mp.pi) / 2
            )
            assert env.contains(truth)

    def test_contains_decides_a_fraction_exactly(self):
        env = envelope_interval(SeriesKind.BINET_J, 5, 2)
        assert_contains_is_exact(env, env.lo, env.hi)
        assert env.contains(Fraction(1, 60)) is False  # s_1 = 1/60 lies above s_2 and s_3

    def test_width_equals_bound_up_to_slop(self):
        # the outward padding is relative to the endpoint magnitudes
        env = envelope_interval(SeriesKind.BINET_J, mpf("2.5"), 3)
        width = real_to_fraction(env.hi) - real_to_fraction(env.lo)
        bound = real_to_fraction(env.bound)
        scale = max(abs(real_to_fraction(env.lo)), abs(real_to_fraction(env.hi)))
        assert bound <= width <= bound + 4 * scale * Fraction(1, 2 ** (P - 32))


def ambient_walk(row, zz, wp):
    """(s_j, t_j) for j = 0, 1, 2, ... from mpf operators in the global context
    at wp bits, with the running power zz^(2j+1) and ``mp.convert`` of the
    exact coefficient: the bit-for-bit reference for ``series._walk``."""
    total, power = mpf(0), zz
    with mp.workprec(wp):
        zz2 = zz * zz
    for j in itertools.count():
        with mp.workprec(wp):
            t_j = row.sign(j) * mp.convert(row.coefficient(j)) / power
        yield total, t_j
        with mp.workprec(wp):
            total += t_j
            power *= zz2


def ambient_pair(row, zz, k, wp):
    """(s_k, t_k) of ``ambient_walk``."""
    return next(itertools.islice(ambient_walk(row, zz, wp), k, None))


def libmp_prefix(kind, x, wp):
    """The elementary prefix at a libmp x as libmp calls at wp, to nearest:
    the reference for the pair prefixes of ``_expansions``."""
    rnd = round_nearest
    pi = mpf_pi(wp, rnd)
    half_ln_2pi = mpf_shift(mpf_log(mpf_shift(pi, 1), wp, rnd), -1)
    if kind is SeriesKind.CENTRAL_BINOMIAL:  # x ln 4 - ln(pi x)/2
        half_ln_pi_x = mpf_shift(mpf_log(mpf_mul(pi, x, wp, rnd), wp, rnd), -1)
        return mpf_sub(mpf_mul(x, mpf_log(from_int(4), wp, rnd), wp, rnd), half_ln_pi_x, wp, rnd)
    if kind is SeriesKind.BINET_J:  # (x - 1/2) ln x - x + ln(2 pi)/2
        factor = mpf_sub(x, from_man_exp(1, -1), wp, rnd)
    else:  # x ln x - x + ln(2 pi)/2
        factor = x
    product = mpf_mul(factor, mpf_log(x, wp, rnd), wp, rnd)
    return mpf_add(mpf_sub(product, x, wp, rnd), half_ln_2pi, wp, rnd)


def ambient_certificates(kind, xf, k, precision):
    """The certified path at k as libmp calls at wp = precision + 32, to
    nearest, over ``ambient_walk``: the reference for the pair assembly.
    Returns the libmp tuples of ``_certificates``' value, error bound and
    ``interval()`` ends, then of ``envelope_interval``'s lo, hi and bound, at
    the exact, already shifted argument xf."""
    wp, rnd = precision + 32, round_nearest

    def margin(x):
        return mpf_shift(mpf_abs(x), 32 - precision)

    x = from_rational(xf.numerator, xf.denominator, wp, rnd)
    s_k, t_k = raw(*ambient_pair(kind.row, mp.make_mpf(x), k, wp))
    value = mpf_add(libmp_prefix(kind, x, wp), s_k, wp, rnd)
    sign = kind.row.sign(k)
    anchored = (mpf_sub if sign > 0 else mpf_add)(value, margin(value), wp, rnd)
    bound = mpf_add(mpf_add(mpf_abs(t_k), margin(t_k), wp, rnd),
                    mpf_shift(margin(value), 1), wp, rnd)
    value, bound = mpf_pos(anchored, precision, rnd), mpf_pos(bound, precision, rnd)
    other = (mpf_add if sign > 0 else mpf_sub)(value, bound, wp, rnd)
    s_next = mpf_add(s_k, t_k, wp, rnd)
    lo, hi = (s_k, s_next) if mpf_le(s_k, s_next) else (s_next, s_k)
    pad = margin(hi if mpf_gt(hi, mpf_neg(lo)) else lo)
    return [value, bound, *((value, other) if sign > 0 else (other, value)),
            mpf_pos(mpf_sub(lo, pad, wp, rnd), precision, rnd),
            mpf_pos(mpf_add(hi, pad, wp, rnd), precision, rnd),
            mpf_pos(mpf_add(mpf_abs(t_k), margin(t_k), wp, rnd), precision, rnd)]


@st.composite
def certified_cases(draw):
    """(kind, z, k, precision): every kind, an exact rational z > 0 from
    about 1e-4 to 1e6, k from 0 to 30 and P from 64 to 1,024 bits."""
    z = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**4)))
    return (draw(st.sampled_from(ALL_KINDS)), z, draw(st.integers(0, 30)),
            draw(st.integers(64, 1024)))


class TestPairAssembly:
    """The certified path on pairs against the same path as libmp calls,
    bit for bit.  CI runs the property under the ``ci`` Hypothesis profile."""

    @settings(deadline=None)
    @given(certified_cases())
    def test_the_assembly_is_the_libmp_assembly(self, case):
        kind, z, k, precision = case
        xf = series._exact_argument(kind, z, precision)
        cv = next(series._certificates(kind, xf, k, precision))
        env = envelope_interval(kind, z, k, precision)
        assert (cv.k_used, cv.error_sign) == (k, kind.row.sign(k))
        assert raw(cv.value, cv.error_bound, *cv.interval(), env.lo, env.hi, env.bound) == (
            ambient_certificates(kind, xf, k, precision))


SUM_PRECISIONS = (64, 256, 512)
# dyadic, non-dyadic, integer; 3's odd powers cross wp + 1 bits, so some
# steps of the walk are exact ties
SUM_ARGUMENTS = ("2.75", "7.3", "0.3", 5, 40, 3)
SUM_K_MAX = 160


class TestRoundedCoefficientSum:
    """The libmp walk over the rounded-coefficient table against the ambient
    ``mp.convert`` loop it replaced, bit for bit at the working precision."""

    @pytest.mark.parametrize("precision", SUM_PRECISIONS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_the_walk_matches_the_ambient_loop(self, kind, precision):
        wp = precision + 32
        for z in SUM_ARGUMENTS:
            zz = series._checked_argument(kind, z, precision)
            expected = itertools.islice(ambient_walk(kind.row, zz, wp), SUM_K_MAX + 1)
            got = itertools.islice(series._walk(kind.row, _pair(zz._mpf_), wp), SUM_K_MAX + 1)
            for k, (pairs, want) in enumerate(zip(got, expected, strict=True)):
                assert packed(*pairs) == raw(*want), (z, k)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_the_ambient_precision_is_not_read(self, kind):
        wp = 256 + 32
        zz = series._checked_argument(kind, "7.3", 256)
        expected = ambient_pair(kind.row, zz, 40, wp)
        with mp.workprec(53):
            got = series._walk_to(kind.row, _pair(zz._mpf_), wp, 40)
            assert mp.prec == 53
        assert packed(*got) == raw(*expected)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_walk_from_start_is_the_tail_of_the_whole_walk(self, kind):
        wp = 256 + 32
        zz = _pair(series._checked_argument(kind, "7.3", 256)._mpf_)
        for start in (0, 1, 7, 40):
            assert (list(itertools.islice(series._walk(kind.row, zz, wp, start), 10))
                    == list(itertools.islice(series._walk(kind.row, zz, wp), start, start + 10)))

    def test_a_far_argument_keeps_the_sum_without_aligning(self):
        # every term past t_0 lies some 664,000 binades below the sum; an
        # exact alignment would build integers of hundreds of millions of bits
        row, wp = SeriesKind.BINET_J.row, 256 + 32
        zz = series._checked_argument(SeriesKind.BINET_J, "1e100000", 256)
        expected = ambient_pair(row, zz, 300, wp)
        start = time.perf_counter()
        got = series._walk_to(row, _pair(zz._mpf_), wp, 300)
        assert time.perf_counter() - start < 0.5
        assert packed(*got) == raw(*expected)

    def test_the_coefficient_table_is_bounded(self):
        assert series._rounded_coefficient.cache_info().maxsize == 8192

    @pytest.mark.parametrize("precision", SUM_PRECISIONS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_public_results_are_unchanged(self, kind, precision, monkeypatch):
        ks = (0, 1, 7, 40, SUM_K_MAX)
        new = {z: [(term(kind, k, z, precision), partial_sum(kind, z, k, precision),
                    envelope_interval(kind, z, k, precision))
                   for k in ks] for z in SUM_ARGUMENTS}

        def ambient(row, x, wp, start=0):
            x = mp.make_mpf(from_man_exp(*x))
            for pair in itertools.islice(ambient_walk(row, x, wp), start, None):
                yield tuple(_pair(v._mpf_) for v in pair)

        monkeypatch.setattr(series, "_walk", ambient)
        for z in SUM_ARGUMENTS:
            for k, results in zip(ks, new[z]):
                assert results == (term(kind, k, z, precision), partial_sum(kind, z, k, precision),
                                   envelope_interval(kind, z, k, precision)), (z, k)


# The certified path as it ran in the global mpmath context, before every
# step became a libmp call at an explicit precision: the references for the
# bit-for-bit tests below.

def ambient_positive_real(x, precision):
    with mp.workprec(precision + 32):
        return +mp.convert(x)


AMBIENT_PREFIXES = {
    SeriesKind.BINET_J: lambda x: (x - mpf(1) / 2) * mp.log(x) - x + mp.log(2 * mp.pi) / 2,
    SeriesKind.CENTRAL_BINOMIAL: lambda x: x * mp.log(4) - mp.log(mp.pi * x) / 2,
    SeriesKind.GAMMA_PLUS_HALF: lambda x: x * mp.log(x) - x + mp.log(2 * mp.pi) / 2,
    SeriesKind.DE_MOIVRE: lambda x: x * mp.log(x) - x + mp.log(2 * mp.pi) / 2,
}


def ambient_argument(kind, z, precision):
    zz = ambient_positive_real(z, precision)
    if kind.row.half_shift:
        with mp.workprec(precision + 32):
            zz = zz + mpf(1) / 2
    return zz


def ambient_certified(kind, z, k, precision):
    """(value, error_bound, error_sign) of ``series._certificates``' first value."""
    zz = ambient_argument(kind, z, precision)
    with mp.workprec(precision + 32):
        s_k, t_k = ambient_pair(kind.row, zz, k, precision + 32)
        value = AMBIENT_PREFIXES[kind](zz) + s_k
        sign = kind.row.sign(k)
        slop = mpf(2) ** (32 - precision)
        anchored = value - sign * slop * abs(value)
        bound = abs(t_k) * (1 + slop) + 2 * slop * abs(value)
    with mp.workprec(precision):
        return +anchored, +bound, sign


def ambient_envelope(kind, z, k, precision):
    """(lo, hi, bound) of ``series.envelope_interval``."""
    zz = ambient_argument(kind, z, precision)
    with mp.workprec(precision + 32):
        s_k, t_k = ambient_pair(kind.row, zz, k, precision + 32)
        s_next = s_k + t_k
        lo, hi = (s_k, s_next) if s_k <= s_next else (s_next, s_k)
        slop = mpf(2) ** (32 - precision)
        pad = slop * max(abs(lo), abs(hi))
        lo, hi, bound = lo - pad, hi + pad, abs(t_k) * (1 + slop)
    with mp.workprec(precision):
        return +lo, +hi, +bound


def ambient_interval(value, error_bound, error_sign, precision):
    """``CertifiedValue.interval()``."""
    with mp.workprec(precision + 32):
        other = value + error_sign * error_bound
    return (value, other) if error_sign > 0 else (other, value)


def long_mpf(precision):
    """An mpf near 4/3 with 50 bits more than the working precision."""
    bits = precision + 32 + 50
    return mp.make_mpf(from_man_exp((1 << (bits + 1)) // 3 | 1, -bits + 1))


EXPLICIT_PRECISIONS = (64, 128, 256, 512)
EXPLICIT_KS = (0, 1, 4, 9)


def explicit_arguments(precision):
    """z as an int, a dyadic, a decimal string, "1/3", a long mpf and a numpy float64."""
    return (7, 2.75, "20.37", "1/3", long_mpf(precision), np.float64(7.3))


def raw(*xs):
    return [x._mpf_ for x in xs]


def packed(*pairs):
    """The libmp tuples of (mantissa, exponent) pairs."""
    return [from_man_exp(*pair) for pair in pairs]


class TestExplicitPrecisionPath:
    """The libmp certified path against the global-context path it replaced,
    bit for bit, whatever the ambient precision."""

    @pytest.mark.parametrize("ambient", (53, 1000))
    @pytest.mark.parametrize("precision", EXPLICIT_PRECISIONS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_the_global_context_path(self, kind, precision, ambient):
        for z in explicit_arguments(precision):
            with mp.workprec(ambient):
                zz = positive_real(z, precision, "z")
                want_zz = ambient_positive_real(z, precision)
                prefix = from_man_exp(*kind.row.prefix(_pair(zz._mpf_), precision + 32))
                with mp.workprec(precision + 32):
                    want_prefix = AMBIENT_PREFIXES[kind](zz)
                got, want = [], []
                for k in EXPLICIT_KS:
                    cv = next(series._certificates(
                        kind, series._exact_argument(kind, z, precision), k, precision))
                    value, bound, sign = ambient_certified(kind, z, k, precision)
                    env = envelope_interval(kind, z, k, precision)
                    got.append((raw(cv.value, cv.error_bound, *cv.interval(),
                                    env.lo, env.hi, env.bound), cv.error_sign))
                    want.append((raw(value, bound,
                                     *ambient_interval(value, bound, sign, precision),
                                     *ambient_envelope(kind, z, k, precision)), sign))
                assert mp.prec == ambient
            assert zz._mpf_ == want_zz._mpf_, z
            assert prefix == want_prefix._mpf_, z
            assert got == want, z

    @pytest.mark.parametrize("precision", EXPLICIT_PRECISIONS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_public_evaluations_match(self, kind, precision):
        evaluate = getattr(series, kind.row.evaluation)
        zs = (1, 12, 10**5) if kind.row.integer_argument else explicit_arguments(precision)
        for z in zs:
            for k in EXPLICIT_KS:
                cv = evaluate(z, terms=k, precision=precision)
                value, bound, sign = ambient_certified(kind, z, k, precision)
                assert raw(cv.value, cv.error_bound) == raw(value, bound), (z, k)

    @pytest.mark.parametrize("wp", (53, 96, 160, 288, 544, 1056, 3232))
    def test_the_constants_are_the_global_context_ones(self, wp):
        with mp.workprec(wp):
            want = raw(mp.log(2 * mp.pi) / 2, mp.log(4), +mp.pi)
        assert packed(*_constants(wp)) == want

    def test_the_log_estimate_is_cached(self):
        assert coeffs.log_estimate.cache_info().maxsize == 4096

    def test_the_private_context_is_not_the_global_one(self):
        ctx = precision._context(256)
        assert ctx is not mp and ctx.prec == 288
        with mp.workprec(53):
            x = positive_real("0.1", 256, "x")
        assert x._mpf_ == ambient_positive_real("0.1", 256)._mpf_
        assert ctx.prec == 288

    def test_complex_input_is_rejected(self):
        for z in (2j, "2+1j", mp.mpc(2, 0)):
            with pytest.raises(DomainError, match="must be a finite real > 0"):
                positive_real(z, 64, "z")


def _race(background, threads: int, main):
    """``main()`` while ``threads`` threads loop ``background()``, with the
    interpreter switching threads every 10 microseconds."""
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            background()

    workers = [threading.Thread(target=loop, daemon=True) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        return main()
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=30)
        sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)


class TestThreads:
    """Evaluations at one precision while other threads evaluate at another
    give the serial bits: no step reads or sets the global precision."""

    def test_central_binomial_beside_a_64_bit_ln_gamma(self):
        def call():
            cv = ln_central_binomial(10**5, terms=10, precision=256)
            return raw(cv.value, cv.error_bound)

        serial = call()
        results = _race(lambda: ln_gamma("7.3", terms=5, precision=64), 1,
                        lambda: [call() for _ in range(600)])
        mismatches = sum(result != serial for result in results)
        assert mismatches == 0, f"{mismatches} of 600 differ from the serial result"

    def test_decimal_strings_beside_two_64_bit_threads(self):
        def call():
            cv = ln_gamma("20.37", terms=12, precision=256)
            env = envelope_interval(SeriesKind.DE_MOIVRE, 40, 7, 512)
            return raw(cv.value, cv.error_bound, *cv.interval(), env.lo, env.hi, env.bound)

        serial = call()
        results = _race(lambda: ln_gamma_plus_half("7.3", terms=5, precision=64), 2,
                        lambda: [call() for _ in range(400)])
        mismatches = sum(result != serial for result in results)
        assert mismatches == 0, f"{mismatches} of 400 differ from the serial result"


class TestNoGlobalPrecisionWrites:
    CALLS = {
        "ln_gamma tol": lambda: ln_gamma("7.3", "1e-20"),
        "ln_gamma terms": lambda: ln_gamma("7.3", terms=5, precision=64),
        "ln_central_binomial tol": lambda: ln_central_binomial(10**5, "1e-30"),
        "ln_central_binomial terms": lambda: ln_central_binomial(12, terms=3),
        "ln_gamma_plus_half tol": lambda: ln_gamma_plus_half("13/3", "1e-6", precision=128),
        "ln_gamma_plus_half terms": lambda: ln_gamma_plus_half(np.float64(7.3), terms=4),
        "ln_factorial_demoivre tol": lambda: ln_factorial_demoivre(40, "1e-40", precision=512),
        "ln_factorial_demoivre terms": lambda: ln_factorial_demoivre(40, terms=7),
        "envelope_interval": lambda: envelope_interval(SeriesKind.BINET_J, "20.37", 6),
        "term": lambda: term(SeriesKind.GAMMA_PLUS_HALF, 3, "2.75"),
        "partial_sum": lambda: partial_sum(SeriesKind.DE_MOIVRE, 9, 5, 128),
        "auto_truncate": lambda: auto_truncate(SeriesKind.CENTRAL_BINOMIAL, "3.5", "1e-9"),
        "auto_truncate mpf": lambda: auto_truncate(SeriesKind.BINET_J, mpf("7.3"), "1e-12"),
        "min_term_index": lambda: min_term_index(SeriesKind.BINET_J, "7.3"),
        "interval": lambda: ln_gamma("0.5", terms=2, precision=64).interval(),
    }

    @staticmethod
    def floor_raise():
        with pytest.raises(ToleranceUnattainable):
            ln_gamma("2.5", "1e-300")

    @staticmethod
    def precision_raise():
        with pytest.raises(ToleranceUnattainable, match="raise the precision"):
            ln_gamma("7.3", "1e-20", precision=64)

    def test_the_series_path_never_sets_the_global_precision(self, precision_writes):
        calls = [*self.CALLS.values(), self.floor_raise, self.precision_raise]
        for call in calls:  # make the private contexts and fill the caches
            call()
        writes = precision_writes()
        for call in calls:
            call()
        assert writes == []


class TestMinTermIndex:
    def test_binet_at_one(self):
        # terms shrink through beta_3 = 1/1680 and grow again at beta_4 = 1/1188
        assert min_term_index(SeriesKind.BINET_J, 1) == 3
        assert min_term_index(SeriesKind.BINET_J, 1) == scan_min_term_index(
            SeriesKind.BINET_J, Fraction(1)
        )

    def test_central_binomial_at_one(self):
        assert min_term_index(
            SeriesKind.CENTRAL_BINOMIAL, 1
        ) == scan_min_term_index(SeriesKind.CENTRAL_BINOMIAL, Fraction(1))

    def test_binet_at_ten(self):
        got = min_term_index(SeriesKind.BINET_J, 10)
        assert got == scan_min_term_index(SeriesKind.BINET_J, Fraction(10))
        assert got <= 40

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize(
        "z", [Fraction(1, 2), Fraction(1), Fraction(5), Fraction(1, 10**300)]
    )
    def test_matches_scan_oracle(self, kind, z):
        assert min_term_index(kind, z) == scan_min_term_index(kind, z)

    @pytest.mark.parametrize("z", ["nan", "inf", "0", "-1", "abc", float("inf"), 0, -1,
                                   mpf("nan"), mpf("-inf"), None], ids=repr)
    def test_rejects_what_is_not_a_positive_real(self, z):
        with pytest.raises(DomainError, match="^series argument must be a finite real > 0"):
            min_term_index(SeriesKind.BINET_J, z)

    def test_a_tie_turns_at_the_earlier_index(self):
        # no family's c(k+1)/c(k) is the square of a rational for k < 60, so
        # no argument spells a tie; c(k) = 4**-k ties at x = 1/2 for every k
        row = types.SimpleNamespace(coefficient=lambda k: Fraction(1, 4**k))
        assert series._turns(row, Fraction(1, 2), 3)
        assert not series._turns(row, Fraction(1), 3)

    def test_term_magnitudes_pivot_at_index(self):
        kind = SeriesKind.BINET_J
        k_star = min_term_index(kind, 2)
        mags = [abs(term(kind, j, 2)) for j in range(k_star + 2)]
        for j in range(k_star):
            assert mags[j + 1] < mags[j]
        assert mags[k_star + 1] >= mags[k_star]


class TestAutoTruncate:
    @pytest.mark.parametrize("z", [100, "1e400"])
    def test_loose_tolerance_needs_no_terms(self, z):
        k, bound = auto_truncate(SeriesKind.BINET_J, z, "1e-3")
        assert k == 0
        with mp.workprec(P + 32):
            first = Fraction(1, 12) / real_to_fraction(mpf(z))
        bound_frac = real_to_fraction(bound)
        assert first <= bound_frac < first * (1 + Fraction(1, 2**200))
        assert bound <= mpf("1e-3")

    @pytest.mark.parametrize("tol", ["1e-10", "1e-5000"])
    def test_accuracy_floor_at_one(self, tol):
        with pytest.raises(ToleranceUnattainable) as info:
            auto_truncate(SeriesKind.BINET_J, 1, tol)
        exc = info.value
        assert exc.k_best == 3
        with mp.workprec(320):
            assert abs(exc.best_bound - mp.convert(Fraction(1, 1680))) < mpf(2) ** -200

    def test_a_floor_far_past_the_digit_limit_raises_its_own_error(self):
        # the message printed the 20,000-bit tol in full and passed Python's
        # 4,300-digit limit on int-to-str conversion, a ValueError
        with pytest.raises(ToleranceUnattainable, match="accuracy floor") as info:
            ln_gamma("7.3", "1e-5000", precision=20000)
        assert info.value.k_best == 23
        assert "1.0e-5000" in str(info.value)

    def test_central_binomial_scan(self):
        # |terms| at n = 10: 1.25e-2, 5.2e-6, 1.56e-8 <= 1e-6 first at k = 2
        k, bound = auto_truncate(SeriesKind.CENTRAL_BINOMIAL, 10, "1e-6")
        assert k == 2
        with mp.workprec(320):
            assert abs(bound - mp.convert(Fraction(1, 640) / 10**5)) < mpf(2) ** -200

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        z=st.fractions(min_value=Fraction(1, 2), max_value=40, max_denominator=1024),
        exponent=st.integers(min_value=1, max_value=30),
    )
    # each kind: met at k = 0, 2 and 9, and beyond the floor at k* = 1 and 9
    @example(kind=SeriesKind.GAMMA_PLUS_HALF, z=Fraction(7, 2), exponent=1)
    @example(kind=SeriesKind.BINET_J, z=Fraction(1023, 1024), exponent=1)
    @example(kind=SeriesKind.CENTRAL_BINOMIAL, z=Fraction(10), exponent=6)
    @example(kind=SeriesKind.DE_MOIVRE, z=Fraction(40), exponent=30)
    @example(kind=SeriesKind.BINET_J, z=Fraction(1, 2), exponent=30)
    @example(kind=SeriesKind.GAMMA_PLUS_HALF, z=Fraction(1, 2), exponent=3)
    @example(kind=SeriesKind.CENTRAL_BINOMIAL, z=Fraction(3), exponent=12)
    def test_policy_postconditions(self, kind, z, exponent):
        tol = mpf(10) ** -exponent
        k_star = min_term_index(kind, z)
        try:
            k, bound = auto_truncate(kind, z, tol)
        except ToleranceUnattainable as exc:
            assert exc.best_bound > tol
            assert exc.k_best == k_star
        else:
            assert bound <= tol
            assert k <= k_star
            if k > 0:
                assert abs(term(kind, k - 1, z)) > tol * (1 - mpf(2) ** -200)

    def test_bound_rounds_up_at_the_tolerance_boundary(self):
        # The widened k = 0 bound at z = 3 lies just below this tolerance;
        # rounded to nearest at 64 bits it would land just above it.
        tol = "0.02777777778424529565724016368011901118"
        k, bound = auto_truncate(SeriesKind.BINET_J, 3, tol, 64)
        assert real_to_fraction(bound) <= Fraction(tol)
        assert k == 1

    def test_decides_against_the_exact_tolerance(self):
        # tol is 2**-200 below the k = 0 bound; rounded to nearest at P + 32
        # bits it would equal that bound, and k = 0 would be accepted.
        _, bound0 = auto_truncate(SeriesKind.BINET_J, 3, "1", 64)
        tol = decimal_below(real_to_fraction(bound0) - Fraction(1, 2**200))
        k, bound = auto_truncate(SeriesKind.BINET_J, 3, tol, 64)
        assert real_to_fraction(bound) <= Fraction(tol)
        assert k == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bound_never_exceeds_a_tolerance_just_above_the_exact_bound(self, kind):
        p = 64
        for z in (3, 7, 20):
            for k in range(4):
                exact = abs(frac_term(kind, k, Fraction(z))) * (1 + Fraction(1, 2 ** (p - 32)))
                tol = mp.make_mpf(
                    from_rational(exact.numerator, exact.denominator, p + 32, round_ceiling)
                )
                k_used, bound = auto_truncate(kind, z, tol, p)
                assert bound <= tol
                assert k_used in (k, k + 1)

    @pytest.mark.parametrize("z", ["1", "2.3", "4.75", "6.1", "1e-300"])
    def test_best_bound_is_an_attainable_tolerance(self, z):
        with pytest.raises(ToleranceUnattainable) as info:
            auto_truncate(SeriesKind.BINET_J, z, "1e-60", 64)
        exc = info.value
        assert auto_truncate(SeriesKind.BINET_J, z, exc.best_bound, 64) == (
            exc.k_best, exc.best_bound
        )

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            auto_truncate(SeriesKind.BINET_J, 5, 0)
        with pytest.raises(DomainError):
            auto_truncate(SeriesKind.BINET_J, 5, "-1e-5")


def scan_reference(kind, z, precision, tol=None):
    """The linear scan the searches replaced: k = 0, 1, ... in exact rationals.

    Decides on ``Fraction(z)``, the number z spells, and stops at the first k
    whose rounded-up bound meets ``tol`` (when given), else where the terms
    turn, c(k+1) >= c(k) x^2.  Returns (k, bound, met); bound is None without
    ``tol``.
    """
    xf = Fraction(z) + (Fraction(1, 2) if kind is SeriesKind.DE_MOIVRE else 0)
    if tol is not None:
        tol = real_to_fraction(tol) if isinstance(tol, mpf) else Fraction(tol)
    inflate = 1 + Fraction(1, 2 ** (precision - 32))
    xf2 = xf * xf
    power, bound, k = xf, None, 0
    c = kind.row.coefficient(0)
    while True:
        if tol is not None:
            x = c * inflate / power
            bound = rounded(x.numerator, x.denominator, precision, round_ceiling)
            if real_to_fraction(bound) <= tol:
                return k, bound, True
        c_next = kind.row.coefficient(k + 1)
        if c_next >= c * xf2:
            return k, bound, False
        c, k = c_next, k + 1
        if tol is not None:
            power *= xf2


def search_result(kind, z, precision, tol):
    """auto_truncate's answer in scan_reference's shape."""
    try:
        k, bound = auto_truncate(kind, z, tol, precision)
    except ToleranceUnattainable as exc:
        return exc.k_best, exc.best_bound, False
    return k, bound, True


def scan_bound(kind, z, precision, j):
    """scan_reference's rounded-up bound at index j, as a Fraction."""
    xf = Fraction(z) + (Fraction(1, 2) if kind is SeriesKind.DE_MOIVRE else 0)
    x = kind.row.coefficient(j) * (1 + Fraction(1, 2 ** (precision - 32))) / xf ** (2 * j + 1)
    return real_to_fraction(rounded(x.numerator, x.denominator, precision, round_ceiling))


@st.composite
def search_arguments(draw):
    """z = p/q from 0.5 to 300, one binade drawn first, so that most draws keep
    the reference scan to the turn short."""
    q, e = draw(st.integers(1, 16)), draw(st.integers(-1, 8))
    lo, hi = max(Fraction(1, 2), Fraction(2) ** e), min(Fraction(300), Fraction(2) ** (e + 1))
    return Fraction(draw(st.integers(math.ceil(lo * q), math.floor(hi * q))), q)


# Dyadic and non-dyadic real arguments from 0.5 to about 300.
REAL_ARGUMENTS = ["0.5", "0.7", "1", "2.25", "3.1", "17.5", "20.3", "49.9", "64",
                  "123.4", "299.9", "300"]
SEARCH_PRECISIONS = [64, 256, 512]


class TestSearchesMatchTheScan:
    """Both searches give the linear scan's answer, bit for bit."""

    @pytest.mark.parametrize("precision", SEARCH_PRECISIONS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_min_term_index(self, kind, precision):
        arguments = ([1, 2, 7, 50, 300] if kind.row.integer_argument
                     else REAL_ARGUMENTS)
        for z in arguments:
            assert min_term_index(kind, z, precision) == scan_reference(
                kind, z, precision)[0], z

    @pytest.mark.parametrize("precision", SEARCH_PRECISIONS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_auto_truncate_on_real_arguments(self, kind, precision):
        for z in REAL_ARGUMENTS:
            # The scan's cost grows with the index it reaches, so the floor
            # (tol = 1e-5000) is compared only up to the floor-cold range.
            for tol in ["1e-3", "1e-12", "3e-40", "1e-120"] + (
                    ["1e-5000"] if float(z) <= 50 else []):
                assert search_result(kind, z, precision, tol) == scan_reference(
                    kind, z, precision, tol), (z, tol)

    @pytest.mark.parametrize("precision", SEARCH_PRECISIONS)
    @pytest.mark.parametrize(
        "kind", [SeriesKind.CENTRAL_BINOMIAL, SeriesKind.DE_MOIVRE])
    def test_auto_truncate_on_integer_arguments(self, kind, precision):
        for n in [1, 3, 10, 41, 1000, 65536, 999_983, 10**6]:
            for tol in ["0.5", "1e-12", "7e-40", "1e-200"]:
                assert search_result(kind, n, precision, tol) == scan_reference(
                    kind, n, precision, tol), (n, tol)

    def test_ties_at_the_tolerance(self):
        kind = SeriesKind.BINET_J
        _, bound0 = auto_truncate(kind, 3, "1", 64)
        achieved = ln_gamma(3, terms=2, precision=64).error_bound
        ties = [
            "0.02777777778424529565724016368011901118",
            decimal_below(real_to_fraction(bound0) - Fraction(1, 2**200)),
            decimal_below(real_to_fraction(achieved) - Fraction(1, 2**200)),
            bound0,
        ]
        for tol in ties:
            assert search_result(kind, 3, 64, tol) == scan_reference(kind, 3, 64, tol)

    @pytest.mark.parametrize("guess", [0, 1, 5, 13, 40, INDEX_CAP])
    def test_results_do_not_depend_on_the_guess(self, monkeypatch, guess):
        def answers():
            return (min_term_index(SeriesKind.BINET_J, "7.3"),
                    search_result(SeriesKind.BINET_J, "7.3", 256, "1e-9"),
                    search_result(SeriesKind.GAMMA_PLUS_HALF, "4.1", 256, "1e-80"))

        expected = answers()
        monkeypatch.setattr(series, "_guess", lambda *args: guess)
        assert answers() == expected

    @settings(deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), z=search_arguments(),
           precision=st.sampled_from(SEARCH_PRECISIONS), j=st.integers(0, 10),
           side=st.sampled_from([-1, 0, 1]))
    # ties: tol is the bound at j, below the turn, so the search meets it there
    @example(kind=SeriesKind.BINET_J, z=Fraction(3), precision=64, j=0, side=0)
    @example(kind=SeriesKind.GAMMA_PLUS_HALF, z=Fraction(7, 2), precision=256, j=3, side=0)
    @example(kind=SeriesKind.CENTRAL_BINOMIAL, z=Fraction(300), precision=512, j=10, side=0)
    @example(kind=SeriesKind.DE_MOIVRE, z=Fraction(1, 2), precision=64, j=1, side=0)
    # 2^-200 either side of a bound
    @example(kind=SeriesKind.BINET_J, z=Fraction(41, 2), precision=64, j=3, side=-1)
    @example(kind=SeriesKind.CENTRAL_BINOMIAL, z=Fraction(17, 16), precision=256, j=2, side=1)
    def test_both_searches_match_the_scan_at_and_beside_a_bound(self, kind, z, precision, j,
                                                                 side):
        tol = scan_bound(kind, z, precision, j) + side * Fraction(1, 2**200)
        assert min_term_index(kind, z, precision) == scan_reference(kind, z, precision)[0]
        assert search_result(kind, z, precision, tol) == scan_reference(kind, z, precision, tol)


def near_turn(kind, k: int, offset: str) -> str:
    """The argument where |t(k+1)| = |t(k)|, sqrt(c(k+1)/c(k)) (less 1/2 for
    de Moivre), plus ``offset``, as a decimal with 45 places."""
    r = FAMILY[kind](k + 1) / FAMILY[kind](k)
    with localcontext() as ctx:
        ctx.prec = 100
        x = (Decimal(r.numerator) / Decimal(r.denominator)).sqrt() + Decimal(offset)
        if kind is SeriesKind.DE_MOIVRE:
            x -= Decimal("0.5")
        return str(x.quantize(Decimal("1e-45")))


class TestSearchesDecideOnTheDecimalAsWritten:
    """A decimal within 2^-(P+32) of a turn: its P+32-bit rounding may lie on
    the other side, but the index is that of the number it spells."""

    BOUNDARY = near_turn(SeriesKind.BINET_J, 5, "-1e-35")

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_min_term_index_at_the_boundary_decimal(self, precision):
        assert self.BOUNDARY == "1.828382122721058102987729815173610049198637433"
        expected = scan_min_term_index(SeriesKind.BINET_J, Fraction(self.BOUNDARY))
        assert expected == 5
        assert min_term_index(SeriesKind.BINET_J, self.BOUNDARY, precision) == 5

    def test_auto_truncate_at_the_boundary_decimal(self):
        with pytest.raises(ToleranceUnattainable) as info:
            auto_truncate(SeriesKind.BINET_J, self.BOUNDARY, "1e-30", 64)
        assert info.value.k_best == 5

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_grid_of_decimals_either_side_of_a_turn(self, kind, precision):
        for k in (1, 3, 5, 8):
            for offset, expected in (("-1e-35", k), ("1e-35", k + 1)):
                z = near_turn(kind, k, offset)
                assert scan_min_term_index(kind, Fraction(z)) == expected, z
                assert min_term_index(kind, z, precision) == expected, z
                for tol in ("1e-3", "1e-30"):
                    assert search_result(kind, z, precision, tol) == scan_reference(
                        kind, z, precision, tol), (z, tol)


class TestExponentRange:
    """Every path reads a decimal string exactly, so its exponent must lie
    within +-EXPONENT_LIMIT; beyond it the string is rejected before 10^|e|
    is built, with ``terms=`` as with a tolerance."""

    LIMIT = 100_000

    @pytest.mark.parametrize("call", [
        lambda: series._tolerance("1e-100001", 64),
        lambda: ln_gamma("1e100001"),
        lambda: min_term_index(SeriesKind.BINET_J, "1e-100001"),
        lambda: auto_truncate(SeriesKind.BINET_J, "20.5", "2.5E-1_000_000"),
        lambda: auto_truncate(SeriesKind.BINET_J, "20.5", " 1e-" + "9" * 5000 + " "),
        lambda: ln_gamma("1e100001", terms=2),
        lambda: ln_gamma("1e-100001", terms=0, precision=64),
        lambda: envelope_interval(SeriesKind.BINET_J, "1e100001", 2),
        lambda: term(SeriesKind.BINET_J, 0, "1e100001"),
        lambda: binet_J("1e100001"),
    ], ids=["tolerance", "ln_gamma", "min_term_index", "underscores", "5000-digit",
            "terms", "terms-small", "envelope_interval", "term", "binet_J"])
    def test_rejected_at_once_naming_the_range(self, call):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"between -{self.LIMIT} and {self.LIMIT}"):
            call()
        assert time.perf_counter() - start < 0.1

    def test_the_limit_itself_is_read_exactly(self):
        assert precision.EXPONENT_LIMIT == self.LIMIT
        assert precision.exact("25e-100000", 64, "x") == Fraction(25, 10**100000)
        assert precision.exact("1e+0100000", 64, "x") == 10**100000
        assert min_term_index(SeriesKind.BINET_J, "1e-100000") == 0
        assert term(SeriesKind.BINET_J, 0, "1e100000") > 0


class TestOneMeaningPerNumber:
    """z and tol are read once, by ``precision.exact``, and every path rounds
    that exact number: a Fraction and the decimal it equals are one number."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_fraction_and_its_decimal_give_the_same_argument(self, kind):
        for p in (64, 256):
            got = series._checked_argument(kind, Fraction(73, 10), p)
            assert got._mpf_ == series._checked_argument(kind, "7.3", p)._mpf_

    def test_a_fraction_is_returned_as_it_is(self):
        x = Fraction(22, 7)
        assert precision.exact(x, 64, "x") is x

    # mpmath's own conversion rounds 49e15219 one unit off at 96 bits
    @pytest.mark.parametrize("x", ["49e15219", "1e-5000", "3.7e+4321", "7e-100000"])
    def test_a_far_decimal_is_rounded_to_nearest(self, x):
        got = positive_real(x, 64, "x")
        _, _, exp, bc = got._mpf_
        assert bc <= 96
        assert 2 * abs(real_to_fraction(got) - Fraction(x)) <= Fraction(2) ** (exp + bc - 96)

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 2**300), q=st.integers(1, 2**300), bits=st.integers(2, 200),
           rounding=st.sampled_from([round_nearest, round_floor, round_ceiling]))
    def test_rounded_is_correctly_rounded_in_every_mode(self, p, q, bits, rounding):
        assert rounded(p, q, bits, rounding)._mpf_ == from_rational(p, q, bits, rounding)
        # ties to even: m + 1/2 with m of exactly `bits` bits
        m = (1 << (bits - 1)) | p % (1 << (bits - 1))
        assert rounded(2 * m + 1, 2, bits, rounding)._mpf_ == from_rational(
            2 * m + 1, 2, bits, rounding)

    def test_a_warm_evaluation_decodes_z_and_tol_once_each(self, monkeypatch):
        ln_gamma("7.3", "1e-12")
        decoded = []
        read = precision.exact

        def counted(x, *args):
            if not isinstance(x, Fraction):
                decoded.append(x)
            return read(x, *args)

        for module in (precision, series):
            monkeypatch.setattr(module, "exact", counted)
        ln_gamma("7.3", "1e-12")
        assert decoded == ["7.3", "1e-12"]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_an_evaluation_reads_each_number_once_and_its_search_once(self, kind, monkeypatch):
        # the certified walk takes the exact argument, rounded once, not
        # through _checked_argument; _evaluate reads z and tol once, and
        # _exact_argument and auto_truncate each pass on the Fraction they
        # are given (see test_a_fraction_is_returned_as_it_is); _evaluate
        # rounds its Fraction of tol without reading it again
        what = []
        read = precision.exact

        def counted(x, p, name):
            what.append(name)
            return read(x, p, name)

        for module in (precision, series):
            monkeypatch.setattr(module, "exact", counted)
        EVALUATE[kind](20, "1e-12")
        assert sorted(what) == ["series argument"] * 3 + ["tolerance"] * 2


def assert_floor(got, exact: Fraction, precision: int):
    """got is the largest precision-bit float at most exact."""
    _, _, exp, bc = got._mpf_
    assert bc <= precision
    got_f = real_to_fraction(got)
    assert got_f <= exact < got_f + Fraction(2) ** (exp + bc - precision)


class TestTolerance:
    """``series._tolerance``: the exact value of tol, rounded down once."""

    @pytest.mark.parametrize("precision", [64, 128])
    def test_decimals_either_side_of_a_grid_value(self, precision):
        # the grid values here are near 1e-12, where 2^-200 is below one unit
        for z in ("7.3", "20.3", 64):
            _, v = auto_truncate(SeriesKind.BINET_J, z, "1e-12", precision)
            exact = real_to_fraction(v)
            above, below = exact + Fraction(1, 2**200), exact - Fraction(1, 2**200)
            n = exact.denominator.bit_length() - 1
            for tol in (f"{exact.numerator * 5**n}e-{n}", decimal_below(above),
                        str(above.numerator) + "/" + str(above.denominator)):
                assert series._tolerance(tol, precision) == v, tol
            for tol in (decimal_below(below), decimal_below(below, 30)):
                got = series._tolerance(tol, precision)
                assert got < v
                assert_floor(got, Fraction(tol), precision)

    @pytest.mark.parametrize("precision", [64, 256])
    def test_an_mpf_with_more_bits_is_rounded_down(self, precision):
        with mp.workprec(precision + 200):
            x = mp.pi / 10**9
        got = series._tolerance(x, precision)
        assert_floor(got, real_to_fraction(x), precision)
        assert got < x
        assert series._tolerance(got, precision) == got

    @pytest.mark.parametrize("precision", [64, 256])
    def test_fractions_floats_ints_and_far_decimals(self, precision):
        for tol in (Fraction(1, 3), Fraction(10**40 + 1, 10**80), 0.1, 1e-300,
                    3, 10**30, 7**100, "3e-100000", "7e+100000"):
            assert_floor(series._tolerance(tol, precision), Fraction(tol), precision)
        assert series._tolerance(0.1, precision) == mpf(0.1)
        # a string only mpmath reads is taken as mpmath reads it
        assert series._tolerance("1 / 3", precision) == series._tolerance(
            Fraction(1, 3), precision)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "abc",
                                     float("nan"), float("inf"), -float("inf"),
                                     0, -1, mpf("nan"), mpf("-inf"), None], ids=repr)
    def test_rejects_what_is_not_a_positive_real(self, tol):
        with pytest.raises(DomainError, match="^tolerance must be a finite real > 0, got "):
            series._tolerance(tol, 64)


class TestLeast:
    @pytest.mark.parametrize("answer", [0, 1, 2, 17, 400, INDEX_CAP])
    def test_walk_stays_near_guess_and_answer(self, answer):
        for guess in sorted({0, 1, answer // 2, max(0, answer - 1), answer,
                             min(INDEX_CAP, answer + 3), INDEX_CAP}):
            probes = []

            def holds(k):
                probes.append(k)
                return k >= answer

            assert series._least(holds, guess) == answer
            assert max(probes) <= max(guess, 2 * answer - guess)
            assert len(probes) <= abs(answer - guess) + 2
            assert min(probes) >= min(guess, answer) - 1

    def test_answer_above_the_cap(self):
        assert series._least(lambda k: False, 3) is None
        assert series._least(lambda k: True, INDEX_CAP + 1) is None

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_the_float_guess_is_the_answer_or_one_below(self, kind, precision):
        arguments = ([1, 3, 10, 41, 300] if kind.row.integer_argument
                     else ["0.05", "0.7", "1", "3.1", "17.5", "49.9", "123.4", "316"])
        for z in arguments:
            xf = series._exact_argument(kind, z, precision)
            for tol in [None, "1", "1e-3", "1e-12", "1e-40", "1e-120", "1e-900"]:
                if tol is None:
                    answer, guess = min_term_index(kind, z, precision), series._guess(kind, xf)
                else:
                    answer = search_result(kind, z, precision, tol)[0]
                    ln_tol = series._ln(real_to_fraction(series._tolerance(tol, precision)))
                    guess = series._guess(kind, xf, ln_tol)
                assert answer - guess in (0, 1), (z, tol)


# (kind, z, tol) within certify-warm's ranges: z from 0.5 to 200 or n up to
# 10**6, tol from 1e-6 to 1e-40, floor raises among them.  At gamma-half's
# z = 0.56 the closed-form turn needs its correction by one.
COST_GRID = [(kind, z, tol) for kind in ALL_KINDS
             for z in ((1, 2, 30, 1000, 10**6) if kind.row.integer_argument
                       else ("0.5", "0.56", "3.7", "20.5", "199.9"))
             for tol in ("1e-6", "1e-40")]


class TestSearchCost:
    """What a search costs, counted: its probes, its mpfs and its Fractions."""

    def test_the_guess_is_the_answer_or_one_below_and_the_walk_is_short(self, monkeypatch):
        assert len(COST_GRID) == 40
        least, walks = series._least, []

        def counted(holds, guess):
            probes = []
            walks.append((guess, probes))
            return least(lambda k: probes.append(k) or holds(k), guess)

        monkeypatch.setattr(series, "_least", counted)
        for kind, z, tol in COST_GRID:
            walks.clear()
            answer = search_result(kind, z, 256, tol)[0]
            [(guess, probes)] = walks
            assert answer - guess in (0, 1), (kind, z, tol)
            assert len(probes) <= abs(answer - guess) + 2, (kind, z, tol)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_only_the_returned_numbers_are_built(self, kind, monkeypatch):
        # the search builds one mpf, the bound it returns, and an evaluation
        # two more, its value and error bound; neither builds a Fraction
        # beyond reading z and shifting it by 1/2
        z = 20 if kind.row.integer_argument else Fraction(41, 2)
        zf, tol = Fraction(z), Fraction(1, 10**12)
        EVALUATE[kind](z, tol)
        builds = {}
        make_mpf, new = mp.make_mpf, Fraction.__new__

        def counted(what, build):
            def call(*args, **kwargs):
                builds[what] += 1
                return build(*args, **kwargs)
            return call

        monkeypatch.setattr(mp, "make_mpf", counted("mpf", make_mpf))
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("Fraction", new)))

        def built(call):
            builds.update(mpf=0, Fraction=0)
            call()
            return dict(builds)

        decoded = built(lambda: precision.exact(z, P, "series argument"))["Fraction"]
        shifted = built(lambda: series._exact_argument(kind, zf, P))["Fraction"]
        assert built(lambda: auto_truncate(kind, z, tol, P)) == {
            "mpf": 1, "Fraction": decoded + shifted}
        assert built(lambda: EVALUATE[kind](z, tol)) == {
            "mpf": 3, "Fraction": decoded + 2 * shifted}


class TestIndexCap:
    def test_guess_above_the_cap_raises_before_building_coefficients(self, monkeypatch):
        def no_coefficients(j):
            raise AssertionError("coefficient built")

        monkeypatch.setattr(Expansion, "coefficient", lambda self, j: no_coefficients(j))
        with pytest.raises(DomainError, match=str(INDEX_CAP)):
            min_term_index(SeriesKind.BINET_J, 1000)
        with pytest.raises(DomainError, match=str(INDEX_CAP)):
            auto_truncate(SeriesKind.BINET_J, 1000, "1e-5000")
        with pytest.raises(DomainError, match=str(INDEX_CAP)):
            min_term_index(SeriesKind.GAMMA_PLUS_HALF, "1e400")

    def test_exact_search_stops_at_the_cap(self, monkeypatch):
        # A guess of 0 below a cap of 5 leaves the decision to the exact search.
        monkeypatch.setattr(series, "INDEX_CAP", 5)
        monkeypatch.setattr(series, "_guess", lambda *args: 0)
        assert min_term_index(SeriesKind.BINET_J, "1.5") == 4
        with pytest.raises(DomainError, match="cap of 5"):
            min_term_index(SeriesKind.BINET_J, 3)
        with pytest.raises(DomainError, match="cap of 5"):
            auto_truncate(SeriesKind.BINET_J, 3, "1e-30")
        assert auto_truncate(SeriesKind.BINET_J, 3, "1e-4")[0] == 2

    def test_an_explicit_order_above_the_cap_raises_before_building_coefficients(
            self, monkeypatch):
        calls = []
        for family, build in COEFFICIENT_FAMILIES.items():
            monkeypatch.setitem(COEFFICIENT_FAMILIES, family,
                                lambda j, build=build: calls.append(j) or build(j))
        series._rounded_coefficient.cache_clear()
        above = INDEX_CAP + 1
        for kind in SeriesKind:
            evaluate = getattr(series, kind.row.evaluation)
            with pytest.raises(DomainError, match=f"^terms must be at most the cap of "
                                                  f"{INDEX_CAP}, got {above}$"):
                evaluate(2000, terms=above, precision=64)
            for call in (lambda: term(kind, above, 2000, 64),
                         lambda: partial_sum(kind, 2000, above, 64),
                         lambda: envelope_interval(kind, 2000, above, 64)):
                with pytest.raises(DomainError, match=f"^term count must be at most the cap "
                                                      f"of {INDEX_CAP}, got {above}$"):
                    call()
        assert calls == []
        # the cap itself is an order the package takes
        assert ln_gamma(2000, terms=INDEX_CAP, precision=64).k_used == INDEX_CAP

    def test_search_does_not_build_past_a_reached_tolerance(self):
        # In a fresh interpreter: the minimum-term index at n = 10**6 is about
        # 3.1e6, far above the cap, and tol is met at k = 1.
        src = os.path.dirname(os.path.dirname(envasym.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("from envasym import SeriesKind, auto_truncate, coeffs; "
                "k, _ = auto_truncate(SeriesKind.CENTRAL_BINOMIAL, 10**6, '1e-12'); "
                "print(k, len(coeffs._BERNOULLI_EVEN))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        k, table_length = map(int, proc.stdout.split())
        assert k == 1
        assert table_length <= 8


@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
def test_coefficient_ratios_increase_through_the_cap(family):
    # The lemma the searches rest on: c(k+1)/c(k) strictly increases, i.e.
    # c(k+2) c(k) > c(k+1)^2, for every k whose test a search can decide.
    c = [COEFFICIENT_FAMILIES[family](k) for k in range(INDEX_CAP + 4)]
    for k in range(INDEX_CAP + 2):
        assert c[k + 2] * c[k] > c[k + 1] ** 2, k


EVALUATE = {
    SeriesKind.BINET_J: ln_gamma,
    SeriesKind.CENTRAL_BINOMIAL: ln_central_binomial,
    SeriesKind.GAMMA_PLUS_HALF: ln_gamma_plus_half,
    SeriesKind.DE_MOIVRE: ln_factorial_demoivre,
}


class TestPrecisionFloor:
    """A tolerance the series reaches but P-bit rounding of the value does not."""

    def test_raises_naming_the_achieved_bound_and_precision(self):
        with pytest.raises(ToleranceUnattainable) as info:
            ln_central_binomial(60, "1e-70")
        exc = info.value
        assert "precision" in str(exc)
        assert exc.best_bound > mpf("1e-70")
        assert exc.k_best == auto_truncate(SeriesKind.CENTRAL_BINOMIAL, 60, "1e-70")[0]
        assert exc.best_bound == ln_central_binomial(60, terms=exc.k_best).error_bound

    def test_compares_with_the_exact_tolerance(self):
        # tol is 2**-200 below the bound certified at the k auto_truncate
        # picks; rounded to nearest at P + 32 bits it would equal that bound,
        # and k = 2 would be accepted.  The next index meets it.
        achieved = ln_gamma(3, terms=2, precision=64).error_bound
        tol = decimal_below(real_to_fraction(achieved) - Fraction(1, 2**200))
        assert auto_truncate(SeriesKind.BINET_J, 3, tol, 64)[0] == 2
        cv = ln_gamma(3, tol, precision=64)
        assert cv.k_used == 3
        assert real_to_fraction(cv.error_bound) <= Fraction(tol)

    def test_a_later_index_at_the_same_precision_meets_tol(self, monkeypatch):
        # The series bound meets tol at k = 2, the rounding share pushes the
        # certified one above it there, and k = 3 meets it: one walk, no raise.
        assert auto_truncate(SeriesKind.CENTRAL_BINOMIAL, 11, "1e-8", 64)[0] == 2
        assert ln_central_binomial(11, terms=2, precision=64).error_bound > mpf("1e-8")
        walks = []
        walk = series._walk
        monkeypatch.setattr(series, "_walk", lambda *args: walks.append(args) or walk(*args))
        cv = ln_central_binomial(11, "1e-8", precision=64)
        assert len(walks) == 1
        assert cv.k_used == 3
        assert real_to_fraction(cv.error_bound) <= Fraction("1e-8")
        assert cv == ln_central_binomial(11, terms=3, precision=64)

    def test_no_step_where_the_rounding_share_alone_exceeds_tol(self):
        # 2**-31 |ln Gamma(10**6)| is about 0.006, far above tol at every k:
        # the raise comes at once, at the index auto_truncate picks.
        k, _ = auto_truncate(SeriesKind.BINET_J, "1e6", "1e-12", 64)
        start = time.perf_counter()
        with pytest.raises(ToleranceUnattainable, match="raise the precision") as info:
            ln_gamma("1e6", "1e-12", precision=64)
        assert time.perf_counter() - start < 0.5
        assert info.value.k_best == k

    def test_more_bits_reach_the_tolerance(self):
        cv = ln_central_binomial(60, "1e-70", precision=512)
        assert cv.error_bound <= mpf("1e-70")
        assert cv.contains(exact_ln_central_binomial(60, 512))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        n=st.integers(min_value=1, max_value=300),
        exponent=st.integers(min_value=1, max_value=120),
    )
    def test_returned_bound_never_exceeds_tol(self, kind, n, exponent):
        tol = f"1e-{exponent}"
        with mp.workprec(P + 32):
            tol_real = mpf(tol)
        try:
            cv = EVALUATE[kind](n, tol)
        except ToleranceUnattainable as exc:
            assert exc.best_bound > tol_real
        else:
            assert cv.error_bound <= tol_real


class TestLnGamma:
    def test_at_one_with_zero_terms(self):
        cv = ln_gamma(1, terms=0)
        with mp.workprec(320):
            assert abs(cv.value - (mp.log(2 * mp.pi) / 2 - 1)) < mpf(2) ** -200
        assert cv.error_sign == 1
        assert cv.contains(0)  # ln Gamma(1) = 0

    def test_at_six_contains_ln_120(self):
        cv = ln_gamma(6, "1e-6")
        assert cv.error_bound <= mpf("1e-6")
        with mp.workprec(320):
            assert cv.contains(mp.log(120))

    def test_at_half_integer_contains_duplication_value(self):
        cv = ln_gamma(mpf("20.5"), "1e-12")
        assert cv.error_bound <= mpf("1e-12")
        assert cv.contains(exact_ln_gamma_half(20, 320))

    def test_contains_decides_a_fraction_exactly(self):
        cv = ln_gamma(5, terms=2)
        assert_contains_is_exact(cv, *cv.interval())
        assert cv.contains(Fraction(1589, 500)) is False  # below ln 24 = 3.17805...

    def test_error_sign_tracks_parity(self):
        assert ln_gamma(5, terms=2).error_sign == 1
        assert ln_gamma(5, terms=3).error_sign == -1

    def test_default_tolerance_applies(self):
        cv = ln_gamma(50)
        assert cv.error_bound <= mpf("1e-12")

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ln_gamma(0)
        with pytest.raises(DomainError):
            ln_gamma("-4")

    def test_rejects_tol_and_terms_together(self):
        with pytest.raises(ValueError):
            ln_gamma(5, "1e-6", terms=3)


class TestLnCentralBinomial:
    def test_at_one_with_zero_terms(self):
        cv = ln_central_binomial(1, terms=0)
        with mp.workprec(320):
            assert abs(cv.value - mp.log(4 / mp.sqrt(mp.pi))) < mpf(2) ** -200
            assert cv.error_sign == -1
            assert cv.contains(mp.log(2))

    def test_at_ten_contains_exact_value(self):
        cv = ln_central_binomial(10, "1e-8")
        assert cv.error_bound <= mpf("1e-8")
        with mp.workprec(320):
            assert cv.contains(mp.log(184756))

    def test_at_thirty_with_six_terms(self):
        cv = ln_central_binomial(30, terms=6)
        with mp.workprec(320):
            assert cv.contains(mp.log(mpf(math.comb(60, 30))))

    def test_rejects_non_integers(self):
        for bad in (0, -4, mpf("2.5"), 2.0, True, Fraction(5), "5", np.int64(0), np.int8(-3)):
            with pytest.raises(DomainError, match="^n must be a positive integer, got "):
                ln_central_binomial(bad, "1e-6")


class TestLnGammaPlusHalf:
    def test_at_one_with_zero_terms(self):
        cv = ln_gamma_plus_half(1, terms=0)
        with mp.workprec(320):
            assert abs(cv.value - (mp.log(2 * mp.pi) / 2 - 1)) < mpf(2) ** -200
            assert cv.error_sign == -1
            lo, hi = cv.interval()
            assert lo < mp.log(mp.sqrt(mp.pi) / 2) < hi

    def test_at_five_contains_exact_value(self):
        cv = ln_gamma_plus_half(5, "1e-6")
        assert cv.contains(exact_ln_gamma_half(5, 320))

    def test_remainder_sign_at_twelve_with_three_terms(self):
        cv = ln_gamma_plus_half(12, terms=3)
        assert cv.error_sign == 1
        truth = exact_ln_gamma_half(12, 320)
        assert truth >= cv.value
        assert cv.contains(truth)


class TestLnFactorialDeMoivre:
    def test_at_one_with_zero_terms(self):
        cv = ln_factorial_demoivre(1, terms=0)
        with mp.workprec(320):
            expected = mpf(3) / 2 * mp.log(mpf(3) / 2) - mpf(3) / 2 + mp.log(2 * mp.pi) / 2
            assert abs(cv.value - expected) < mpf(2) ** -200
        assert cv.error_sign == -1
        assert cv.contains(0)  # ln 1! = 0

    def test_at_five_contains_ln_120(self):
        cv = ln_factorial_demoivre(5, "1e-5")
        assert cv.error_bound <= mpf("1e-5")
        with mp.workprec(320):
            assert cv.contains(mp.log(120))

    def test_at_twenty_with_four_terms(self):
        cv = ln_factorial_demoivre(20, terms=4)
        assert cv.contains(exact_ln_factorial(20, 320))

    def test_is_pure_relabeling_of_gamma_plus_half(self):
        for n, k in [(1, 0), (7, 3), (20, 5)]:
            a = ln_factorial_demoivre(n, terms=k)
            b = ln_gamma_plus_half(mpf(n) + mpf(1) / 2, terms=k)
            assert a.value == b.value
            assert a.error_bound == b.error_bound
            assert a.error_sign == b.error_sign

    def test_rejects_non_integers(self):
        for bad in (mpf("1.5"), False, np.float64(5), np.int64(0)):
            with pytest.raises(DomainError, match="^n must be a positive integer, got "):
                ln_factorial_demoivre(bad, terms=2)


def tail_oracle(kind, z):
    """Independent series-tail value (exact where possible, else quadrature)."""
    with mp.workprec(340):
        zz = mp.mpf(z)
        if kind is SeriesKind.BINET_J:
            return binet_J(zz, QuadratureSpec(precision=300))
        if kind is SeriesKind.CENTRAL_BINOMIAL:
            return exact_ln_central_binomial(int(z), 340) - (
                zz * mp.log(4) - mp.log(mp.pi * zz) / 2
            )
        if kind is SeriesKind.DE_MOIVRE:
            shifted = zz + mpf(1) / 2
            return exact_ln_factorial(int(z), 340) - (
                shifted * mp.log(shifted) - shifted + mp.log(2 * mp.pi) / 2
            )
        prefix = zz * mp.log(zz) - zz + mp.log(2 * mp.pi) / 2
        if mp.isint(zz):
            return exact_ln_gamma_half(int(zz), 340) - prefix
        return exact_ln_factorial(int(zz - mpf(1) / 2), 340) - prefix


def grid_for(kind):
    zs = [mpf("0.5"), 1, 2, 5, 10, 30]
    return [z for z in zs if isinstance(z, int)] if kind.row.integer_argument else zs


class TestEnvelopingInvariants:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bracketing_on_grid(self, kind):
        for z in grid_for(kind):
            truth = tail_oracle(kind, z)
            for k in range(9):
                env = envelope_interval(kind, z, k, P)
                assert env.contains(truth), (kind, z, k)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sign_alternation_on_grid(self, kind):
        for z in grid_for(kind):
            truth = tail_oracle(kind, z)
            for k in range(9):
                with mp.workprec(320):
                    remainder = truth - partial_sum(kind, z, k, P)
                    if abs(remainder) < mpf(2) ** -250:
                        continue
                    expected = (1 if k % 2 == 0 else -1) if kind is SeriesKind.BINET_J \
                        else (-1 if k % 2 == 0 else 1)
                    assert mp.sign(remainder) == expected, (kind, z, k)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nesting_below_minimum_term(self, kind):
        for z in grid_for(kind):
            k_star = min_term_index(kind, z)
            for k in range(min(8, k_star)):
                outer = envelope_interval(kind, z, k, P)
                inner = envelope_interval(kind, z, k + 1, P)
                assert outer.lo <= inner.lo and inner.hi <= outer.hi, (kind, z, k)

    @pytest.mark.parametrize("z", [2, 5, 10])
    def test_half_shift_difference_contains_central_correction(self, z):
        half = ln_gamma_plus_half(z, "1e-6")
        whole = ln_gamma(z, "1e-6")
        lo1, hi1 = half.interval()
        lo2, hi2 = whole.interval()
        with mp.workprec(320):
            truth = binet_J_tilde(z, SPEC)
            assert lo1 - hi2 - mp.log(z) / 2 <= truth <= hi1 - lo2 - mp.log(z) / 2


def test_concurrent_same_precision_evaluations_agree():
    from concurrent.futures import ThreadPoolExecutor

    args = [(SeriesKind.BINET_J, z, k) for z in (1, 2, 5) for k in (0, 2, 4)]
    expected = [partial_sum(kind, z, k, P) for kind, z, k in args]
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(lambda a: partial_sum(a[0], a[1], a[2], P), args * 5))
    assert results == expected * 5


def composed(kind, z, tol, precision):
    """``_evaluate``'s answer from the public calls: auto_truncate, then terms=k.

    Returns (outcome, answer): the outcome is "met", "series floor" or
    "precision floor", the latter decided by the exact value of ``tol``; the
    answer is a certified value's fields, or (k_best, best_bound) of a raise.
    """
    try:
        k, _ = auto_truncate(kind, z, tol, precision)
    except ToleranceUnattainable as exc:
        return "series floor", (exc.k_best, exc.best_bound._mpf_)
    cv = EVALUATE[kind](z, terms=k, precision=precision)
    if real_to_fraction(cv.error_bound) > Fraction(tol):
        return "precision floor", (k, cv.error_bound._mpf_)
    return "met", (cv.value._mpf_, cv.error_bound._mpf_, cv.error_sign, cv.k_used,
                   cv.precision)


def evaluated(kind, z, tol, precision):
    """``_evaluate``'s answer in ``composed``'s shape, with outcome "met" or "raised"."""
    try:
        cv = series._evaluate(kind, z, tol, None, precision)
    except ToleranceUnattainable as exc:
        return "raised", (exc.k_best, exc.best_bound._mpf_)
    return "met", (cv.value._mpf_, cv.error_bound._mpf_, cv.error_sign, cv.k_used,
                   cv.precision)


class TestEvaluateIsTheComposition:
    """``_evaluate`` returns or raises, bit for bit, what the public calls give."""

    @pytest.mark.parametrize("precision", SEARCH_PRECISIONS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_auto_truncate_then_terms(self, kind, precision):
        arguments = [1, 3, 10, 60] if kind.row.integer_argument else ["0.5", "3.1", "20.5", 7, "60"]
        outcomes = set()
        for z in arguments:
            for tol in ("1e-3", "1e-12", "1e-40", "1e-70", "1e-150"):
                outcome, answer = composed(kind, z, tol, precision)
                got = evaluated(kind, z, tol, precision)
                assert got == ("met" if outcome == "met" else "raised", answer), (z, tol)
                outcomes.add(outcome)
        assert outcomes == {"met", "series floor", "precision floor"}


class TestIntegerArguments:
    # A float index used to return a meaningless number (term(binet, 1.5, 3)
    # was -3.48e-5) or raise a bare TypeError from inside libmp; a float
    # precision constructed and then failed deep inside.
    BAD_INDICES = (1.5, 2.0, True, -1, "2", Fraction(2))

    @pytest.mark.parametrize("bad", BAD_INDICES)
    def test_an_index_must_be_a_nonnegative_int(self, bad):
        kind = SeriesKind.BINET_J
        for call in (lambda: term(kind, bad, 3), lambda: partial_sum(kind, 3, bad),
                     lambda: envelope_interval(kind, 3, bad), lambda: ln_gamma(3, terms=bad),
                     lambda: ln_central_binomial(3, terms=bad)):
            with pytest.raises(ValueError, match="must be an int >= 0"):
                call()

    @pytest.mark.parametrize("bad", (64.0, 64.5, "128", True, 63, None, np.int64(64)))
    def test_a_precision_must_be_an_int_of_at_least_64_bits(self, bad):
        kind = SeriesKind.GAMMA_PLUS_HALF
        for call in (lambda: ln_gamma(3, terms=2, precision=bad),
                     lambda: ln_gamma(3, "1e-6", precision=bad),
                     lambda: term(kind, 1, 3, bad), lambda: auto_truncate(kind, 3, "1e-6", bad),
                     lambda: min_term_index(kind, 3, bad), lambda: coeffs.zeta_even(2, bad)):
            with pytest.raises(ValueError, match="precision must be an int >= 64"):
                call()

    @pytest.mark.parametrize("n", (np.int32(5), np.int64(5), np.uint8(5)))
    def test_the_integer_kinds_take_a_numpy_integer(self, n):
        # refused with "n must be a positive integer" while term and the
        # exact oracles took the same value
        for evaluate in (ln_central_binomial, ln_factorial_demoivre):
            assert evaluate(n, terms=2) == evaluate(5, terms=2)
            assert evaluate(n, "1e-6", precision=64) == evaluate(5, "1e-6", precision=64)

    def test_the_real_kinds_refuse_a_bool(self):
        # ln_gamma(True, terms=2) quietly evaluated at 1
        for evaluate in (ln_gamma, ln_gamma_plus_half):
            for call in (lambda: evaluate(True, terms=2), lambda: evaluate(True)):
                with pytest.raises(DomainError, match="^series argument must be a finite "):
                    call()
            with pytest.raises(DomainError, match="^tolerance must be a finite real > 0"):
                evaluate(3, True)
        for kind in ALL_KINDS:
            with pytest.raises(DomainError, match="^series argument must be a finite "):
                min_term_index(kind, True)

    def test_an_integer_type_other_than_bool_is_an_int(self):
        class Index(int):
            pass

        kind = SeriesKind.BINET_J
        for index in (Index(2), np.int64(2)):
            assert term(kind, index, 3) == term(kind, 2, 3)
            assert ln_gamma(3, terms=index) == ln_gamma(3, terms=2)
        assert ln_gamma(3, terms=2, precision=Index(64)) == ln_gamma(3, terms=2, precision=64)
