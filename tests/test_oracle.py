"""Oracle module: exact big-integer logs and quadrature cross-identities."""

import itertools
import math
import sys
import threading
import time
from fractions import Fraction

import mpmath.libmp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import libmpf
from mpmath.libmp import from_int, from_man_exp, fzero, mpf_gt, mpf_mul, round_nearest

from envasym import (
    DomainError,
    QuadratureNonConvergence,
    QuadratureSpec,
    ThetaFamily,
    binet_J,
    binet_J_tilde,
    coefficient_quadrature,
    exact_ln_central_binomial,
    exact_ln_factorial,
    exact_ln_gamma_half,
    remainder_quadrature,
    theta_ratio,
)
from envasym import oracle, verify
from envasym.coeffs import bernoulli_even, beta, beta_hat, beta_tilde
from envasym.demo import enveloping_control_scan
from envasym.precision import INDEX_CAP, _product, positive_real, real_to_fraction

SPEC = QuadratureSpec(precision=256)
TIGHT = mpf(2) ** -200


def close(a, b, tol=TIGHT):
    with mp.workprec(320):
        return abs(a - b) <= tol * max(1, abs(b))


def _weight(family, eta, s, wp):
    """One family's weight at raw eta with s = ln eta, as a quadrature that
    does not store computes it."""
    return oracle._weights((family,), eta, s, wp)[0]


class TestExactLogs:
    def test_ln_factorial(self):
        assert exact_ln_factorial(0) == 0
        with mp.workprec(320):
            assert close(exact_ln_factorial(5), mp.log(120))
            assert close(exact_ln_factorial(20), mp.log(2432902008176640000))
            assert math.factorial(20) == 2432902008176640000

    def test_ln_central_binomial(self):
        with mp.workprec(320):
            assert close(exact_ln_central_binomial(1), mp.log(2))
            assert close(exact_ln_central_binomial(10), mp.log(184756))
            assert math.comb(20, 10) == 184756
            assert close(
                exact_ln_central_binomial(30), mp.log(mpf(math.comb(60, 30)))
            )

    def test_ln_gamma_half(self):
        with mp.workprec(320):
            assert close(exact_ln_gamma_half(0), mp.log(mp.pi) / 2)
            assert close(exact_ln_gamma_half(1), mp.log(mp.sqrt(mp.pi) / 2))
            expected = mp.log(
                mpf(math.factorial(10)) * mp.sqrt(mp.pi) / (4**5 * math.factorial(5))
            )
            assert close(exact_ln_gamma_half(5), expected)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            exact_ln_factorial(-1)
        with pytest.raises(ValueError):
            exact_ln_central_binomial(0)
        with pytest.raises(ValueError):
            exact_ln_gamma_half(-2)

    # exact_ln_factorial(5, True) returned 4.0, (5, 10) 4.7890625 and
    # exact_ln_central_binomial(True) ln 2; a float or string n raised a bare
    # TypeError
    @pytest.mark.parametrize("function", [exact_ln_factorial, exact_ln_central_binomial,
                                          exact_ln_gamma_half])
    def test_n_and_the_precision_are_checked(self, function):
        for n in (True, 5.0, "5", -1):
            with pytest.raises(ValueError, match="n must be an int >= "):
                function(n)
        for precision in (True, 10, 64.0):
            with pytest.raises(ValueError, match="precision must be an int >= 64"):
                function(5, precision)


class TestBinetJ:
    def test_at_one_against_stirling_identity(self):
        # Gamma(1) = 1, so J(1) = 1 - ln(2 pi)/2
        with mp.workprec(320):
            assert close(binet_J(1, SPEC), 1 - mp.log(2 * mp.pi) / 2)

    def test_at_five_against_exact_factorial(self):
        with mp.workprec(320):
            z = mpf(5)
            expected = mp.log(24) - (
                (z - mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
            )
            assert close(binet_J(5, SPEC), expected)

    def test_at_ten_bracketed_by_first_partial_sums(self):
        value = binet_J(10, SPEC)
        lo = Fraction(1, 12) / 10 - Fraction(1, 360) / 1000
        hi = Fraction(1, 12) / 10
        with mp.workprec(320):
            assert mp.convert(lo) < value < mp.convert(hi)

    def test_error_estimate_is_small(self):
        value, err = binet_J(2, SPEC, error=True)
        assert err <= SPEC.effective_tol() * abs(value)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            binet_J(0, SPEC)
        with pytest.raises(DomainError):
            binet_J(-3, SPEC)

    def test_near_zero_against_log_gamma(self):
        # z = 1e-30 walks the negative tails far: J(z) = ln Gamma(z) - (z - 1/2) ln z
        # + z - ln(2 pi)/2 at P + 128 bits, to the quadrature's tolerance
        precision = 128
        got = binet_J("1e-30", QuadratureSpec(precision))
        with mp.workprec(precision + 128):
            z = mpf("1e-30")
            want = mp.loggamma(z) - (z - mpf(1) / 2) * mp.log(z) + z - mp.log(2 * mp.pi) / 2
            assert abs(got - want) <= mpf(2) ** (32 - precision) * abs(want)


class TestBinetJTilde:
    def test_at_one_equals_half_gamma_ratio(self):
        # J~(1) = ln(Gamma(3/2) / Gamma(1)) = ln(sqrt(pi)/2)
        with mp.workprec(320):
            assert close(binet_J_tilde(1, SPEC), mp.log(mp.sqrt(mp.pi) / 2))

    def test_decomposition_at_five(self):
        with mp.workprec(320):
            composed = binet_J(10, SPEC) - 2 * binet_J(5, SPEC)
            assert close(binet_J_tilde(5, SPEC), composed)

    @pytest.mark.parametrize("z", [1, 2, 5])
    def test_decomposition_grid(self, z):
        with mp.workprec(320):
            composed = binet_J(2 * z, SPEC) - 2 * binet_J(z, SPEC)
            assert close(binet_J_tilde(z, SPEC), composed)

    def test_at_ten_against_central_binomial(self):
        with mp.workprec(320):
            z = mpf(10)
            expected = exact_ln_central_binomial(10, 320) - (
                z * mp.log(4) - mp.log(mp.pi * z) / 2
            )
            assert close(binet_J_tilde(10, SPEC), expected)


class TestThetaRatio:
    def test_theta_approaches_one_from_below(self):
        values = [theta_ratio(ThetaFamily.THETA, 0, z, SPEC) for z in (1, 10, 100)]
        assert values[0] < values[1] < values[2] < 1

    @pytest.mark.parametrize("family", list(ThetaFamily))
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("z", [mpf("0.5"), 1, 5, 20])
    def test_strictly_inside_unit_interval(self, family, k, z):
        value, err = theta_ratio(family, k, z, SPEC, error=True)
        assert value - err > 0
        assert value + err < 1

    def test_theta_hat_consistency_with_remainder(self):
        # r^_0(1) = theta^_0(1) * (-1) * beta^_0
        with mp.workprec(320):
            lhs = remainder_quadrature(ThetaFamily.THETA_HAT, 0, 1, SPEC)
            rhs = -theta_ratio(ThetaFamily.THETA_HAT, 0, 1, SPEC) * mp.convert(
                beta_hat(0)
            )
            assert close(lhs, rhs)


class TestRemainderQuadrature:
    def test_zero_terms_is_whole_function(self):
        with mp.workprec(320):
            assert close(
                remainder_quadrature(ThetaFamily.THETA, 0, 5, SPEC), binet_J(5, SPEC)
            )

    def test_two_terms_at_five(self):
        with mp.workprec(320):
            expected = binet_J(5, SPEC) - (
                mp.convert(beta(0)) / 5 - mp.convert(beta(1)) / 125
            )
            assert close(remainder_quadrature(ThetaFamily.THETA, 2, 5, SPEC), expected)

    def test_tilde_one_term_at_ten(self):
        with mp.workprec(320):
            expected = binet_J_tilde(10, SPEC) + mp.convert(beta_tilde(0)) / 10
            assert close(
                remainder_quadrature(ThetaFamily.THETA_TILDE, 1, 10, SPEC), expected
            )

    @pytest.mark.parametrize("family", list(ThetaFamily))
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("z", [1, 5])
    def test_remainder_equals_theta_times_term(self, family, k, z):
        fn = {
            ThetaFamily.THETA: beta,
            ThetaFamily.THETA_TILDE: beta_tilde,
            ThetaFamily.THETA_HAT: beta_hat,
        }[family]
        with mp.workprec(320):
            rem = remainder_quadrature(family, k, z, SPEC)
            theta = theta_ratio(family, k, z, SPEC)
            term = mp.convert(fn(k)) / mpf(z) ** (2 * k + 1)
            assert close(rem, family.row.sign(k) * theta * term)


class TestCoefficientQuadrature:
    @pytest.mark.parametrize(
        "family,k,expected",
        [
            (ThetaFamily.THETA, 0, Fraction(1, 12)),
            (ThetaFamily.THETA_TILDE, 3, Fraction(17, 14336)),
            (ThetaFamily.THETA_HAT, 2, Fraction(31, 40320)),
        ],
    )
    def test_named_values(self, family, k, expected):
        with mp.workprec(320):
            got = coefficient_quadrature(family, k, SPEC)
            assert abs(got - mp.convert(expected)) <= mpf("1e-25") * mp.convert(expected)

    @pytest.mark.parametrize("family", list(ThetaFamily))
    @pytest.mark.parametrize("k", range(5))
    def test_matches_rational_to_1e25(self, family, k):
        fn = {
            ThetaFamily.THETA: beta,
            ThetaFamily.THETA_TILDE: beta_tilde,
            ThetaFamily.THETA_HAT: beta_hat,
        }[family]
        with mp.workprec(320):
            got = coefficient_quadrature(family, k, SPEC)
            want = mp.convert(fn(k))
            assert abs(got - want) / want <= mpf("1e-25")


class TestWeightLinearDependence:
    # 1e-6 and 30 lie in the small-u and the small-q branch of the weights
    @pytest.mark.parametrize("eta", ["1e-6", "0.1", "0.5", "1", "2", "30"])
    def test_pointwise(self, eta):
        with mp.workprec(288):
            x = mpf(eta)
            theta, tilde, hat = map(mp.make_mpf, oracle._weights(
                tuple(ThetaFamily), x._mpf_, mp.log(x)._mpf_, 288))
            assert abs(theta + hat - tilde) <= mpf(2) ** -230 * tilde

    @pytest.mark.parametrize("k", range(3))
    def test_coefficient_sums(self, k):
        with mp.workprec(320):
            total = coefficient_quadrature(
                ThetaFamily.THETA, k, SPEC
            ) + coefficient_quadrature(ThetaFamily.THETA_HAT, k, SPEC)
            combined = coefficient_quadrature(ThetaFamily.THETA_TILDE, k, SPEC)
            assert abs(total - combined) <= 2 * SPEC.effective_tol() * combined


class TestWeightAccuracyAtHighMoments:
    # eta^(2k) amplifies any absolute error floor in the weights at large
    # eta, so high k at high precision is the stress case for the
    # log1p/atanh evaluation paths
    @pytest.mark.parametrize("family", list(ThetaFamily))
    def test_k8_at_512_bits(self, family):
        fn = {
            ThetaFamily.THETA: beta,
            ThetaFamily.THETA_TILDE: beta_tilde,
            ThetaFamily.THETA_HAT: beta_hat,
        }[family]
        deep = QuadratureSpec(precision=512)
        with mp.workprec(600):
            got = coefficient_quadrature(family, 8, deep)
            want = mp.convert(fn(8))
            assert abs(got - want) / want <= mpf(2) ** -400


def _agrees_with_exact_coefficient(family, k, precision):
    """The quadrature coefficient lies within 2**(40-P) relative of the exact one."""
    got = real_to_fraction(coefficient_quadrature(family, k, QuadratureSpec(precision)))
    want = family.row.coefficient(k)
    return abs(got - want) <= abs(want) * Fraction(2) ** (40 - precision)


class TestLargeMoments:
    """At large k the mass lies near eta = k/pi.  A refinement level whose
    first nodes on the t > 0 side fell below one unit of the sum ended that
    side there, and no two levels agreed: the quadratures below raised
    QuadratureNonConvergence.  CI runs the property a second time under the
    ``ci`` Hypothesis profile."""

    @pytest.mark.parametrize("family, k, precision", [
        *((family, 24, 64) for family in ThetaFamily),
        (ThetaFamily.THETA, 45, 256), (ThetaFamily.THETA, 67, 512)])
    def test_first_failing_orders(self, family, k, precision):
        assert _agrees_with_exact_coefficient(family, k, precision)

    @pytest.mark.parametrize("z", ["0.5", "5", "50"])
    def test_theta_ratio_at_k_60_lies_strictly_inside(self, z):
        value, err = theta_ratio(ThetaFamily.THETA, 60, z, error=True)
        assert err < value and value + err < 1

    @settings(deadline=None)
    @given(st.sampled_from(list(ThetaFamily)), st.integers(0, 200), st.sampled_from([64, 128]))
    # each family at k = 0 and at the largest k drawn, and between
    @example(ThetaFamily.THETA, 0, 64)
    @example(ThetaFamily.THETA_TILDE, 0, 128)
    @example(ThetaFamily.THETA_HAT, 0, 64)
    @example(ThetaFamily.THETA, 200, 128)
    @example(ThetaFamily.THETA_TILDE, 200, 64)
    @example(ThetaFamily.THETA_HAT, 200, 128)
    @example(ThetaFamily.THETA_TILDE, 37, 64)
    @example(ThetaFamily.THETA_HAT, 101, 128)
    def test_every_family_agrees_with_its_exact_coefficient(self, family, k, precision):
        assert _agrees_with_exact_coefficient(family, k, precision)


class TestQuadratureSpec:
    def test_tolerance_floor(self):
        assert QuadratureSpec(precision=256).effective_tol() == mpf(2) ** -224

    # The estimate after two levels at 288 bits: a raw tuple, so a value that
    # is not a finite positive mpf (mp.make_mpf of a pair passes isinstance)
    # is seen.
    LEVEL_2 = (0, int("2955861658530899305508607560797284759956246135"
                      "22184431443662871470887951511902504676377"), -293, 288)

    # binet_J(3.75) at 256 bits has visited 13 nodes when level 0 ends, 26
    # when level 1 ends, 48 when level 2 ends and 87 when level 3 ends.
    @staticmethod
    def _raised(monkeypatch, budget):
        monkeypatch.setattr(oracle, "_NODE_BUDGET", budget)
        oracle._integral.cache_clear()  # a cached value would skip the quadrature
        with pytest.raises(QuadratureNonConvergence, match=f"within {budget} nodes") as info:
            binet_J(mpf("3.75"), SPEC)
        if info.value.value is not None:
            mp.nstr(info.value.value, 10)
        return info.value

    def test_a_budget_spent_before_level_0_ends_reports_nothing(self, monkeypatch):
        for budget in (1, 4, 12):
            raised = self._raised(monkeypatch, budget)
            assert raised.value is None and raised.error is None

    def test_a_budget_spent_during_level_3_reports_level_2(self, monkeypatch):
        first = self._raised(monkeypatch, 40)  # spent during level 2
        assert first.error is None  # one level has nothing to differ from
        raised = self._raised(monkeypatch, 60)
        assert raised.value._mpf_ == self.LEVEL_2
        # the error is the difference of the last two levels (it was always
        # 0), each of the three rounded once from exact sums
        wp = SPEC.precision + 32
        level_2 = _fraction(raised.value)
        difference = abs(level_2 - _fraction(first.value))
        assert abs(_fraction(raised.error) - difference) <= 2 ** (2 - wp) * level_2
        assert raised.error > 0
        # a budget spent as level 2 ends, or one node before level 3 ends, reports the same
        for budget in (48, 86):
            same = self._raised(monkeypatch, budget)
            assert (same.value._mpf_, same.error._mpf_) == (self.LEVEL_2, raised.error._mpf_)


class TestIntegerArguments:
    # theta_ratio(THETA, 1.5, 3, ...) returned 0.9507 and a remainder after
    # 2.5 terms -7.7e-7; QuadratureSpec(64.5) constructed and then raised a
    # bare TypeError inside libmp.
    @pytest.mark.parametrize("bad", (1.5, 2.0, True, -1, "2"))
    def test_an_index_must_be_a_nonnegative_int(self, bad):
        spec = QuadratureSpec(precision=64)
        family = ThetaFamily.THETA
        for call in (lambda: theta_ratio(family, bad, 3, spec),
                     lambda: remainder_quadrature(family, bad, 3, spec),
                     lambda: coefficient_quadrature(family, bad, spec)):
            with pytest.raises(ValueError, match="k must be an int >= 0"):
                call()

    def test_a_numpy_index_is_an_int(self):
        spec = QuadratureSpec(precision=64)
        family = ThetaFamily.THETA
        assert (coefficient_quadrature(family, np.int64(2), spec)
                == coefficient_quadrature(family, 2, spec))

    @pytest.mark.parametrize("bad", (64.0, 64.5, "128", True, 63, np.int64(64)))
    def test_a_spec_precision_must_be_an_int_of_at_least_64_bits(self, bad):
        with pytest.raises(ValueError, match="precision must be an int >= 64"):
            QuadratureSpec(bad)


class TestIndexCap:
    def test_an_order_above_the_cap_raises_before_any_quadrature(self, monkeypatch):
        quadratures = []
        monkeypatch.setattr(oracle, "_de_quad_half_line", lambda *args: quadratures.append(args))
        _clear_caches()
        above = INDEX_CAP + 1
        for call in (lambda: theta_ratio(ThetaFamily.THETA, above, "7.3"),
                     lambda: remainder_quadrature(ThetaFamily.THETA_HAT, above, "7.3"),
                     lambda: coefficient_quadrature(ThetaFamily.THETA_TILDE, above)):
            with pytest.raises(DomainError, match=f"^k must be at most the cap of {INDEX_CAP}, "
                                                  f"got {above}$"):
                call()
        assert quadratures == []


class TestLargeArgument:
    # At z = 1e50 the damped integral is about 2**-330, far below 2**-(P+32)
    # at 128 bits; a tail test with that absolute floor stopped every tail at
    # once and never converged.
    SPEC = QuadratureSpec(precision=128)
    Z = "1e50"

    @staticmethod
    def _near(value, want):
        with mp.workprec(320):
            want = mp.convert(want)
            return abs(value - want) <= mpf(2) ** -90 * abs(want)

    def test_binet_J(self):
        assert self._near(binet_J(self.Z, self.SPEC), 1 / (12 * Fraction(self.Z)))

    def test_binet_J_tilde(self):
        assert self._near(binet_J_tilde(self.Z, self.SPEC), -1 / (8 * Fraction(self.Z)))

    @pytest.mark.parametrize("family", list(ThetaFamily))
    def test_remainder_after_one_term(self, family):
        coefficient = {
            ThetaFamily.THETA: beta,
            ThetaFamily.THETA_TILDE: beta_tilde,
            ThetaFamily.THETA_HAT: beta_hat,
        }[family](1)
        want = family.row.sign(1) * coefficient / Fraction(self.Z) ** 3
        assert self._near(remainder_quadrature(family, 1, self.Z, self.SPEC), want)


def _clear_caches():
    """Every node table and every kept quadrature result: the oracle cold."""
    oracle._node_table.cache_clear()
    oracle._integral.cache_clear()


def _moment_quadrature(family, k, spec, store=True):
    """The undamped moment integral by a single quadrature, bypassing the
    results ``oracle._integral`` keeps; it stores as ``_integral`` does
    unless ``store`` is False."""
    return oracle._de_quad_half_line(family, k, None, spec, store)


def _quadratures(family, k, spec):
    """The damped (z = 2) and undamped moment integrals, bypassing the value
    caches, as exact mpf tuples."""
    damped = oracle._integral.__wrapped__(family, k, mpf(2), spec)
    moment = _moment_quadrature(family, k, spec)
    return [x._mpf_ for pair in (damped, moment) for x in pair]


def _level_node(t, wp):
    """(eta, 1 + e^-t, s) at the node t, from the level side of the quadrature
    that visits it first: t = 0, level 0's nodes +-1, +-2, ..., or the odd
    multiples of h = 2**-level."""
    if t == 0:
        return next(oracle._nodes(0.0, 1.0, wp, 0))
    h = 1 / t.as_integer_ratio()[1]
    start, step = (1, 1) if h == 1 else (1, 2)
    dt = math.copysign(h, t)
    return next(oracle._nodes(start * dt, step * dt, wp, (int(abs(t) / h) - start) // step))


def _node_t(level, side, i):
    """The t of row i of a side of a level of the node table: +-(i + 1) on
    level 0 and +-(2i + 1) * 2**-level on the others, side 1 the t < 0 one."""
    t = i + 1.0 if level == 0 else (2 * i + 1) * 2.0**-level
    return -t if side else t


def _table_rows(precision):
    """{t: row} of every row of the precision's node table: the middle row at
    t = 0 and each side's rows at their t."""
    table = oracle._node_table(precision)
    rows = dict(zip([0.0], table.middle))
    for key, side in table.sides.items():
        rows.update((_node_t(*key, i), row) for i, row in enumerate(side))
    return rows


def _whole(rows, wp):
    """There are rows, and each holds the pairs of e = eta**2 and of each
    family's W, as that family's own weight gives it at the level's eta."""
    assert rows
    for t, row in rows.items():
        eta, factor, s = _level_node(t, wp)
        want = [mpf_mul(eta, eta, wp, round_nearest)]
        want += [mpf_mul(mpf_mul(_weight(family, eta, s, wp), factor, wp, round_nearest),
                         eta, wp, round_nearest) for family in ThetaFamily]
        assert row == [x[1:3] for x in want], t
        assert [row[oracle._COLUMNS[family]] for family in ThetaFamily] == row[1:]
    return True


def _counted_weights(monkeypatch):
    """Record the families of every ``oracle._weights`` call."""
    weights = []

    def counted(families, eta, s, wp, fn=oracle._weights):
        weights.append(tuple(families))
        return fn(families, eta, s, wp)

    monkeypatch.setattr(oracle, "_weights", counted)
    return weights


def _watch(monkeypatch, table):
    """Record the t of every node a quadrature sums ("visited"), from the
    side each ``oracle._half_sum`` call walks and the nodes it sums, and of
    every node a side's stream yields ("node")."""
    calls = {"visited": [], "node": []}

    def summed(total, rows, *args, fn=oracle._half_sum):
        result = fn(total, rows, *args)
        # a side of the table, or else the middle row's own list
        key = next((key for key, side in table.sides.items() if side is rows), None)
        calls["visited"] += [0.0] if key is None else [_node_t(*key, i) for i in range(result[2])]
        return result

    def nodes(t0, dt, wp, start, fn=oracle._nodes):
        for n, node in enumerate(fn(t0, dt, wp, start), start):
            calls["node"].append(t0 + n * dt)
            yield node

    monkeypatch.setattr(oracle, "_half_sum", summed)
    monkeypatch.setattr(oracle, "_nodes", nodes)
    return calls


def _each_cold_node_once(calls, cold):
    """No t is visited twice, and every t in ``cold`` (the visited t without
    a row) is yielded once by a side's stream, and no other."""
    visited = calls["visited"]
    assert len(set(visited)) == len(visited)
    assert sorted(calls["node"]) == sorted(cold)


class TestNodeTable:
    @pytest.mark.parametrize(
        "spec",
        [QuadratureSpec(precision=256), QuadratureSpec(precision=320)],
        ids=["256", "320"],
    )
    def test_warm_table_matches_cold_bit_for_bit(self, spec):
        precision = spec.precision
        cases = [(family, k) for family in ThetaFamily for k in (0, 3)]
        cold = {}
        for family, k in cases:
            _clear_caches()
            cold[family, k] = _quadratures(family, k, spec)
        _clear_caches()
        for _ in range(3):  # nothing stored, then storing, then reading
            for family, k in cases:
                assert _quadratures(family, k, spec) == cold[family, k]
        assert _whole(_table_rows(precision), precision + 32)

    def test_a_first_damped_quadrature_stores_nothing_and_a_second_whole_rows(self):
        spec = QuadratureSpec(precision=192)
        _clear_caches()
        binet_J(3, spec)
        assert not _table_rows(192)
        binet_J(4, spec)
        assert _whole(_table_rows(192), 192 + 32)

    def test_one_off_queries_of_each_family_store_nothing(self):
        spec = QuadratureSpec(precision=192)
        _clear_caches()
        binet_J(3, spec)
        binet_J_tilde(3, spec)
        remainder_quadrature(ThetaFamily.THETA_HAT, 1, 3, spec)
        assert not _table_rows(192)

    def test_no_node_is_computed_twice_at_a_precision(self, monkeypatch):
        spec = QuadratureSpec(precision=256)
        _clear_caches()
        binet_J(3, spec)  # stores nothing
        binet_J(4, spec)  # creates rows
        table = oracle._node_table(256)
        had_row = set(_table_rows(256))
        assert had_row
        weights = _counted_weights(monkeypatch)
        calls = _watch(monkeypatch, table)
        # THETA_TILDE's first damped quadrature reads the rows and, as the
        # table holds rows, makes whole rows at the nodes of its longer tail;
        # its second makes only the nodes the first did not reach
        for z in (3, 4):
            before = set(_table_rows(256))
            for key in calls:
                calls[key].clear()
            weights.clear()
            remainder_quadrature(ThetaFamily.THETA_TILDE, 4, z, spec)
            visited = calls["visited"]
            cold = [t for t in visited if t not in before]
            assert len(cold) < len(visited)
            _each_cold_node_once(calls, cold)
            assert weights == [tuple(ThetaFamily)] * len(cold)
            assert set(_table_rows(256)) == before | set(visited)
            if z == 3:
                assert cold and set(_table_rows(256)) == had_row | set(visited)

    def test_a_one_off_quadrature_computes_each_node_once(self, monkeypatch):
        _clear_caches()
        calls = _watch(monkeypatch, oracle._node_table(192))
        binet_J(3, QuadratureSpec(precision=192))  # one-off: every node is cold
        _each_cold_node_once(calls, calls["visited"])

    def test_other_precision_leaves_result_unchanged(self):
        spec = QuadratureSpec(precision=256)
        deep = QuadratureSpec(precision=320)
        _clear_caches()
        results = []
        for calls in ([spec, spec], [deep, deep], [spec]):
            for call_spec in calls:
                oracle._integral.cache_clear()
                value = remainder_quadrature(ThetaFamily.THETA_TILDE, 1, 7, call_spec)
                results.append((call_spec.precision, value._mpf_))
        assert results[0] == results[1] == results[4]
        assert _table_rows(320)

    def test_threads_reading_one_precision_match_serial(self):
        # the threads read a table two serial passes have filled; threads
        # filling cold tables are TestThreads' case
        spec = QuadratureSpec(precision=256)
        jobs = [(family, k) for family in ThetaFamily for k in (1, 2)]
        _clear_caches()
        for _ in range(2):
            serial = [_quadratures(family, k, spec) for family, k in jobs]
        rows = _table_rows(256)
        results = [None] * len(jobs)

        def work(i):
            results[i] = [_quadratures(*jobs[i], spec) for _ in range(2)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[want, want] for want in serial]
        assert _table_rows(256) == rows

    def test_a_deep_tail_node_is_stored_as_computed(self):
        # the last transformed nodes of two tails: at t = 5.5, reached at step
        # h = 1/2, W is below 2**-2000; at t = -7, reached at step h = 1,
        # e = eta**2 is below 2**-3000
        spec = QuadratureSpec(precision=256)
        _clear_caches()
        binet_J(3, spec)  # nothing stored, then storing, then reading
        binet_J(4, spec)
        warm = _quadratures(ThetaFamily.THETA, 1, spec)
        wp = 256 + 32
        column = oracle._COLUMNS[ThetaFamily.THETA]
        for t, t0, w_top, e_top in ((5.5, 0.5, -2000, math.inf), (-7.0, 1.0, 0, -3000)):
            eta, factor, s = recurrence_nodes(t0, 1.0, wp)(t)
            with mp.workprec(wp):
                w = mp.make_mpf(_weight(ThetaFamily.THETA, eta._mpf_, s._mpf_, wp)) * factor * eta
                e = eta * eta
            assert mp.log(w, 2) < w_top and mp.log(e, 2) < e_top
            row = _table_rows(256)[t]
            assert row[0] == e._mpf_[1:3]
            assert row[column] == w._mpf_[1:3]
        _clear_caches()
        assert warm == _quadratures(ThetaFamily.THETA, 1, spec)

    def test_deep_verification_makes_whole_rows_of_the_damped_tails(self, monkeypatch):
        # theta-containment's first damped quadrature at 512 bits (z = 0.25)
        # runs past its moment's rows; as the table holds rows it stores, and
        # its 1,288 weights are whole rows, which the family's later damped
        # quadratures would make anyway.  Every other weight is whole too:
        # weight-linear-dependence takes its 4 pointwise ones in one call each.
        _clear_caches()
        weights = _counted_weights(monkeypatch)
        assert all(check.passed for check in verify.run_verification(deep=True))
        assert len(_table_rows(512)) == 2634
        assert weights == [tuple(ThetaFamily)] * (2634 + 4)

    def test_theta_ratio_at_a_fresh_precision_makes_each_eta_once(self, monkeypatch):
        # the moment comes first and stores; the damped quadrature, its
        # family's first, reads those rows
        _clear_caches()
        calls = _watch(monkeypatch, oracle._node_table(192))
        theta_ratio(ThetaFamily.THETA_HAT, 2, "7.3", QuadratureSpec(precision=192))
        etas = calls["node"]
        assert etas and len(set(etas)) == len(etas)


class TestNodeCounts:
    """The cold nodes that the streams of a fresh one-off ``binet_J`` yield:
    the map eta = exp(t - e^-t) needs these; eta = exp((pi/2) sinh t) needed
    943, 943, 944 and 4,077.  A change that loses the gain fails here."""

    @pytest.mark.parametrize("precision, z, nodes", [
        (256, "0.5", 591), (256, "2.5", 593), (256, "50", 593), (512, "2.5", 1318)])
    def test_a_fresh_binet_J_makes_so_many_nodes(self, monkeypatch, precision, z, nodes):
        _clear_caches()
        calls = _watch(monkeypatch, oracle._node_table(precision))
        binet_J(z, QuadratureSpec(precision=precision))
        assert len(calls["node"]) == len(set(calls["visited"])) == nodes

    def test_the_node_budget_is_at_least_twice_a_cold_binet_J_at_1e_minus_30(self, monkeypatch):
        # _half_sum's fixed-point bound holds for fewer than 2**28 nodes
        _clear_caches()
        calls = _watch(monkeypatch, oracle._node_table(128))
        binet_J("1e-30", QuadratureSpec(precision=128))
        assert 2 * len(calls["visited"]) <= oracle._NODE_BUDGET < 2**28


MOMENT_PAIRS = [(family, k) for family in ThetaFamily for k in range(5)]


class TestMoments:
    @pytest.mark.parametrize("precision", [64, 192])
    def test_match_uncached_single_quadratures_bit_for_bit(self, precision):
        spec = QuadratureSpec(precision=precision)
        _clear_caches()
        single = {pair: [x._mpf_ for x in _moment_quadrature(*pair, spec, store=False)]
                  for pair in MOMENT_PAIRS}
        assert not _table_rows(precision)
        for order in (MOMENT_PAIRS, MOMENT_PAIRS[::-1]):
            _clear_caches()
            moments = {pair: oracle._integral(*pair, None, spec) for pair in order}
            assert {pair: [x._mpf_ for x in moments[pair]] for pair in order} == single
            # kept: a second read is the same result, not a new quadrature
            assert all(oracle._integral(*pair, None, spec) is moments[pair] for pair in order)

    def test_a_cold_coefficient_check_makes_each_row_once_and_whole(self, monkeypatch):
        spec = QuadratureSpec(precision=192)
        _clear_caches()
        table = oracle._node_table(192)
        calls = _watch(monkeypatch, table)
        weights = _counted_weights(monkeypatch)
        assert verify._check_coefficient_quadrature(False, spec).passed
        rows = _table_rows(192)
        # every t the 15 quadratures visit has a row, made at its first visit
        assert set(calls["visited"]) == set(rows)
        _each_cold_node_once({**calls, "visited": list(rows)}, list(rows))
        assert weights == [tuple(ThetaFamily)] * len(rows)
        assert _whole(rows, 192 + 32)


def recurrence_nodes(t0, dt, wp):
    """t -> (eta, 1 + E, s), E = e^-t and s = t - E, at the nodes t = +-(t0 + n*dt) of one
    level and at t = 0, by the recurrence ``oracle._nodes`` documents, on mpf
    operators: E at every index of a side in turn, from a direct exp at every
    _RESEED-th, s = t - E and eta = exp(s)."""
    gp = wp + oracle._NODE_GUARD
    sides = {1: [], -1: []}  # E at n = 0, 1, ... on the side t > 0 and t < 0
    with mp.workprec(gp):
        steps = {sign: mp.exp(-sign * dt) for sign in sides}

    def at(t):
        sign = 1 if t > 0 else -1
        n = int((abs(t) - t0) / dt)
        es = sides[sign]
        with mp.workprec(gp):
            while len(es) <= n:
                m = len(es)
                es.append(mp.exp(-sign * (t0 + m * dt)) if m % oracle._RESEED == 0
                          else es[-1] * steps[sign])
            e = es[n]
            exponent = t - e
        with mp.workprec(wp):
            return mp.exp(exponent), 1 + e, exponent

    return at


def direct_nodes(t0, dt, wp):
    """t -> (eta, 1 + e^-t, s) from a direct exp of -t and of s = t - e^-t
    at each t, an independent route to the recurrence's values."""
    def at(t):
        with mp.workprec(wp):
            e = mp.exp(-t)
            return mp.exp(t - e), 1 + e, t - e

    return at


def sinh_nodes(t0, dt, wp):
    """t -> (eta, d(eta)/dt / eta, ln eta) = (exp(lam*sinh t), lam*cosh t,
    lam*sinh t), lam = pi/2: the substitution the quadrature used before
    exp(t - e^-t), from a cosh and a sinh at each t."""
    def at(t):
        with mp.workprec(wp):
            lam = mp.pi / 2
            return mp.exp(lam * mp.sinh(t)), lam * mp.cosh(t), lam * mp.sinh(t)

    return at


def _pair_fraction(pair):
    """The exact value of a (mantissa, exponent) pair."""
    return Fraction(pair[0]) * Fraction(2) ** pair[1]


def _fraction(x):
    """The exact value of a finite mpf."""
    return _pair_fraction(x.man_exp)


def _top(x):
    """Exponent plus bit length of a nonzero mpf: 2**(top-1) <= |x| < 2**top."""
    return x._mpf_[2] + x._mpf_[3]


def ambient_de_quad(family, k, z, precision, nodes=recurrence_nodes, memo=None):
    """(value, err) of the fixed-point loop with no node table, the reference
    for ``oracle._de_quad_half_line``: the damped moment integral at z, or the
    undamped one when z is None.  ``nodes(t0, dt, wp)`` gives eta and the
    factor d(eta)/dt / eta on the level with nodes +-(t0 + n*dt); eta, W and
    e = eta**2 are mpf operators in the ambient context at P + 32 bits, and
    a node's term the floor of its exact value in one unit 2**u, as
    ``oracle._half_sum``'s docstring states.  A ``memo`` dict, shared
    by calls at one precision and one ``nodes``, keeps e and W by (family, t):
    each t lies on one level, so they depend on nothing else."""
    wp = precision + 32
    guard = oracle._SUM_GUARD
    far = wp + guard + 8
    with mp.workprec(wp):
        z2 = None if z is None else mp.mpf(z) ** 2

        def row(t, at):
            if memo is not None and (family, t) in memo:
                return memo[family, t]
            eta, factor, s = at(t)
            e, w = eta * eta, mp.make_mpf(_weight(family, eta._mpf_, s._mpf_, wp)) * factor * eta
            if memo is not None:
                memo[family, t] = e, w
            return e, w

        def term(t, at, u):
            # floor of x = W * e**k, over z2 + e when damped, in units of
            # 2**u, as one floor of integers, the power of two in the
            # divisor when it is negative; of z2 and e, one more than far
            # binades below the other is dropped
            e, w = row(t, at)
            bound = _top(w) + k * _top(e)  # x < 2**bound
            if z2 is not None:
                bound -= max(_top(z2), _top(e)) - 1
            if bound <= u:
                return 0  # without the huge divisor of a deep tail node
            (wm, we), (em, ee) = w.man_exp, e.man_exp
            num, shift, den = wm * em**k, we + k * ee - u, 1
            if z2 is not None:
                (zm, ze), gap = z2.man_exp, _top(z2) - _top(e)
                low = ze if gap > far else ee if gap < -far else min(ze, ee)
                den = ((zm << (ze - low) if gap >= -far else 0)
                       + (em << (ee - low) if gap <= far else 0))
                shift -= low
            return (num << shift) // den if shift >= 0 else num // (den << -shift)

        def half_sums(h, start, step, u):
            at = nodes(start * h, step * h, wp)
            total = 0
            for sgn in (1, -1):
                j = start
                run = 0
                while True:
                    q = term(sgn * j * h, at, u)
                    total += q
                    if q * 2**wp <= total:
                        run += 1
                        if run >= 2:
                            break
                    else:
                        run = 0
                    j += step
            return total

        middle = nodes(0.0, 1.0, wp)
        e, w = row(0.0, middle)
        # the middle node then has more than wp + guard bits
        u = _top(w) - 1 + k * (_top(e) - 1) - wp - guard
        if z2 is not None:
            u -= max(_top(z2), _top(e)) + 1
        total = term(0.0, middle, u) + half_sums(1.0, 1, 1, u)
        shift = total.bit_length() - wp - guard
        total, u = total >> shift, u + shift
        for level in range(1, 21):  # a bound of its own, so that the test ends
            previous, total = total, total + half_sums(2.0**-level, 1, 2, u)
            if level > 1:
                diff = abs(total - 2 * previous)
                if diff * 2 ** (precision - 32) <= total:
                    return tuple(mp.make_mpf(from_man_exp(m, u - level, wp, round_nearest))
                                 for m in (total, diff))
        raise AssertionError("the reference did not converge")


def _quadrature(family, k, z, spec):
    """The damped (at z) or undamped (z None) moment integral, bypassing the
    value caches, as exact mpf tuples."""
    if z is None:
        pair = _moment_quadrature(family, k, spec)
    else:
        zz = positive_real(z, spec.precision, "argument")
        pair = oracle._integral.__wrapped__(family, k, zz, spec)
    return [x._mpf_ for x in pair]


class TestLibmpLoop:
    CASES = [(family, k, z) for family in ThetaFamily for k in (0, 1, 2, 3, 4)
             for z in ("0.5", "2", "7.3", "45", None)]
    DIRECT_CASES = [(family, k, z) for family, k, z in CASES
                    if k in (0, 3) and z in ("2", "7.3", None)]
    SINH_CASES = [(family, k, z) for family in ThetaFamily for k in (0, 2, 6)
                  for z in (None, "0.25", "0.5", "7.3", "50")]

    @pytest.mark.parametrize("precision", [64, 128, 256])
    def test_matches_the_ambient_loop_bit_for_bit(self, precision):
        spec = QuadratureSpec(precision=precision)
        want, memo = {}, {}
        for family, k, z in self.CASES:
            zz = None if z is None else positive_real(z, precision, "argument")
            want[family, k, z] = [x._mpf_ for x in ambient_de_quad(family, k, zz, precision,
                                                                   memo=memo)]
        for ambient in (53, 1000):
            _clear_caches()
            with mp.workprec(ambient):
                # the first case of each family stores nothing, the next ones
                # fill the table, the later passes read it
                for _ in range(3):
                    for case in self.CASES:
                        assert _quadrature(*case, spec) == want[case], case
                assert mp.prec == ambient

    @staticmethod
    def _within_the_tolerance(cases, precision, nodes):
        """The quadrature agrees with the ambient loop on ``nodes`` to its own
        tolerance 2**(32-P) relative in every case."""
        spec = QuadratureSpec(precision=precision)
        memo = {}
        for family, k, z in cases:
            zz = None if z is None else positive_real(z, precision, "argument")
            want, _ = ambient_de_quad(family, k, zz, precision, nodes=nodes, memo=memo)
            got = mp.make_mpf(_quadrature(family, k, z, spec)[0])
            with mp.workprec(precision + 64):
                assert abs(got - want) <= mpf(2) ** (32 - precision) * abs(want), (family, k, z)

    @pytest.mark.parametrize("precision", [64, 128, 256])
    def test_matches_the_direct_exp_loop_within_the_tolerance(self, precision):
        # eta and 1 + e^-t from exps at each t, not the recurrence
        self._within_the_tolerance(self.DIRECT_CASES, precision, direct_nodes)

    @pytest.mark.parametrize("precision", [64, 128, 256])
    def test_matches_the_sinh_substitution_within_the_tolerance(self, precision):
        # an independent rule: eta = exp((pi/2) sinh t), other nodes, other tails
        self._within_the_tolerance(self.SINH_CASES, precision, sinh_nodes)

    def test_a_warm_node_makes_no_context_arithmetic(self, monkeypatch):
        mpf_type = type(mpf(1))
        calls = []

        def counted(op):
            def wrapper(self, other):
                calls.append(op)
                return op(self, other)
            return wrapper

        counts = {}
        for precision in (64, 256):
            spec = QuadratureSpec(precision=precision)
            for _ in range(3):  # nothing stored, then storing, then reading
                _quadrature(ThetaFamily.THETA, 1, "7.3", spec)
            calls.clear()
            with monkeypatch.context() as patch:
                for name in ("__mul__", "__add__"):
                    patch.setattr(mpf_type, name, counted(getattr(mpf_type, name)))
                _quadrature(ThetaFamily.THETA, 1, "7.3", spec)
            counts[precision] = len(calls)
        assert len(_table_rows(64)) < len(_table_rows(256))
        assert counts[64] == counts[256]

    def test_a_warm_quadrature_makes_no_libmp_arithmetic(self, monkeypatch):
        # on a table two earlier passes filled, a warm node reads pairs and
        # sums exact integers: no weight, node stream, exp, log, product or
        # quotient of libmp tuples, counted through the oracle's names
        cases = [(ThetaFamily.THETA, 0, "7.3"), (ThetaFamily.THETA_TILDE, 3, "7.3"),
                 (ThetaFamily.THETA_HAT, 2, None)]
        specs = [QuadratureSpec(precision=precision) for precision in (64, 256)]
        _clear_caches()
        for _ in range(2):  # nothing stored by a first damped quadrature, then storing
            for spec in specs:
                for case in cases:
                    _quadrature(*case, spec)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        with monkeypatch.context() as patch:
            for name in ("_weights", "_nodes", "mpf_exp", "mpf_log", "mpf_mul", "mpf_div"):
                patch.setattr(oracle, name, counted(name, getattr(oracle, name)))
            for spec in specs:
                for case in cases:
                    _quadrature(*case, spec)
        assert calls == []

    def test_a_warm_node_takes_no_power(self, monkeypatch):
        # e**k is an exact integer power: a warm node, damped or not, calls
        # no mpf_pow_int
        spec = QuadratureSpec(precision=256)
        for z in ("7.3", None):
            for _ in range(3):  # nothing stored, then storing, then reading
                _quadrature(ThetaFamily.THETA_HAT, 4, z, spec)
        calls = []

        def counted(*args):
            calls.append(args)
            return libmpf.mpf_pow_int(*args)

        with monkeypatch.context() as patch:
            for module in (libmpf, mpmath.libmp, oracle):
                patch.setattr(module, "mpf_pow_int", counted, raising=False)
            for z in ("7.3", None):
                _quadrature(ThetaFamily.THETA_HAT, 4, z, spec)
        assert calls == []


@st.composite
def tail_tests(draw):
    """(term, before, wp): the integer term of a node and the sum of the
    level's nodes before it: random; or term * 2**wp one below, at or one
    above the total before + term; or a zero term; or a first node, with
    nothing before it."""
    wp = draw(st.integers(1, 600))
    term = draw(st.integers(0, 2 ** (wp + 8)))
    shape = draw(st.sampled_from(["random", "tie", "zero term", "first node"]))
    if shape == "tie":
        term = max(term, 1)
        before = (term << wp) - term + draw(st.sampled_from([-1, 0, 1]))
    elif shape == "first node":
        before = 0
    else:
        before = draw(st.integers(0, 2 ** (2 * wp + 8)))
        term = 0 if shape == "zero term" else term
    return term, before, wp


def loop_ends_tail(term, before, wp):
    """Whether the node loop's tail ends at a node whose term is the integer
    ``term``, after the sum ``before`` of the level's earlier nodes: W =
    term, e = 1 and a unit of 1 plant it exactly.  A zero node follows, so
    the tail ends exactly when the term is negligible."""
    rows = [[(1, 0), (term, 0)], [(1, 0), (0, 0)]]
    total, peak, _ = oracle._half_sum(before, rows, None, 2, 1, 0, None, 0, wp)
    assert total == before + term
    return peak is not None


class TestTailTest:
    """The node loop's tail test on integer terms (``oracle._half_sum``)
    against the exact test it states: term <= 2**-wp times the sum with the
    term.  CI runs this class a second time under the ``ci`` Hypothesis
    profile."""

    @settings(deadline=None)
    @given(tail_tests())
    def test_decides_as_the_exact_test(self, term_before_wp):
        term, before, wp = term_before_wp
        want = Fraction(term) <= Fraction(before + term, 2**wp)
        assert loop_ends_tail(term, before, wp) is want

    def test_ties_on_both_sides(self):
        for wp in (2, 64, 288):
            for term in (1, 3, 2**wp + 1):
                total = term << wp
                for before, want in ((total - term, True), (total - term - 1, False),
                                     (total - term + 1, True)):
                    assert loop_ends_tail(term, before, wp) is want, (wp, term, before)


class TestFixedPointSums:
    """Each level's sum, S_l in units of 2**(u-l), against the exact
    trapezoid sum T_l of the rows the quadrature stored: within the bound
    ``oracle._half_sum`` states, (n + 1) units plus 2**-T relative for n
    nodes, and so 2**-(wp+8) relative."""

    CASES = [(family, k, z) for family in ThetaFamily
             for k, z in ((0, None), (3, None), (0, "0.5"), (2, "7.3"), (1, "45"))]

    @pytest.mark.parametrize("precision", [64, 128])
    def test_every_level_is_within_the_bound_of_the_exact_trapezoid_sum(
            self, monkeypatch, precision):
        spec = QuadratureSpec(precision=precision)
        wp = precision + 32
        far = wp + oracle._SUM_GUARD + 8
        sums = {}  # u - l: S_l, the first of the level's two roundings

        def recorded(m, e, bits, rounding, fn=oracle._round):
            sums.setdefault(e, m)
            return fn(m, e, bits, rounding)

        monkeypatch.setattr(oracle, "_round", recorded)
        for family, k, z in self.CASES:
            z2 = None
            if z is not None:
                x = positive_real(z, precision, "argument").man_exp
                z2 = _product(x, x, wp)
            _clear_caches()
            oracle._de_quad_half_line(family, k, z2, spec, True)  # stores every node
            sums.clear()  # then the same sums from the rows alone, no weight rounded
            oracle._de_quad_half_line(family, k, z2, spec, True)
            column = oracle._COLUMNS[family]
            new = {}  # level: the exact W * e**k, over z2 + e when damped, of its new nodes
            for t, (e, *ws) in _table_rows(precision).items():
                x = _pair_fraction(ws[column - 1]) * _pair_fraction(e) ** k
                if z2 is not None:
                    x /= _pair_fraction(z2) + _pair_fraction(e)
                new.setdefault(t.as_integer_ratio()[1].bit_length() - 1, []).append(x)
            nodes, want = len(new[0]), sum(new[0])
            for level, (exponent, total) in enumerate(sums.items(), start=1):
                nodes, want = nodes + len(new[level]), want + sum(new[level])
                trapezoid = want / 2**level
                error = abs(_pair_fraction((total, exponent)) - trapezoid)
                case = (family, k, z, level)
                assert error <= (nodes + 1) * Fraction(2) ** exponent + trapezoid / 2**far, case
                assert error <= trapezoid / 2 ** (wp + 8), case


def _level_errors(nodes, ts, wp):
    """Relative errors of (eta, 1 + e^-t) at each t, and the absolute error
    of s = ln eta, in units of 2**-wp, against a direct exp at wp + 64 bits."""
    errors = []
    with mp.workprec(wp + 64):
        for (eta, factor, s), t in zip(nodes, ts):
            e = mp.exp(-t)
            errors.append([abs(mp.make_mpf(x) / y - 1) * mpf(2) ** wp
                           for x, y in zip((eta, factor), (mp.exp(t - e), 1 + e))]
                          + [abs(mp.make_mpf(s) - (t - e)) * mpf(2) ** wp])
    return errors


@st.composite
def level_walks(draw):
    """(t0, dt, n, m, precision): a level side t0 + n*dt, t0 = j0*h and dt =
    step*h signed, h = 2**-level, with n past a reseed where the level is
    fine enough, all at t >= -11; and an index m <= n a stream starts at."""
    h = 2.0 ** -draw(st.integers(0, 12))
    sign = draw(st.sampled_from([1, -1]))
    j0, step = draw(st.integers(0, 3)), draw(st.sampled_from([1, 2]))
    reach = int((11 - j0 * h) / (step * h))
    n = draw(st.integers(0, min(reach, 2 * oracle._RESEED + 50)))
    m = draw(st.integers(0, n))
    precision = draw(st.sampled_from([64, 128, 256, 512, 1024]))
    return sign * j0 * h, sign * step * h, n, m, precision


def _stream(t0, dt, wp, start, count):
    """The first ``count`` nodes of ``oracle._nodes`` from index ``start``."""
    return list(itertools.islice(oracle._nodes(t0, dt, wp, start), count))


class TestLevelRecurrence:
    """``oracle._nodes`` against a direct exp at P + 96 bits, within the
    bound its docstring states: 2**(1-wp) relative, 2 units of 2**-wp, and
    s within one unit.  CI
    runs the property a second time under the ``ci`` Hypothesis profile."""

    @pytest.mark.parametrize("precision", [64, 512])
    def test_a_walk_past_a_reseed_stays_within_the_bound(self, precision):
        # level 10: t = +-(2n + 1) / 1024, out to +-2.98, a reseed at n = 1024
        wp = precision + 32
        h = 2.0 ** -10
        count = oracle._RESEED + 500
        for dt in (h, -h):
            nodes = _stream(dt, 2 * dt, wp, 0, count)
            ts = [dt + n * 2 * dt for n in range(count)]
            assert all(e <= 2 and f <= 2 and s <= 1 for e, f, s in _level_errors(nodes, ts, wp))

    def test_far_tails_stay_within_the_bound(self):
        # level 1 out to t = -10.5, where E = e^-t is near 2**15, and to
        # t = 10.5; the last nodes of a 512-bit binet_J lie at t = -7.5 and 6
        wp = 512 + 32
        for dt in (1.0, -1.0):
            ts = [dt / 2 + n * dt for n in range(11)]
            nodes = _stream(dt / 2, dt, wp, 0, 11)
            assert all(e <= 2 and f <= 2 and s <= 1 for e, f, s in _level_errors(nodes, ts, wp))

    def test_a_node_does_not_depend_on_what_ran_before(self):
        # a stream started anywhere at or below n yields the node n of a
        # stream started at 0: on both sides of the reseed at n = 1024
        wp = 128 + 32
        h = 2.0 ** -10
        for dt in (h, -h):
            sequence = _stream(dt, 2 * dt, wp, 0, 1100)
            for n, m in itertools.product((5, 1023, 1024, 1030, 1099), (0, 4, 1023, 1024, 1030)):
                m = min(m, n)
                assert _stream(dt, 2 * dt, wp, m, n - m + 1)[-1] == sequence[n], (dt, m, n)

    @settings(deadline=None)
    @given(level_walks())
    # level 10 past its reseed at n = 1024, streams started on either side
    # of it, on both sides of the level
    @example((2.0**-10, 2.0**-9, 1030, 1020, 128))
    @example((-(2.0**-10), -(2.0**-9), 1030, 1024, 128))
    @example((-(2.0**-10), -(2.0**-9), 1024, 1023, 64))
    @example((2.0**-10, 2.0**-9, 1024, 0, 256))
    @example((2.0**-10, 2.0**-9, 1023, 1000, 64))
    @example((-(2.0**-10), -(2.0**-9), 1023, 0, 512))
    @example((2.0**-10, 2.0**-9, 1099, 1024, 64))
    @example((-(2.0**-10), -(2.0**-9), 1099, 1, 128))
    @example((2.0**-10, 2.0**-9, 1100, 0, 1024))
    # level 1 out to t = -10.5, where E = e^-t is near 2**15, and level 0 to t = 11
    @example((-0.5, -1.0, 10, 9, 512))
    @example((1.0, 1.0, 10, 3, 256))
    # the first node of a side, and t = 0
    @example((3 * 2.0**-12, 2.0**-11, 0, 0, 64))
    @example((0.0, 1.0, 0, 0, 512))
    def test_any_node_is_within_the_bound_whatever_ran_before(self, walk):
        # the node n of a stream started at m <= n is that of a stream
        # started at n, and within the bound
        t0, dt, n, m, precision = walk
        wp = precision + 32
        got = _stream(t0, dt, wp, m, n - m + 1)[-1]
        assert got == next(oracle._nodes(t0, dt, wp, n))
        [(e, f, s)] = _level_errors([got], [t0 + n * dt], wp)
        assert e <= 2 and f <= 2 and s <= 1


class TestDampedValueCache:
    def test_bounded_and_hit_by_a_repeated_scan(self):
        info = oracle._integral.cache_info()
        assert info.maxsize is not None
        spec = QuadratureSpec(precision=128)
        grid = [5, 6, 7]
        oracle._integral.cache_clear()
        enveloping_control_scan(grid, 2, spec)
        enveloping_control_scan(grid, 2, spec)
        info = oracle._integral.cache_info()
        assert (info.hits, info.misses) == (len(grid), len(grid))


def reference_weight(family, eta, precision):
    """The weight at raw eta through mpmath's own functions at ``precision``
    bits: a route that shares no code with ``oracle._weights``."""
    with mp.workprec(precision):
        u = 2 * mp.pi * mp.make_mpf(eta)
        if family is ThetaFamily.THETA:
            return -mp.log(-mp.expm1(-u)) if u < 1 else -mp.log1p(-mp.exp(-u))
        if family is ThetaFamily.THETA_HAT:
            return mp.log1p(mp.exp(-u))
        return mp.log(mp.coth(u / 2)) if u < 1 else 2 * mp.atanh(mp.exp(-u))


@st.composite
def weight_points(draw):
    """(eta, s, precision): a wp-bit eta, wp = precision + 32, and s = ln eta
    at the node recurrence's wp + _NODE_GUARD bits, as ``oracle._nodes`` gives
    them; eta in the last binade of the small-u branch of ``oracle._weights``
    or the one above it, in the first of the small-q branch or the one below
    it, deep in either tail, or anywhere between, with the binade's least
    and greatest mantissas among the draws."""
    precision = draw(st.sampled_from([64, 128, 256, 512, 1024]))
    wp = precision + 32
    small_u, small_q = oracle._edges(wp)
    top = draw(st.one_of(
        st.sampled_from([small_u, small_u + 1]),  # u near the small-u edge
        st.sampled_from([small_q - 1, small_q]),  # q near the small-q edge
        st.integers(-100_000, small_u),  # deep in the small-u tail
        st.integers(small_q, 41),  # deep in the small-q tail, q near 2**-(10**13)
        st.integers(small_u, small_q)))
    mantissa = draw(st.one_of(st.sampled_from([2 ** (wp - 1), 2**wp - 1]),
                              st.integers(2 ** (wp - 1), 2**wp - 1)))
    return _weight_point(precision, top, mantissa)


def _weight_point(precision, top, mantissa):
    """(eta, s, precision) for eta = mantissa * 2**(top - wp), a wp-bit
    mantissa, as ``weight_points`` draws it."""
    eta = from_man_exp(mantissa, top - precision - 32)
    with mp.workprec(precision + 32 + oracle._NODE_GUARD):
        s = mp.log(mp.make_mpf(eta))._mpf_
    return eta, s, precision


def _edge_examples(test):
    """The property's explicit examples, points a random draw reaches only by
    luck: the least, a middle and the greatest mantissa of the binade 15
    below the small-u edge at 64 bits and 17 below it at 128, where a small-u
    series one term short misses its one-unit budget; and the least mantissa
    of the binade below the small-q edge at 128 and 256 bits, where the
    small-q series would miss it."""
    for precision, below in ((64, 15), (128, 17)):
        wp = precision + 32
        for mantissa in (2 ** (wp - 1), 3 << (wp - 2), 2**wp - 1):
            test = example(_weight_point(precision, oracle._edges(wp)[0] - below, mantissa))(test)
    for precision in (128, 256):
        wp = precision + 32
        test = example(_weight_point(precision, oracle._edges(wp)[1] - 1, 2 ** (wp - 1)))(test)
    return test


class TestWeight:
    """``oracle._weights`` on both sides of each branch edge and deep in both
    tails.  CI runs the property a second time under the ``ci`` Hypothesis
    profile."""

    @settings(deadline=None)
    @given(weight_points())
    @_edge_examples
    def test_within_one_unit_of_2_to_the_minus_working_bits(self, point):
        eta, s, precision = point
        wp = precision + 32
        weights = oracle._weights(tuple(ThetaFamily), eta, s, wp)
        for family, got in zip(ThetaFamily, weights):
            assert got == _weight(family, eta, s, wp)  # alone, the same bits
            want = reference_weight(family, eta, precision + 200)
            with mp.workprec(precision + 200):
                assert want > 0 and mp.make_mpf(got) > 0
                assert abs(mp.make_mpf(got) - want) <= mpf(2) ** -wp * want, family
        # theta-tilde = theta + theta-hat within 2 units in theta-tilde's last place
        theta, tilde, hat = map(mp.make_mpf, weights)
        with mp.workprec(precision + 200):
            assert abs(tilde - (theta + hat)) <= 2 * mpf(2) ** (_top(tilde) - wp)

    def test_small_u_tables_are_one_series_and_its_duplicates(self, monkeypatch):
        # A_n = B_2n / (2n (2n)!) is the u**(2n) coefficient of ln(sinh(u/2)/(u/2));
        # sinh 2x = 2 sinh x cosh x makes C_n = (4**n - 1) A_n and D_n = (2 - 4**n) A_n
        calls = []
        monkeypatch.setattr(oracle, "_log_of_series",
                            lambda f, log=oracle._log_of_series: calls.append(f) or log(f))
        tables = oracle._exact_log_tables.__wrapped__()
        assert len(calls) == 1
        a = [bernoulli_even(n) / (2 * n * math.factorial(2 * n))
             for n in range(1, oracle._SMALL_U_TERMS + 1)]
        assert tables == (tuple(a), tuple((4**n - 1) * c for n, c in enumerate(a, 1)),
                          tuple((2 - 4**n) * c for n, c in enumerate(a, 1)))
        assert tables == oracle._exact_log_tables()

    @pytest.mark.parametrize("family", list(ThetaFamily))
    def test_positive_deep_in_the_tail(self, family):
        # q = e^(-2 pi eta) near 2**-(10**13) at eta = 2**40: the weight is q or 2q,
        # and a logarithm of 1 + q would round it to 0
        for precision in (64, 1024):
            wp = precision + 32
            with mp.workprec(wp + oracle._NODE_GUARD):
                s = mp.log(2**40)._mpf_
            w = _weight(family, from_int(2**40), s, wp)
            assert w[0] == 0 and w[1] > 0 and w[2] + w[3] < -9 * 10**12


class TestZeroTerms:
    def test_a_zero_term_is_negligible(self):
        assert loop_ends_tail(0, 3, 288)
        assert loop_ends_tail(0, 0, 288)
        assert not loop_ends_tail(1, 2, 288)

    def test_a_lone_zero_node_does_not_end_a_tail(self):
        # _TAIL_RUN negligible nodes in a row end a tail, a lone one does not
        terms = [3, 0, 3, 0, 0, 3]
        rows = [[(1, 0), (w, 0)] for w in terms]
        # the tail ends at the second zero in a row, the fifth node summed
        assert oracle._half_sum(0, rows, None, 6, 1, 0, None, 0, 64) == (6, 0, 5)

    def test_a_factor_that_vanishes_in_the_tail_ends_the_tail(self, monkeypatch):
        # zero terms that were never negligible would walk the tail until
        # the node budget is spent
        cut = from_int(2**8)  # on eta

        def vanishing(families, eta, s, wp, fn=oracle._weights):
            return [fzero] * len(families) if mpf_gt(eta, cut) else fn(families, eta, s, wp)

        monkeypatch.setattr(oracle, "_weights", vanishing)
        _clear_caches()  # every node cold, none stored
        value, _ = oracle._de_quad_half_line(ThetaFamily.THETA, 0, None, SPEC, False)
        assert not _table_rows(SPEC.precision)
        # beyond eta = 2**8 theta < e^(-1600), far below 2**-288 of the whole
        # integral, which is pi times beta_0 = 1/12
        with mp.workprec(320):
            want = mp.pi / 12
        assert close(value, want)


def _arrays(*precisions):
    """Each precision's node table as plain lists: the middle row, and the
    rows of each side by (level, side), empty sides left out."""
    tables = {precision: oracle._node_table(precision) for precision in precisions}
    return {precision: (list(table.middle),
                        {key: list(side) for key, side in table.sides.items() if side})
            for precision, table in tables.items()}


class TestThreads:
    """Threads on cold tables give the serial results, and leave the rows a
    serial fill leaves: each side as long, the same row at each index, none
    duplicated or shifted.  In both cases the moments alone fill the same
    rows, so the rows do not depend on which damped quadratures store."""

    def test_six_cold_threads_at_two_precisions_match_serial(self):
        jobs = [(ThetaFamily.THETA, 1, 256), (ThetaFamily.THETA_TILDE, 1, 320),
                (ThetaFamily.THETA_HAT, 2, 256), (ThetaFamily.THETA, 2, 320),
                (ThetaFamily.THETA_TILDE, 0, 256), (ThetaFamily.THETA_HAT, 0, 320)]
        _clear_caches()
        serial = [_quadratures(family, k, QuadratureSpec(precision=precision))
                  for family, k, precision in jobs]
        filled = _arrays(256, 320)
        _clear_caches()
        for family, k, precision in jobs:
            _moment_quadrature(family, k, QuadratureSpec(precision=precision))
        assert _arrays(256, 320) == filled
        _clear_caches()
        results = [None] * len(jobs)

        def work(i):
            family, k, precision = jobs[i]
            results[i] = _quadratures(family, k, QuadratureSpec(precision=precision))

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 120
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial
        assert _arrays(256, 320) == filled

    def test_four_threads_of_moments_and_damped_calls_match_serial(self):
        # the moments make whole rows from their first node, while the damped
        # calls read them and, from each family's second, make rows too
        spec = QuadratureSpec(precision=192)

        def coefficients(order):
            return [x._mpf_ for family, k in order
                    for x in coefficient_quadrature(family, k, spec, error=True)]

        def damped(order):
            return [x._mpf_ for family, k in order
                    for x in remainder_quadrature(family, k, "2.5", spec, error=True)]

        jobs = [lambda: coefficients(MOMENT_PAIRS), lambda: damped(MOMENT_PAIRS[::-1]),
                lambda: coefficients(MOMENT_PAIRS[::-1]), lambda: damped(MOMENT_PAIRS)]
        serial = []
        for job in jobs:
            _clear_caches()
            serial.append(job())
        _clear_caches()
        for job in jobs:
            job()
        filled = _arrays(192)
        _clear_caches()
        coefficients(MOMENT_PAIRS)
        assert _arrays(192) == filled
        _clear_caches()
        results = [None] * len(jobs)

        def work(i):
            results[i] = jobs[i]()

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 120
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial
        assert _arrays(192) == filled


class TestNoGlobalPrecisionWrites:
    CALLS = {
        "binet_J": lambda: binet_J("7.3", SPEC, error=True),
        "binet_J_tilde": lambda: binet_J_tilde(5, QuadratureSpec(precision=128)),
        "theta_ratio": lambda: theta_ratio(ThetaFamily.THETA_HAT, 2, "3.5", SPEC, error=True),
        "remainder_quadrature": lambda: remainder_quadrature(ThetaFamily.THETA_TILDE, 1, 4, SPEC),
        "coefficient_quadrature": lambda: coefficient_quadrature(
            ThetaFamily.THETA, 3, QuadratureSpec(precision=64), error=True),
        "exact_ln_factorial": lambda: exact_ln_factorial(50, 128),
        "exact_ln_central_binomial": lambda: exact_ln_central_binomial(10**4),
        "exact_ln_gamma_half": lambda: exact_ln_gamma_half(7, 512),
    }

    def test_the_oracle_never_sets_the_global_precision(self, precision_writes):
        for call in self.CALLS.values():  # make the private contexts
            call()
        writes = precision_writes()
        _clear_caches()
        for _ in range(3):  # cold, storing, warm
            for call in self.CALLS.values():
                call()
        assert writes == []


def ambient_wrappers(family, k, z, precision):
    """What remainder_quadrature, theta_ratio and coefficient_quadrature
    return with error=True, from the same quadratures, by mpf operators in
    the global context."""
    spec = QuadratureSpec(precision=precision)
    zz = positive_real(z, precision, "argument")
    num, num_err = oracle._integral(family, k, zz, spec)
    den, den_err = oracle._integral(family, k, None, spec)
    with mp.workprec(precision + 32):
        scale = zz / (mp.pi * zz ** (2 * k))
        values = [family.row.sign(k) * scale * num, scale * num_err]
        ratio = zz * zz * num / den
        values += [ratio, abs(ratio) * (num_err / abs(num) + den_err / abs(den))]
        inv_pi = 1 / mp.pi
        values += [inv_pi * den, inv_pi * den_err]
    with mp.workprec(precision):
        return [(+x)._mpf_ for x in values]


def ambient_exact_logs(n, precision):
    with mp.workprec(precision + 32):
        values = [mp.log(mpf(math.factorial(n))),
                  mp.log(mpf(math.factorial(2 * n)))
                  - mp.log(mpf(math.factorial(n))) - 2 * n * mp.log(2) + mp.log(mp.pi) / 2]
        if n:
            values.append(mp.log(mpf(math.comb(2 * n, n))))
    with mp.workprec(precision):
        return [(+x)._mpf_ for x in values]


# The global precision while a wrapper runs: too low, the default, and far above
# any working precision used here.
AMBIENT_PRECISIONS = (12, 53, 1000)


class TestLibmpWrappers:
    @pytest.mark.parametrize("precision", [64, 256])
    def test_match_the_mpf_expressions_bit_for_bit(self, precision):
        with mp.workprec(1000):
            deep_z = mp.mpf(22) / 3
        spec = QuadratureSpec(precision=precision)
        for family in ThetaFamily:
            for k, z in ((0, "0.3"), (3, deep_z)):
                want = ambient_wrappers(family, k, z, precision)
                for ambient in AMBIENT_PRECISIONS:
                    with mp.workprec(ambient):
                        got = [*remainder_quadrature(family, k, z, spec, error=True),
                               *theta_ratio(family, k, z, spec, error=True),
                               *coefficient_quadrature(family, k, spec, error=True)]
                    assert [x._mpf_ for x in got] == want, (family, k, ambient)

    def test_z_squared_rounds_a_deep_argument_first(self):
        with mp.workprec(1000):
            z = mp.mpf(22) / 3
        spec = QuadratureSpec(precision=64)
        want = ambient_de_quad(ThetaFamily.THETA, 1, z, 64)
        assert _quadrature(ThetaFamily.THETA, 1, z, spec) == [x._mpf_ for x in want]

    @pytest.mark.parametrize("precision", [64, 100, 1024])
    def test_exact_logs_match_the_mpf_expressions_bit_for_bit(self, precision):
        for n, ambient in itertools.product((0, 1, 7, 1000), AMBIENT_PRECISIONS):
            with mp.workprec(ambient):
                got = [exact_ln_factorial(n, precision), exact_ln_gamma_half(n, precision)]
                if n:
                    got.append(exact_ln_central_binomial(n, precision))
            assert [x._mpf_ for x in got] == ambient_exact_logs(n, precision), (n, ambient)
