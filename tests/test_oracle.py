"""Oracle module: exact big-integer logs and quadrature cross-identities."""

import itertools
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import fone, from_int, fzero, mpf_gt

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
from envasym import oracle
from envasym.coeffs import beta, beta_hat, beta_tilde
from envasym.demo import enveloping_control_scan
from envasym.precision import positive_real

SPEC = QuadratureSpec(precision=256)
TIGHT = mpf(2) ** -200


def close(a, b, tol=TIGHT):
    with mp.workprec(320):
        return abs(a - b) <= tol * max(1, abs(b))


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
    @pytest.mark.parametrize("eta", ["0.1", "0.5", "1", "2"])
    def test_pointwise(self, eta):
        with mp.workprec(288):
            e = mpf(eta)
            lhs = ThetaFamily.THETA.weight(e) + ThetaFamily.THETA_HAT.weight(e)
            rhs = ThetaFamily.THETA_TILDE.weight(e)
            assert abs(lhs - rhs) <= mpf(2) ** -230 * rhs

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


class TestQuadratureSpec:
    def test_tolerance_floor(self):
        assert QuadratureSpec(precision=256).effective_tol() == mpf(2) ** -224

    def test_level_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_LEVELS", 2)
        _clear_value_caches()  # a cached value would skip the quadrature
        with pytest.raises(QuadratureNonConvergence) as info:
            binet_J(mpf("3.75"), SPEC)
        assert isinstance(info.value.value, mpf)
        assert isinstance(info.value.error, mpf)

    def test_tail_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_TAIL_CAP", 3)
        _clear_value_caches()
        with pytest.raises(QuadratureNonConvergence, match="tail") as info:
            binet_J(mpf("3.75"), SPEC)
        assert isinstance(info.value.value, mpf)


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


def _clear_value_caches():
    oracle._moment_integral.cache_clear()
    oracle._damped_moment_integral.cache_clear()


def _quadratures(family, k, spec):
    """The damped (z = 2) and undamped moment integrals, bypassing the value
    caches, as exact mpf tuples."""
    damped = oracle._damped_moment_integral.__wrapped__(family, k, mpf(2), spec)
    moment = oracle._moment_integral.__wrapped__(family, k, spec)
    return [x._mpf_ for pair in (damped, moment) for x in pair]


def _stored(precision, family):
    """Count of nodes whose W is stored for this family at this precision."""
    column = oracle._COLUMNS[family]
    rows = oracle._node_table(precision).rows.values()
    return sum(row[column] is not None for row in rows)


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
            oracle._node_table.cache_clear()
            cold[family, k] = _quadratures(family, k, spec)
        oracle._node_table.cache_clear()
        for _ in range(3):  # nothing stored, then storing, then reading
            for family, k in cases:
                assert _quadratures(family, k, spec) == cold[family, k]
        assert all(_stored(precision, family) for family in ThetaFamily)

    def test_single_call_at_a_new_precision_stores_nothing(self):
        spec = QuadratureSpec(precision=192)
        oracle._node_table.cache_clear()
        _clear_value_caches()
        binet_J(3, spec)
        assert not oracle._node_table(192).rows
        binet_J(4, spec)
        assert _stored(192, ThetaFamily.THETA)
        assert not _stored(192, ThetaFamily.THETA_HAT)

    def test_one_off_queries_of_each_family_store_nothing(self):
        spec = QuadratureSpec(precision=192)
        oracle._node_table.cache_clear()
        _clear_value_caches()
        binet_J(3, spec)
        binet_J_tilde(3, spec)
        remainder_quadrature(ThetaFamily.THETA_HAT, 1, 3, spec)
        assert not oracle._node_table(192).rows

    def test_no_node_is_computed_twice_at_a_precision(self, monkeypatch):
        spec = QuadratureSpec(precision=256)
        oracle._node_table.cache_clear()
        _clear_value_caches()
        binet_J(3, spec)  # stores nothing
        binet_J(4, spec)  # creates THETA's rows
        table = oracle._node_table(256)
        had_row = set(table.rows)
        assert had_row
        visited = []

        class Visits(dict):
            def get(self, t, default=None):
                visited.append(t)
                return super().get(t, default)

        calls = {"cosh_sinh": 0, "weight": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(table, "rows", Visits(table.rows))
        monkeypatch.setattr(oracle, "mpf_cosh_sinh", counted("cosh_sinh", oracle.mpf_cosh_sinh))
        monkeypatch.setattr(oracle, "_weight", counted("weight", oracle._weight))
        binet_J_tilde(3, spec)  # THETA_TILDE's first quadrature at 256 bits
        assert len(set(visited)) == len(visited)
        old = [t for t in visited if t in had_row]
        assert old
        assert calls["cosh_sinh"] == len(visited) - len(old)
        assert calls["weight"] == len(visited)
        assert set(table.rows) == had_row
        column = oracle._COLUMNS[ThetaFamily.THETA_TILDE]
        assert all(table.rows[t][column] is not None for t in old)
        assert _stored(256, ThetaFamily.THETA_TILDE) == len(old)

    def test_other_precision_leaves_result_unchanged(self):
        spec = QuadratureSpec(precision=256)
        deep = QuadratureSpec(precision=320)
        oracle._node_table.cache_clear()
        results = []
        for calls in ([spec, spec], [deep, deep], [spec]):
            for call_spec in calls:
                _clear_value_caches()
                value = remainder_quadrature(ThetaFamily.THETA_TILDE, 1, 7, call_spec)
                results.append((call_spec.precision, value._mpf_))
        assert results[0] == results[1] == results[4]
        assert _stored(320, ThetaFamily.THETA_TILDE)

    def test_threads_reading_one_precision_match_serial(self):
        # the threads read a table two serial passes have filled; threads
        # filling cold tables are TestThreads' case
        spec = QuadratureSpec(precision=256)
        jobs = [(family, k) for family in ThetaFamily for k in (1, 2)]
        oracle._node_table.cache_clear()
        for _ in range(2):
            serial = [_quadratures(family, k, spec) for family, k in jobs]
        rows = len(oracle._node_table(256).rows)
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
        assert len(oracle._node_table(256).rows) == rows

    def test_a_deep_tail_node_is_stored_as_computed(self):
        # the transformed node at t = 3.5, reached at step h = 1/2, where W's
        # exponent is below -10**12
        spec = QuadratureSpec(precision=256)
        oracle._node_table.cache_clear()
        _clear_value_caches()
        binet_J(3, spec)  # nothing stored, then storing, then reading
        binet_J(4, spec)
        warm = _quadratures(ThetaFamily.THETA, 1, spec)
        with mp.workprec(256 + 32):
            lam = mp.pi / 2
            eta = mp.exp(lam * mp.sinh(3.5))
            w = ThetaFamily.THETA.weight(eta) * lam * mp.cosh(3.5) * eta
        assert w._mpf_[2] < -10**12
        row = oracle._node_table(256).rows[3.5]
        column = oracle._COLUMNS[ThetaFamily.THETA]
        assert (row[0], row[column]) == (eta._mpf_, w._mpf_)
        with mp.workprec(256 + 32):
            assert (row[1], row[2]) == (mp.cosh(3.5)._mpf_, (eta * eta)._mpf_)
        oracle._node_table.cache_clear()
        assert warm == _quadratures(ThetaFamily.THETA, 1, spec)


def ambient_de_quad(family, k, z, precision):
    """(value, err) of the ambient-context loop with no node table, the
    reference for ``oracle._de_quad_half_line``: the damped moment integral
    at z, or the undamped one when z is None."""
    with mp.workprec(precision + 32):
        lam = mp.pi / 2
        tail_eps = mpf(2) ** (-(precision + 32))
        target = mpf(2) ** (32 - precision)
        z2 = None if z is None else mp.mpf(z) ** 2

        def g(t):
            eta = mp.exp(lam * mp.sinh(t))
            w = family.weight(eta) * lam * mp.cosh(t) * eta
            if z2 is None:
                return eta ** (2 * k) * w
            return eta ** (2 * k) / (z2 + eta * eta) * w

        def half_sums(h, start, step):
            total = mpf(0)
            for sgn in (1, -1):
                j = start
                run = 0
                while True:
                    term = g(sgn * j * h)
                    total += term
                    if abs(term) <= tail_eps * abs(total):
                        run += 1
                        if run >= 2:
                            break
                    else:
                        run = 0
                    j += step
            return total

        h = 1.0
        estimate = h * (g(0.0) + half_sums(h, 1, 1))
        previous = None
        for _ in range(oracle._MAX_LEVELS):
            h = h / 2
            estimate = estimate / 2 + h * half_sums(h, 1, 2)
            if previous is not None:
                err = abs(estimate - previous)
                if err <= target * abs(estimate):
                    return estimate, err
            previous = estimate
        raise AssertionError("the reference did not converge")


def _quadrature(family, k, z, spec):
    """The damped (at z) or undamped (z None) moment integral, bypassing the
    value caches, as exact mpf tuples."""
    if z is None:
        pair = oracle._moment_integral.__wrapped__(family, k, spec)
    else:
        zz = positive_real(z, spec.precision, "argument")
        pair = oracle._damped_moment_integral.__wrapped__(family, k, zz, spec)
    return [x._mpf_ for x in pair]


class TestLibmpLoop:
    CASES = [(family, k, z) for family in ThetaFamily for k in (0, 3)
             for z in ("2", "7.3", None)]

    @pytest.mark.parametrize("precision", [64, 128, 256])
    def test_matches_the_ambient_loop_bit_for_bit(self, precision):
        spec = QuadratureSpec(precision=precision)
        want = {}
        for family, k, z in self.CASES:
            zz = None if z is None else positive_real(z, precision, "argument")
            want[family, k, z] = [x._mpf_ for x in ambient_de_quad(family, k, zz, precision)]
        for ambient in (53, 1000):
            oracle._node_table.cache_clear()
            with mp.workprec(ambient):
                # the first case of each family stores nothing, the next ones
                # fill the table, the later passes read it
                for _ in range(3):
                    for case in self.CASES:
                        assert _quadrature(*case, spec) == want[case], case
                assert mp.prec == ambient

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
        assert len(oracle._node_table(64).rows) < len(oracle._node_table(256).rows)
        assert counts[64] == counts[256]


class TestDampedValueCache:
    def test_bounded_and_hit_by_a_repeated_scan(self):
        info = oracle._damped_moment_integral.cache_info()
        assert info.maxsize is not None
        spec = QuadratureSpec(precision=128)
        grid = [5, 6, 7]
        oracle._damped_moment_integral.cache_clear()
        enveloping_control_scan(grid, 2, spec)
        enveloping_control_scan(grid, 2, spec)
        info = oracle._damped_moment_integral.cache_info()
        assert (info.hits, info.misses) == (len(grid), len(grid))


def reference_weight(family, eta, precision):
    """The weight at raw eta through mpmath's own functions at ``precision``
    bits: a route that shares no code with ``oracle._weight``."""
    with mp.workprec(precision):
        u = 2 * mp.pi * mp.make_mpf(eta)
        if family is ThetaFamily.THETA:
            return -mp.log(-mp.expm1(-u)) if u < 1 else -mp.log1p(-mp.exp(-u))
        if family is ThetaFamily.THETA_HAT:
            return mp.log1p(mp.exp(-u))
        return mp.log(mp.coth(u / 2)) if u < 1 else 2 * mp.atanh(mp.exp(-u))


class TestWeight:
    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-2000, max_value=12),
           st.sampled_from([64, 128, 256, 512, 1024]))
    def test_within_one_unit_of_2_to_the_minus_working_bits(self, log2_eta, precision):
        wp = precision + 32
        with mp.workprec(wp):
            eta = (mpf(2) ** log2_eta)._mpf_
        for family in ThetaFamily:
            got = oracle._weight(family, eta, wp)
            want = reference_weight(family, eta, precision + 200)
            with mp.workprec(precision + 200):
                assert want > 0 and mp.make_mpf(got) > 0
                assert abs(mp.make_mpf(got) - want) <= mpf(2) ** -wp * want, family

    @pytest.mark.parametrize("family", list(ThetaFamily))
    def test_positive_deep_in_the_tail(self, family):
        # q = e^(-2 pi eta) near 2**-(10**13) at eta = 2**40: the weight is q or 2q,
        # and a logarithm of 1 + q would round it to 0
        for precision in (64, 1024):
            w = oracle._weight(family, from_int(2**40), precision + 32)
            assert w[0] == 0 and w[1] > 0 and w[2] + w[3] < -9 * 10**12

    def test_the_ambient_weight_is_the_raw_weight_at_mp_prec(self):
        eta = mpf("0.3")._mpf_
        for family in ThetaFamily:
            with mp.workprec(150):
                assert family.weight(mp.make_mpf(eta))._mpf_ == oracle._weight(family, eta, 150)


class TestZeroTerms:
    def test_a_zero_term_is_negligible(self):
        total = mpf(3)._mpf_
        assert oracle._negligible(fzero, total, 288)
        assert oracle._negligible(fzero, fzero, 288)
        assert not oracle._negligible(mpf(1)._mpf_, total, 288)

    def test_a_factor_that_vanishes_in_the_tail_ends_the_tail(self, monkeypatch):
        # zero terms that were never negligible walked the tail to the cap
        monkeypatch.setattr(oracle, "_TAIL_CAP", 10**3)
        cut = from_int(2**8)
        value, _ = oracle._de_quad_half_line(
            ThetaFamily.THETA, lambda eta, eta2: fzero if mpf_gt(eta, cut) else fone, SPEC)
        # beyond the cut theta < e^(-1600), far below 2**-288 of the whole
        # integral, which is pi times beta_0 = 1/12
        with mp.workprec(320):
            want = mp.pi / 12
        assert close(value, want)


class TestThreads:
    def test_six_cold_threads_at_two_precisions_match_serial(self):
        jobs = [(ThetaFamily.THETA, 1, 256), (ThetaFamily.THETA_TILDE, 1, 320),
                (ThetaFamily.THETA_HAT, 2, 256), (ThetaFamily.THETA, 2, 320),
                (ThetaFamily.THETA_TILDE, 0, 256), (ThetaFamily.THETA_HAT, 0, 320)]
        serial = [_quadratures(family, k, QuadratureSpec(precision=precision))
                  for family, k, precision in jobs]
        oracle._node_table.cache_clear()
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
        oracle._node_table.cache_clear()
        _clear_value_caches()
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
    num, num_err = oracle._damped_moment_integral(family, k, zz, spec)
    den, den_err = oracle._moment_integral(family, k, spec)
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
