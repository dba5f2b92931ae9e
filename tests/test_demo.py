"""Witness search for the non-enveloping perturbation of Binet's function."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from envasym import (
    DomainError,
    QuadratureSpec,
    ViolationMode,
    binet_J,
    demo,
    enveloping_control_scan,
    find_envelope_violation,
    oracle,
    perturbed_binet,
    revalidate_witness,
    series,
)
from envasym.coeffs import COEFFICIENT_FAMILIES, beta
from envasym.precision import INDEX_CAP, positive_real
from envasym.series import SeriesKind, _checked_argument

SPEC = QuadratureSpec(precision=256)


class TestPerturbedBinet:
    def test_definition_at_one(self):
        with mp.workprec(320):
            expected = binet_J(1, SPEC) + mp.exp(-1)
            assert abs(perturbed_binet(1, 1, SPEC) - expected) < mpf(2) ** -240

    def test_perturbation_size_at_ten(self):
        with mp.workprec(320):
            gap = perturbed_binet(10, 1, SPEC) - binet_J(10, SPEC)
            assert abs(gap - mp.exp(-10)) < mpf(2) ** -240
            assert mpf("4.5e-5") < gap < mpf("4.6e-5")

    def test_rate_boundaries(self):
        with mp.workprec(288):
            just_inside = 2 * mp.pi - mpf("1e-9")
            at_boundary = 2 * mp.pi
        perturbed_binet(1, just_inside, SPEC)  # accepted
        for bad in (at_boundary, 0, -1, 7):
            with pytest.raises(DomainError):
                perturbed_binet(1, bad, SPEC)

    def test_a_constant_rate_is_taken_at_the_working_precision(self):
        # mp.convert(mp.pi) is the constant itself, not an mpf
        values = []
        for ambient in (53, 1000):
            with mp.workprec(ambient):
                values.append(perturbed_binet(1, mp.pi, SPEC))
        assert values[0]._mpf_ == values[1]._mpf_
        with mp.workprec(320):
            assert abs(values[0] - binet_J(1, SPEC) - mp.exp(-mp.pi)) < mpf(2) ** -240

    def test_a_rate_is_the_number_it_spells(self):
        # a Fraction used to be rounded toward zero, one unit at 96 bits
        # below the string that spells the same number
        from_fraction, from_string = (demo._checked_rate(b, 64)._mpf_
                                      for b in (Fraction(1, 3), "1/3"))
        assert from_fraction == from_string == positive_real("1/3", 64, "b")._mpf_

    @pytest.mark.parametrize("bad", ["9", "0", "-1", "nan", "inf", "2j", "x", True,
                                     Fraction(7), mpf(7), "1e200000"])
    def test_every_refused_rate_gets_one_message(self, bad):
        with pytest.raises(DomainError) as info:
            demo._checked_rate(bad, 64)
        assert str(info.value) == f"decay rate must lie strictly inside (0, 2*pi), got {bad!r}"

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            perturbed_binet(0, 1, SPEC)


class TestWitnessSearch:
    def test_default_scan_finds_magnitude_witness(self):
        witness = find_envelope_violation(1, range(5, 21), 5, SPEC)
        assert witness is not None
        assert witness.mode is ViolationMode.MAGNITUDE_EXCEEDED
        assert abs(witness.remainder) > witness.next_term_bound

    def test_expected_violation_near_x10_k1(self):
        # e^-10 ~ 4.5e-5 dwarfs the next term beta(1)/10^3 ~ 2.8e-6, so the
        # perturbed remainder at x = 10, k = 1 must break the magnitude bound
        with mp.workprec(320):
            r1 = binet_J(10, SPEC) - mp.convert(beta(0)) / 10
            remainder = r1 + mp.exp(-10)
            bound = mp.convert(beta(1)) / 1000
            assert abs(remainder) > bound
        witness = find_envelope_violation(1, [10], 5, SPEC)
        assert witness is not None
        assert witness.mode is ViolationMode.MAGNITUDE_EXCEEDED

    def test_witness_revalidates_at_doubled_precision(self):
        witness = find_envelope_violation(1, range(5, 21), 5, SPEC)
        assert revalidate_witness(witness, 1, SPEC)

    def test_control_scan_is_clean(self):
        assert enveloping_control_scan(range(5, 21), 5, SPEC) == []

    def test_control_scan_is_clean_at_small_arguments(self):
        assert enveloping_control_scan([mpf("0.5"), 1, 2], 4, SPEC) == []

    def test_not_found_when_perturbation_fits_inside_slack(self):
        # e^(-6.2) ~ 2.0e-3 stays below the k = 0 slack (1 - theta) beta(0)
        # at x = 1 (~2.3e-3) and far below the k = 1 term, so no violation
        assert find_envelope_violation(mpf("6.2"), [1], 1, SPEC) is None

    def test_small_grid_may_still_witness(self):
        # a single tiny argument already violates at k = 0 for b = 1
        witness = find_envelope_violation(1, [mpf("0.5")], 1, SPEC)
        assert witness is not None
        assert witness.k == 0

    def test_a_remainder_of_the_wrong_sign_is_a_sign_mismatch(self):
        # at x = 10 the remainder of J after one term is negative and below
        # the k = 1 term's 2.8e-6; adding e^(-1.25 x) ~ 3.7e-6 makes it
        # positive, 9.6e-7, without making it larger than that term
        spec = QuadratureSpec(precision=128)
        xx = _checked_argument(SeriesKind.BINET_J, 10, spec.precision)
        found = demo._violations_at(xx, range(0, 4), spec, demo._checked_rate("1.25", 128))
        assert [(w.k, w.mode) for w in found] == [
            (0, ViolationMode.MAGNITUDE_EXCEEDED), (1, ViolationMode.SIGN_MISMATCH),
            (2, ViolationMode.MAGNITUDE_EXCEEDED), (3, ViolationMode.MAGNITUDE_EXCEEDED)]
        assert found[1].remainder > 0
        assert mpf("2.7e-6") < found[1].next_term_bound < mpf("2.8e-6")

    def test_scan_order_is_grid_major(self):
        witness = find_envelope_violation(1, [20, 10, 5], 5, SPEC)
        assert witness.x == 20

    @pytest.mark.parametrize("k_max", [0, -1, True, 1.5])
    def test_both_scans_refuse_a_k_max_that_checks_nothing(self, k_max):
        # the control scan returned [] for k_max 0 or -1: clean, having checked nothing
        with pytest.raises(ValueError, match="k_max must be an int >= 1"):
            enveloping_control_scan([5], k_max, SPEC)
        with pytest.raises(ValueError, match="k_max must be an int >= 1"):
            find_envelope_violation(1, [5], k_max, SPEC)

    def test_a_k_max_above_the_cap_raises_before_any_coefficient_or_quadrature(
            self, monkeypatch):
        calls = []
        for family, build in COEFFICIENT_FAMILIES.items():
            monkeypatch.setitem(COEFFICIENT_FAMILIES, family,
                                lambda j, build=build: calls.append(j) or build(j))
        monkeypatch.setattr(oracle, "_de_quad_half_line", lambda *args: calls.append(args))
        series._rounded_coefficient.cache_clear()
        above = INDEX_CAP + 1
        message = f"^k_max must be at most the cap of {INDEX_CAP}, got {above}$"
        with pytest.raises(DomainError, match=message):
            find_envelope_violation(1, [5], above, SPEC)
        with pytest.raises(DomainError, match=message):
            enveloping_control_scan([5], above, SPEC)
        assert calls == []

    def test_a_bad_argument_anywhere_in_the_grid_raises_before_any_quadrature(
            self, monkeypatch):
        # the scan read its grid lazily: the first call returned the witness at
        # x = 5 and never read the other two points
        calls = []
        monkeypatch.setattr(demo, "binet_J",
                            lambda *args, **kwargs: calls.append(args) or binet_J(*args, **kwargs))
        with pytest.raises(DomainError):
            find_envelope_violation(1, [5, -1, "abc"], 3, QuadratureSpec(64))
        with pytest.raises(DomainError):
            enveloping_control_scan([5, -1], 3, QuadratureSpec(64))
        assert calls == []

    def test_rejects_empty_grid_and_bad_rate(self):
        with pytest.raises(ValueError):
            find_envelope_violation(1, [], 5, SPEC)
        with pytest.raises(ValueError):
            find_envelope_violation(1, [5], 0, SPEC)
        with pytest.raises(DomainError):
            find_envelope_violation(9, [5], 5, SPEC)
