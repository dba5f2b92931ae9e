"""Witness search for the non-enveloping perturbation of Binet's function."""

import pytest
from mpmath import mp, mpf

from envasym import (
    DomainError,
    QuadratureSpec,
    ViolationMode,
    binet_J,
    enveloping_control_scan,
    find_envelope_violation,
    perturbed_binet,
    revalidate_witness,
)
from envasym.coeffs import beta

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

    def test_scan_order_is_grid_major(self):
        witness = find_envelope_violation(1, [20, 10, 5], 5, SPEC)
        assert witness.x == 20

    def test_rejects_empty_grid_and_bad_rate(self):
        with pytest.raises(ValueError):
            find_envelope_violation(1, [], 5, SPEC)
        with pytest.raises(ValueError):
            find_envelope_violation(1, [5], 0, SPEC)
        with pytest.raises(DomainError):
            find_envelope_violation(9, [5], 5, SPEC)
