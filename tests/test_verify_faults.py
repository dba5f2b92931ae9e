"""Every ``verify`` check reports FAIL when the quantity it checks is wrong.

Each case plants one fault at 64 bits in a function that a check reads
through its module attribute, and runs the whole suite: the check that reads
the fault, and no other, must report ``passed=False``.  Two more plant
faults at 256 bits that only the one agreement gate, 8 times the quadrature
floor, can see.  A failing case check's detail is its passing detail, then
the count of failing cases and the first five.  A warm 64-bit suite takes
about 0.05 s.
"""

import ast
import dataclasses
import re

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_mul

from envasym import oracle, series, verify
from envasym.oracle import ThetaFamily
from envasym.precision import _context
from envasym.series import SeriesKind

PRECISION = 64
SLIGHTLY_MORE = 1 + mpf(2) ** -20  # above the 64-bit quadrature floor of 2**-32


def _one_plus_2_to(n):
    """1 + 2**n, exactly."""
    return mp.fadd(1, mp.ldexp(1, n), exact=True)


def _scaled(factor):
    """A quadrature whose value is multiplied by ``factor`` (exactly)."""
    def plant(original):
        def fault(*args, **kwargs):
            return mp.fmul(original(*args, **kwargs), factor, exact=True)
        return fault
    return plant


def _tilde_weight_scaled(factor, precision):
    """``oracle._weights`` with theta-tilde's weight at eta = 0.1, as ``verify``
    passes it at ``precision`` (no quadrature node), multiplied by ``factor``."""
    eta = _context(precision).mpf("0.1")._mpf_

    def plant(original):
        def fault(families, x, s, wp):
            weights = original(families, x, s, wp)
            if x == eta:
                return [mpf_mul(w, factor._mpf_) if family is ThetaFamily.THETA_TILDE else w
                        for family, w in zip(families, weights)]
            return weights
        return fault
    return plant


def _with_error(err):
    """A quadrature whose error estimate, when asked for, is ``err``."""
    def plant(original):
        def fault(*args, error=False, **kwargs):
            result = original(*args, error=error, **kwargs)
            return (result[0], mpf(err)) if error else result
        return fault
    return plant


def _interval_moved(lo_by, hi_by):
    """``envelope_interval`` with its ends moved by lo_by(k) and hi_by(k), exactly."""
    def plant(original):
        def fault(kind, z, k, precision):
            env = original(kind, z, k, precision)
            return dataclasses.replace(env, lo=mp.fadd(env.lo, lo_by(k), exact=True),
                                       hi=mp.fadd(env.hi, hi_by(k), exact=True))
        return fault
    return plant


def _certified_changed(**changes):
    """A certified evaluation with each named field mapped by its function."""
    def plant(original):
        def fault(*args, **kwargs):
            value = original(*args, **kwargs)
            return dataclasses.replace(
                value, **{name: f(getattr(value, name)) for name, f in changes.items()})
        return fault
    return plant


FAULTS = {
    "coefficient-quadrature": (oracle, "coefficient_quadrature", _scaled(SLIGHTLY_MORE)),
    "weight-linear-dependence": (oracle, "_weights",
                                 _tilde_weight_scaled(SLIGHTLY_MORE, PRECISION)),
    "theta-containment": (oracle, "theta_ratio", _with_error(1)),
    "remainder-identity": (oracle, "remainder_quadrature", _scaled(-1)),
    "jtilde-decomposition": (oracle, "binet_J_tilde", _scaled(-1)),
    # the elementary prefix of ln Gamma(n) taken at n + 1
    "binet-vs-exact-gamma": (verify, "from_int",
                             lambda original: lambda n: original(n + 1)),
    # every enclosure moved up by 1, so nested ones stay nested
    "bracketing-grid": (series, "envelope_interval",
                        _interval_moved(lambda k: 1, lambda k: 1)),
    # the enclosure after k terms widened by k on each side, so it still
    # contains the truth but no longer nests in the one before it
    "nesting-below-minimum-term": (series, "envelope_interval",
                                   _interval_moved(lambda k: -k, lambda k: k)),
    # the sum of k + 1 terms for the sum of k: every remainder flips sign
    "sign-alternation": (series, "partial_sum",
                         lambda original: lambda kind, z, k, precision:
                         original(kind, z, k + 1, precision)),
    "half-shift-consistency": (series, "ln_gamma",
                               _certified_changed(value=lambda v: mp.fadd(v, 1, exact=True))),
    # a floor reported one index above the minimum-term index
    "auto-truncate-policy": (series, "min_term_index",
                             lambda original: lambda *args: original(*args) - 1),
    "half-shift-relabeling": (series, "ln_factorial_demoivre",
                              _certified_changed(error_bound=lambda e: mp.ldexp(e, 1))),
}



def _bound_raised(original):
    """``auto_truncate`` returning its bound times 2**64, above every tol."""
    def fault(*args):
        k, bound = original(*args)
        return k, mp.ldexp(bound, 64)
    return fault


#: The checks that list failing cases through ``verify._case_check``.
CASE_CHECKS = {"theta-containment", "bracketing-grid", "sign-alternation",
               "nesting-below-minimum-term", "half-shift-consistency",
               "auto-truncate-policy", "half-shift-relabeling"}


def _results(monkeypatch, module, name, plant, precision=PRECISION):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    return verify.run_verification(precision=precision)


def _failing(monkeypatch, *fault, precision=PRECISION):
    return [r.name for r in _results(monkeypatch, *fault, precision=precision) if not r.passed]


@pytest.fixture(scope="module")
def passing_details():
    return {r.name: r.detail for r in verify.run_verification(precision=PRECISION)}


def test_every_check_has_a_fault():
    assert sorted(FAULTS) == sorted(check.name for check in
                                    verify.run_verification(precision=PRECISION))


@pytest.mark.parametrize("check", sorted(FAULTS))
def test_the_fault_fails_its_check_alone(monkeypatch, passing_details, check):
    results = _results(monkeypatch, *FAULTS[check])
    assert [r.name for r in results if not r.passed] == [check]
    if check in CASE_CHECKS:
        detail = next(r.detail for r in results if r.name == check)
        # the passing detail with its counts free: a fault may move how many
        # sign comparisons fall below the oracle's noise
        head = re.sub(r"\d+", r"\\d+", re.escape(passing_details[check]))
        match = re.fullmatch(head + r"; (\d+) failures, first: (\[.*\])", detail)
        assert match, detail
        count, listing = match.groups()
        shown = ast.literal_eval(listing)
        assert len(shown) == min(5, int(count)) > 0
        if check == "theta-containment":  # an error estimate of 1 fails all 3 * 3 * 4 ratios
            assert (int(count), len(shown)) == (36, 5)


@pytest.mark.parametrize("factor", [3, SLIGHTLY_MORE], ids=["3", "1+2**-20"])
def test_a_scaled_jtilde_fails_its_mismatch_check_alone(monkeypatch, factor):
    # the mismatch checks allow a few times the quadrature floor, not a
    # relative gap of 1 at 64 bits
    assert _failing(monkeypatch, oracle, "binet_J_tilde", _scaled(factor)) == [
        "jtilde-decomposition"]


@pytest.mark.parametrize("check, fault", [
    # 2**-100 lies below 1e-25, a floor that would let it pass
    ("coefficient-quadrature", (oracle, "coefficient_quadrature", _scaled(_one_plus_2_to(-100)))),
    # 2**-218 lies below 2**(40-P), a pointwise cap that would let it pass
    ("weight-linear-dependence", (oracle, "_weights",
                                  _tilde_weight_scaled(_one_plus_2_to(-218), 256))),
], ids=["coefficient-quadrature", "weight-linear-dependence"])
def test_a_small_fault_at_256_bits_fails_its_check_alone(monkeypatch, check, fault):
    # the agreement gate at 256 bits is 8 * 2**-224 = 2**-221
    assert _failing(monkeypatch, *fault, precision=256) == [check]


def test_a_bound_above_tol_fails_the_truncation_policy_alone(monkeypatch):
    # the floor fault above reaches only the policy's floor branch
    assert _failing(monkeypatch, series, "auto_truncate", _bound_raised) == [
        "auto-truncate-policy"]


def test_an_argument_without_an_exact_truth_is_refused():
    with pytest.raises(ValueError, match="no exact oracle"):
        verify.tail_truth(SeriesKind.BINET_J, mpf("0.3"), PRECISION)
