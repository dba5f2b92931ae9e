"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from envasym import (
    QuadratureSpec,
    SeriesKind,
    ThetaFamily,
    binet_J,
    coefficient_quadrature,
    envelope_interval,
    exact_ln_central_binomial,
    exact_ln_factorial,
    exact_ln_gamma_half,
    ln_central_binomial,
    theta_ratio,
)
from envasym.cli import run_cli
from envasym.coeffs import beta, beta_hat, beta_tilde, coefficient_table

P = 256
SPEC = QuadratureSpec(precision=P)


@contextmanager
def criterion(num, description, runtime_limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} PASS: {description} ({elapsed:.2f}s)")
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"took {elapsed:.2f}s, limit {runtime_limit}s"


def test_criterion_1_published_coefficient_table():
    expected = {
        "beta": [
            (1, 12), (1, 360), (1, 1260), (1, 1680), (1, 1188),
            (691, 360360), (1, 156),
        ],
        "beta-tilde": [
            (1, 8), (1, 192), (1, 640), (17, 14336), (31, 18432),
            (691, 180224), (5461, 425984),
        ],
        "beta-hat": [
            (1, 24), (7, 2880), (31, 40320), (127, 215040), (511, 608256),
            (1414477, 738017280), (8191, 1277952),
        ],
    }
    with criterion(1, "all 21 published fractions reproduced exactly", 1.0):
        emitted = 0
        for family, rows in expected.items():
            got = coefficient_table(family, 6)
            assert got == [Fraction(*row) for row in rows], family
            emitted += len(got)
        assert emitted == 21


def test_criterion_2_coefficient_identities_k50():
    with criterion(2, "beta-tilde = beta + beta-hat and scaling identity, k <= 50", 5.0):
        for k in range(51):
            factor = 2 - Fraction(1, 2 ** (2 * k + 1))
            assert beta_tilde(k) == beta(k) + beta_hat(k)
            assert beta_tilde(k) == factor * beta(k)


def _tail_oracle(kind, z):
    """Independent tail value and error estimate for the bracketing grid."""
    if kind is SeriesKind.BINET_J:
        return binet_J(z, SPEC, error=True)
    hp = P + 64
    with mp.workprec(hp):
        zz = mp.mpf(z)
        if kind is SeriesKind.CENTRAL_BINOMIAL:
            full = exact_ln_central_binomial(int(z), hp)
            prefix = zz * mp.log(4) - mp.log(mp.pi * zz) / 2
        elif kind is SeriesKind.DE_MOIVRE:
            full = exact_ln_factorial(int(z), hp)
            shifted = zz + mpf(1) / 2
            prefix = shifted * mp.log(shifted) - shifted + mp.log(2 * mp.pi) / 2
        else:
            if mp.isint(zz):
                full = exact_ln_gamma_half(int(zz), hp)
            else:
                full = exact_ln_factorial(int(zz - mpf(1) / 2), hp)
            prefix = zz * mp.log(zz) - zz + mp.log(2 * mp.pi) / 2
        value = full - prefix
        err = (abs(full) + abs(value) + 1) * mpf(2) ** (6 - hp)
        return value, err


def test_criterion_3_bracketing_grid():
    with criterion(3, "oracle inside every envelope on the (kind, z, k) grid", 120.0):
        checks = 0
        for kind in SeriesKind:
            zs = [mpf("0.5"), 1, 2, 5, 10, 30]
            if kind.row.integer_argument:
                zs = [z for z in zs if isinstance(z, int)]
            for z in zs:
                truth, err = _tail_oracle(kind, z)
                for k in range(9):
                    env = envelope_interval(kind, z, k, P)
                    with mp.workprec(P + 32):
                        margin = min(truth - env.lo, env.hi - truth)
                    assert env.contains(truth), (kind, z, k)
                    assert margin >= 10 * err, (kind, z, k)
                    checks += 1
        assert checks >= 150
        print(f"  ({checks} containment checks, zero failures)")


def test_criterion_4_central_binomial_spot_check():
    with criterion(4, "ln C(20,10) enclosed at tol 1e-8 with width <= 1e-8", 1.0):
        cv = ln_central_binomial(10, "1e-8", precision=P)
        with mp.workprec(P + 32):
            truth = mp.log(mpf(184756))
            assert cv.contains(truth)
            assert cv.error_bound <= mpf("1e-8")


def test_criterion_5_coefficient_quadrature():
    with criterion(5, "quadrature matches exact rationals to 1e-25, k <= 4", 60.0):
        families = {
            ThetaFamily.THETA: beta,
            ThetaFamily.THETA_TILDE: beta_tilde,
            ThetaFamily.THETA_HAT: beta_hat,
        }
        with mp.workprec(P + 64):
            for family, fn in families.items():
                for k in range(5):
                    got = coefficient_quadrature(family, k, SPEC)
                    want = mp.convert(fn(k))
                    assert abs(got - want) / want <= mpf("1e-25"), (family, k)


def test_criterion_6_theta_containment():
    with criterion(6, "theta ratios strictly inside (0, 1) beyond quadrature error"):
        for family in ThetaFamily:
            for k in (0, 1, 2):
                for z in (mpf("0.5"), 1, 5, 20):
                    value, err = theta_ratio(family, k, z, SPEC, error=True)
                    assert value - err > 0, (family, k, z)
                    assert 1 - value > err, (family, k, z)


def test_criterion_7_non_enveloping_witness(capsys):
    with criterion(7, "demo --b 1 finds a magnitude witness; control scan clean", 60.0):
        code = run_cli(["demo", "--b", "1", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        witness = record["result"]["witness"]
        assert witness is not None
        assert witness["mode"] == "magnitude_exceeded"
        assert record["result"]["control_witnesses"] == 0
        # the advertised instance: at x = 10 the perturbation e^-10 ~ 4.5e-5
        # overwhelms the k = 1 term beta(1)/10^3 ~ 2.8e-6
        assert mpf(witness["remainder"]) != 0


def test_criterion_8_accuracy_floor(capsys):
    with criterion(8, "eval --z 1 --tol 1e-30 exits 2 with the scan's best bound"):
        code = run_cli(["eval", "--series", "binet", "--z", "1", "--tol", "1e-30"])
        err = capsys.readouterr().err
        assert code == 2

        # brute-force scan oracle: term magnitudes at z = 1 from the zeta form
        # of the coefficients, minimized up to the first increase
        with mp.workprec(200):
            mags = [
                2 * mp.factorial(2 * k) * mp.zeta(2 * k + 2) / (2 * mp.pi) ** (2 * k + 2)
                for k in range(10)
            ]
        floor = None
        for k in range(9):
            if mags[k + 1] >= mags[k]:
                floor = mags[k]
                break
        assert floor is not None

        match = re.search(r"best_bound: ([0-9.e+-]+)", err)
        assert match, err
        reported = mpf(match.group(1))
        assert abs(reported - floor) / floor < mpf("1e-12")
