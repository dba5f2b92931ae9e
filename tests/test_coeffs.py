"""Coefficient generation against published values and independent recurrences."""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from envasym import bernoulli_even, beta, beta_hat, beta_tilde, coeffs, zeta_even
from envasym.coeffs import coefficient_table

# Exact table for k = 0..6, checked against the published values digit for digit.
GOLDEN = {
    "beta": [
        Fraction(1, 12),
        Fraction(1, 360),
        Fraction(1, 1260),
        Fraction(1, 1680),
        Fraction(1, 1188),
        Fraction(691, 360360),
        Fraction(1, 156),
    ],
    "beta-tilde": [
        Fraction(1, 8),
        Fraction(1, 192),
        Fraction(1, 640),
        Fraction(17, 14336),
        Fraction(31, 18432),
        Fraction(691, 180224),
        Fraction(5461, 425984),
    ],
    "beta-hat": [
        Fraction(1, 24),
        Fraction(7, 2880),
        Fraction(31, 40320),
        Fraction(127, 215040),
        Fraction(511, 608256),
        Fraction(1414477, 738017280),
        Fraction(8191, 1277952),
    ],
}


def bernoulli_oracle(n: int) -> Fraction:
    """Full defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0, all indices.

    Deliberately includes the odd indices the production code skips.
    """
    table = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, j) * table[j] for j in range(m))
        table.append(-acc / (m + 1))
    return table[n]


@lru_cache(maxsize=1)
def even_recurrence(upto: int = 151) -> tuple[Fraction, ...]:
    """B_0, B_2, ..., B_{2 upto} from the even-index binomial recurrence.

    The package's own construction before tangent numbers, kept here as a
    reference: sum_{j=0}^{n} C(n+1, j) B_j = 0 restricted to even j, where
    the lone B_1 = -1/2 contributes the constant 1/2.
    """
    table = [Fraction(1)]
    for m in range(1, upto + 1):
        n = 2 * m
        acc = sum((comb(n + 1, 2 * i) * table[i] for i in range(m)), Fraction(0))
        table.append(Fraction(1, 2) - acc / (n + 1))
    return tuple(table)


def von_staudt_clausen_denominator(two_m: int) -> int:
    def is_prime(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    result = 1
    for p in range(2, two_m + 2):
        if is_prime(p) and two_m % (p - 1) == 0:
            result *= p
    return result


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_table(family):
    assert coefficient_table(family, 6) == GOLDEN[family]


def test_bernoulli_small_values():
    assert bernoulli_even(1) == Fraction(1, 6)
    assert bernoulli_even(2) == Fraction(-1, 30)


def test_bernoulli_b12_against_independent_recurrence():
    expected = bernoulli_oracle(12)
    assert bernoulli_even(6) == expected
    assert expected == Fraction(-691, 2730)
    assert expected.denominator == von_staudt_clausen_denominator(12)


@pytest.mark.parametrize("m", range(1, 26))
def test_von_staudt_clausen_denominators(m):
    assert bernoulli_even(m).denominator == von_staudt_clausen_denominator(2 * m)


def test_bernoulli_matches_full_recurrence_through_b40():
    for m in range(1, 21):
        assert bernoulli_even(m) == bernoulli_oracle(2 * m)


def test_bernoulli_matches_even_recurrence_through_k150():
    # beta(150) needs B_302 = bernoulli_even(151).
    expected = even_recurrence()
    for m in range(1, 152):
        assert bernoulli_even(m) == expected[m], m


def test_bernoulli_matches_sympy_through_m300():
    for m in range(1, 301):
        b = sympy.bernoulli(2 * m)
        assert bernoulli_even(m) == Fraction(int(b.p), int(b.q)), m


def test_table_grows_an_eighth_past_the_request(monkeypatch):
    # Growth to twice the length made B_1400 after B_1200 build 1,357 entries
    # (3 s); an eighth past m builds 790.
    monkeypatch.setattr(coeffs, "_BERNOULLI_EVEN", [Fraction(1)])
    bernoulli_even(600)
    assert len(coeffs._BERNOULLI_EVEN) == 678
    b = mp.bernfrac(1400)
    assert bernoulli_even(700) == Fraction(int(b[0]), int(b[1]))
    assert len(coeffs._BERNOULLI_EVEN) <= 790


def test_tangent_numbers_start():
    assert coeffs._tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]


def test_bernoulli_rejects_m_below_one():
    with pytest.raises(ValueError):
        bernoulli_even(0)
    with pytest.raises(ValueError):
        bernoulli_even(-3)


def test_linear_dependence_through_k50():
    for k in range(51):
        assert beta_tilde(k) == beta(k) + beta_hat(k)
        assert beta_tilde(k) == (2 - Fraction(1, 2 ** (2 * k + 1))) * beta(k)
        assert beta_hat(k) == (1 - Fraction(1, 2 ** (2 * k + 1))) * beta(k)


def test_positivity_and_reduced_form_through_k50():
    for k in range(51):
        for value in (beta(k), beta_tilde(k), beta_hat(k)):
            assert value > 0
            assert value.denominator >= 1  # Fraction keeps gcd = 1 by construction


@given(st.integers(min_value=0, max_value=150))
def test_linear_dependence_property(k):
    assert beta_tilde(k) == beta(k) + beta_hat(k)
    assert beta(k) > 0 and beta_hat(k) > 0


def test_zeta_even_euler_values():
    with mp.workprec(320):
        assert abs(zeta_even(0, 256) - mp.pi**2 / 6) < mpf(2) ** -250
        assert abs(zeta_even(1, 256) - mp.pi**4 / 90) < mpf(2) ** -250


def test_zeta_even_k2_against_independent_evaluation():
    # pi^6/945 evaluated at well above the requested precision
    with mp.workprec(400):
        independent = mp.pi**6 / 945
        assert abs(zeta_even(2, 256) - independent) < mpf(2) ** -250


def test_zeta_even_decreasing_toward_one():
    values = [zeta_even(k, 128) for k in range(12)]
    with mp.workprec(160):
        assert values[0] <= mp.pi**2 / 6 + mpf(2) ** -120
    for a, b in zip(values, values[1:]):
        assert a > b > 1


def test_zeta_even_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_even(-1)
    with pytest.raises(ValueError):
        zeta_even(0, precision=32)


def test_concurrent_readers_see_fresh_values(monkeypatch):
    # Start from an empty table, so the requests span rebuilds: the last two
    # are queued behind 604 requests up to B_302, which rebuild it first.
    from concurrent.futures import ThreadPoolExecutor

    rebuilds = []
    tangent_numbers = coeffs._tangent_numbers
    monkeypatch.setattr(coeffs, "_BERNOULLI_EVEN", [Fraction(1)])
    monkeypatch.setattr(coeffs, "_tangent_numbers",
                        lambda n: rebuilds.append(n) or tangent_numbers(n))
    expected = even_recurrence()
    indices = list(range(1, 152)) * 4
    random.Random(7).shuffle(indices)
    indices += [200, 254]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(bernoulli_even, indices, timeout=120))
    finally:
        sys.setswitchinterval(old_interval)
    assert results[:-2] == [expected[m] for m in indices[:-2]]
    assert len(rebuilds) >= 2
    table = coeffs._BERNOULLI_EVEN
    assert len(table) > 254 and table[:152] == list(expected)
    assert results[-2:] == [Fraction(int(b.p), int(b.q))
                            for b in (sympy.bernoulli(400), sympy.bernoulli(508))]
