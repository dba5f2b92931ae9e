"""Certified enclosures of ln C(2n, n) and ln n! against an independent truth.

The reference shares no code with ``envasym``: the exact integer is a
product of consecutive integers, taken in exact chunks and multiplied in
mpmath's interval context at P + 64 bits with outward rounding, so its log
encloses ``iv.log(math.comb(2n, n))`` or ``iv.log(math.factorial(n))``
without building a million-digit integer.  Every drawn library result, and
the ``lo``/``hi`` that ``envasym eval`` prints, read exactly, must contain
the whole reference interval.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

from envasym import (
    SeriesKind,
    ToleranceUnattainable,
    ln_central_binomial,
    ln_factorial_demoivre,
    min_term_index,
)
from envasym.cli import run_cli

CHUNK = 256  # consecutive factors per exact product; about the fastest size


def iv_context(precision: int) -> MPIntervalContext:
    ctx = MPIntervalContext()
    ctx.prec = precision + 64
    return ctx


def ln_product(ctx, first: int, last: int):
    """Interval enclosing ln(first * (first + 1) * ... * last)."""
    chunks = (math.prod(range(a, min(a + CHUNK, last + 1))) for a in range(first, last + 1, CHUNK))
    return ctx.log(math.prod(map(ctx.convert, chunks), start=ctx.mpf(1)))


def ln_central_binomial_truth(ctx, n: int):
    return ln_product(ctx, n + 1, 2 * n) - ln_product(ctx, 1, n)


def ln_factorial_truth(ctx, n: int):
    return ln_product(ctx, 1, n)


CASES = {
    SeriesKind.CENTRAL_BINOMIAL: (ln_central_binomial, ln_central_binomial_truth,
                                  lambda n: math.comb(2 * n, n)),
    SeriesKind.DE_MOIVRE: (ln_factorial_demoivre, ln_factorial_truth, math.factorial),
}


def exact(raw: tuple) -> Fraction:
    return Fraction(*map(int, to_rational(raw)))


def assert_inside(truth, lo: Fraction, hi: Fraction, what):
    a, b = map(exact, truth._mpi_)
    assert lo <= a and b <= hi, what


def cli_eval(kind, n: int, precision: int, option: list[str]) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["eval", "--series", kind.value, "--z", str(n),
                        "--precision", str(precision), "--format", "json", *option])
    return code, json.loads(out.getvalue())["result"] if code == 0 else None


# k* grows with n and is 31 or more from n = 10 on, so min(k*, 30) only needs
# k* below 10.
def top_index(kind, n: int) -> int:
    return min(30, min_term_index(kind, min(n, 10)))


@pytest.mark.parametrize("kind", list(CASES))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10**6), precision=st.integers(64, 1024), by_terms=st.booleans(), data=st.data())
def test_the_enclosure_contains_the_log_of_the_exact_integer(kind, n, precision, by_terms, data):
    evaluate, truth_of, _ = CASES[kind]
    truth = truth_of(iv_context(precision), n)
    k_top = top_index(kind, n)
    if by_terms:
        k = data.draw(st.integers(0, k_top), label="terms")
        option, cv = ["--terms", str(k)], evaluate(n, terms=k, precision=precision)
    else:
        # a tol of 10^-d at or above the certified bound at k_top
        floor = evaluate(n, terms=k_top, precision=precision).error_bound
        digits = max(0, int(-mp.log10(floor)))
        tol = f"1e-{data.draw(st.integers(0, digits), label='digits')}"
        option = ["--tol", tol]
        try:
            cv = evaluate(n, tol, precision=precision)
        except ToleranceUnattainable as exc:
            # the rounding slop, not the series, missed tol at the chosen k
            assert exact(exc.best_bound._mpf_) > Fraction(tol)
            assert cli_eval(kind, n, precision, option)[0] == 2
            option, cv = ["--terms", str(exc.k_best)], evaluate(
                n, terms=exc.k_best, precision=precision)
        else:
            assert exact(cv.error_bound._mpf_) <= Fraction(tol)
    lo, hi = cv.interval()
    assert_inside(truth, exact(lo._mpf_), exact(hi._mpf_), (n, precision, option))
    code, result = cli_eval(kind, n, precision, option)
    assert code == 0
    assert_inside(truth, Fraction(result["lo"]), Fraction(result["hi"]), (n, precision, option))


@pytest.mark.parametrize("precision", (64, 1024))
@pytest.mark.parametrize("kind", list(CASES))
def test_the_reference_encloses_the_exact_integer_tightly(kind, precision):
    _, truth_of, integer = CASES[kind]
    ctx = iv_context(precision)
    for n in (1, 2, 3, 10, CHUNK, CHUNK + 1, 3000):
        truth, direct = truth_of(ctx, n), ctx.log(integer(n))
        assert_inside(direct, *map(exact, truth._mpi_), n)
        width = exact(truth._mpi_[1]) - exact(truth._mpi_[0])
        assert width <= Fraction(1, 2 ** (precision + 40)), n
