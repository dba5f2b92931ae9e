"""Certified enclosures of ln C(2n, n), ln n!, ln Gamma(z) and
ln Gamma(z + 1/2) against references that share no code with ``envasym``.

For the integer kinds the exact integer is a product of consecutive
integers, taken in exact chunks and multiplied in mpmath's interval context
at P + 64 bits with outward rounding, so its log encloses
``iv.log(math.comb(2n, n))`` or ``iv.log(math.factorial(n))`` without
building a million-digit integer.  For the real kinds at z = p/q the
reference is mpmath's ``iv.loggamma``, which has directed endpoints but is
not proven; the test ids say so.  Every drawn library result, and the
``lo``/``hi`` that ``envasym eval`` prints, read exactly, must contain the
whole reference interval, also when four threads at three precisions race
to fill the rounded-coefficient table.
"""

import contextlib
import functools
import io
import json
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

from envasym import (
    SeriesKind,
    envelope_interval,
    ln_central_binomial,
    ln_factorial_demoivre,
    ln_gamma,
    ln_gamma_plus_half,
    min_term_index,
    series,
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


def cli_eval(kind, z, precision: int, option: list[str]) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["eval", "--series", kind.value, "--z", str(z),
                        "--precision", str(precision), "--format", "json", *option])
    return code, json.loads(out.getvalue())["result"] if code == 0 else None


# k* grows with n and is 31 or more from n = 10 on, so min(k*, 30) only needs
# k* below 10.
def top_index(kind, n: int) -> int:
    return min(30, min_term_index(kind, min(n, 10)))


@pytest.mark.parametrize("kind", list(CASES))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10**6), precision=st.integers(64, 1024), by_terms=st.booleans(),
       pick=st.integers(0, 10**9))
# the least n at the least precision, and n = 10**6 at the greatest; at
# n = 9, where k* is 28 and 30, the cap, 28 terms; tols at the floor and far
# above it
@example(n=1, precision=64, by_terms=True, pick=0)
@example(n=10**6, precision=1024, by_terms=False, pick=10**9)
@example(n=9, precision=100, by_terms=True, pick=28)
@example(n=37, precision=333, by_terms=False, pick=0)
@example(n=5, precision=64, by_terms=False, pick=10**9 - 1)
def test_the_enclosure_contains_the_log_of_the_exact_integer(kind, n, precision, by_terms, pick):
    # ``pick`` chooses the terms in [0, k_top], or the digits of the tol
    evaluate, truth_of, _ = CASES[kind]
    truth = truth_of(iv_context(precision), n)
    k_top = top_index(kind, n)
    if by_terms:
        k = pick % (k_top + 1)
        option, cv = ["--terms", str(k)], evaluate(n, terms=k, precision=precision)
    else:
        # a tol of 10^-d at or above the certified bound at k_top <= k*, so
        # some index at this precision meets it and the evaluation must too
        floor = evaluate(n, terms=k_top, precision=precision).error_bound
        digits = max(0, int(-mp.log10(floor)))
        tol = f"1e-{pick % (digits + 1)}"
        option = ["--tol", tol]
        cv = evaluate(n, tol, precision=precision)
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


def ln_gamma_reference(ctx, w: Fraction):
    """Interval for ln Gamma(w), w > 0, from ``iv.loggamma`` (not proven).

    ``iv.loggamma`` misses the truth below w = 1/2, often with a zero-width
    interval (at 1/3, 1/7 and 1/1000 among others), so below 1 it is taken
    at w + 1, less ln w.
    """
    x = ctx.mpf(w.numerator) / w.denominator
    return ctx.loggamma(x + 1) - ctx.log(x) if w < 1 else ctx.loggamma(x)


REAL_CASES = {
    SeriesKind.BINET_J: (ln_gamma, Fraction(0)),
    SeriesKind.GAMMA_PLUS_HALF: (ln_gamma_plus_half, Fraction(1, 2)),
}


def spellings(z: Fraction) -> list:
    """z as a Fraction, a "p/q" string, a decimal string when its denominator
    divides a power of 10, an int when it is one and a float when it is dyadic."""
    forms = [z, f"{z.numerator}/{z.denominator}"]
    q = z.denominator
    places = next((n for n in range(q.bit_length()) if 10**n % q == 0), None)
    if places is not None:
        digits = str(z.numerator * 10**places // q).rjust(places + 1, "0")
        forms.append(f"{digits[:-places]}.{digits[-places:]}" if places else digits)
    if q == 1:
        forms.append(z.numerator)
    if q & (q - 1) == 0 and z.numerator < 2**53:
        forms.append(float(z))
    return forms


def test_spellings_cover_every_form():
    assert spellings(Fraction(7, 1)) == [7, "7/1", "7", 7, 7.0]
    assert spellings(Fraction(73, 10)) == [Fraction(73, 10), "73/10", "7.3"]
    assert spellings(Fraction(3, 1000)) == [Fraction(3, 1000), "3/1000", "0.003"]
    assert spellings(Fraction(5, 2)) == [Fraction(5, 2), "5/2", "2.5", 2.5]
    assert spellings(Fraction(1, 3)) == [Fraction(1, 3), "1/3"]


@pytest.mark.parametrize("kind", list(REAL_CASES),
                         ids=[f"{k.value}-vs-unproven-iv.loggamma" for k in REAL_CASES])
@settings(max_examples=100, deadline=None)
@given(z=st.sampled_from([1, 2, 3, 7, 10, 1000]).flatmap(
           lambda q: st.integers(1, 10**5 * q).map(lambda p: Fraction(p, q))),
       pick=st.integers(0, 10**9), precision=st.integers(64, 1024), by_terms=st.booleans())
# z = p/q for each q, the least and the greatest z among them; at z = 1/1000
# the floor at k_top lies above 1, and so does the tol, 1e2
@example(z=Fraction(1, 1000), pick=0, precision=64, by_terms=False)
@example(z=Fraction(1), pick=10**9, precision=1024, by_terms=True)
@example(z=Fraction(73, 10), pick=7, precision=256, by_terms=False)
@example(z=Fraction(10**5), pick=3, precision=64, by_terms=True)
@example(z=Fraction(22, 7), pick=10**9 - 1, precision=512, by_terms=False)
@example(z=Fraction(2, 3), pick=12, precision=100, by_terms=True)
@example(z=Fraction(1, 2), pick=5, precision=80, by_terms=False)
def test_the_enclosure_contains_the_interval_loggamma(kind, z, pick, precision, by_terms):
    # ``pick`` chooses the terms in [0, k_top], or the digits of the tol
    evaluate, shift = REAL_CASES[kind]
    truth = ln_gamma_reference(iv_context(precision), z + shift)
    k_top = min(30, min_term_index(kind, min(z, 10)))
    if by_terms:
        k = pick % (k_top + 1)
        option, arguments = ["--terms", str(k)], {"terms": k}
    else:
        # a tol of 10^-d at or above the certified bound at k_top <= k*
        floor = evaluate(z, terms=k_top, precision=precision).error_bound
        most = math.floor(-mp.log10(floor))
        tol = f"1e{-(pick % (most + 1) if most >= 0 else most)}"
        option, arguments = ["--tol", tol], {"tol": tol}
    # every spelling is one number: the same working-precision argument, the same result
    results = {repr(x): (series._checked_argument(kind, x, precision)._mpf_,
                         evaluate(x, precision=precision, **arguments)) for x in spellings(z)}
    argument, cv = results[repr(z)]
    for x, (other_argument, other) in results.items():
        assert (other_argument, other.value._mpf_, other.error_bound._mpf_, other.k_used) == (
            argument, cv.value._mpf_, cv.error_bound._mpf_, cv.k_used), x
    if not by_terms:
        assert exact(cv.error_bound._mpf_) <= Fraction(tol)
    lo, hi = cv.interval()
    assert_inside(truth, exact(lo._mpf_), exact(hi._mpf_), (z, precision, option))
    for x in spellings(z)[1:3]:
        code, result = cli_eval(kind, x, precision, option)
        assert code == 0
        assert_inside(truth, Fraction(result["lo"]), Fraction(result["hi"]), (x, precision, option))


@pytest.mark.parametrize("precision", (64, 256))
@pytest.mark.parametrize("w", (Fraction(1, 3), Fraction(1, 1000)), ids=str)
def test_the_loggamma_reference_holds_below_one_half(w, precision):
    a, b = map(exact, ln_gamma_reference(iv_context(precision), w)._mpi_)
    with mp.workprec(4 * precision):
        want = exact(mp.loggamma(mp.mpf(w.numerator) / w.denominator)._mpf_)
    assert a <= want <= b
    assert b - a <= Fraction(1, 2 ** (precision + 40))


@functools.lru_cache(maxsize=None)
def pinned_reference(kind, z: int, precision: int):
    ctx = iv_context(precision)
    if kind in CASES:
        return CASES[kind][1](ctx, z)
    return ln_gamma_reference(ctx, z + REAL_CASES[kind][1])


@pytest.mark.parametrize("terms", range(4))
@pytest.mark.parametrize("precision", (64, 128))
@pytest.mark.parametrize("z", (7, 1000, 10**6))
@pytest.mark.parametrize("kind", [*CASES, *REAL_CASES], ids=lambda kind: kind.value)
def test_a_pinned_grid_contains_its_reference(kind, z, precision, terms):
    """The two properties above at fixed points, for every kind: their
    ``st.data()`` draws take no ``@example``, and the mutation suite runs
    explicit examples only.  The real kinds' reference is the unproven
    ``iv.loggamma``."""
    evaluate = {**CASES, **REAL_CASES}[kind][0]
    lo, hi = evaluate(z, terms=terms, precision=precision).interval()
    assert_inside(pinned_reference(kind, z, precision), exact(lo._mpf_), exact(hi._mpf_),
                  (z, precision, terms))


THREAD_TOLERANCES = {64: "1e-5", 256: "1e-30", 1024: "1e-60"}
THREAD_ARGUMENTS = (Fraction(51, 2), Fraction(103, 3), Fraction(321, 8))


def thread_job(precision: int) -> list:
    """Per argument: ``ln_gamma`` by tolerance (k, value, bound, lo, hi) and
    the Binet enclosures after 0, 4 and 12 terms, as raw bits."""
    rows = []
    for z in THREAD_ARGUMENTS:
        cv = ln_gamma(z, THREAD_TOLERANCES[precision], precision=precision)
        envs = [envelope_interval(SeriesKind.BINET_J, z, k, precision) for k in (0, 4, 12)]
        rows.append((cv.k_used, *[x._mpf_ for x in (cv.value, cv.error_bound, *cv.interval())],
                     *[(env.lo._mpf_, env.hi._mpf_) for env in envs]))
    return rows


def test_four_threads_at_mixed_precisions_match_serial_and_contain_the_reference():
    precisions, rounds = (64, 256, 256, 1024), 3
    serial = {p: thread_job(p) for p in set(precisions)}
    for p, rows in serial.items():
        for z, row in zip(THREAD_ARGUMENTS, rows):
            lo, hi = exact(row[3]), exact(row[4])
            assert_inside(ln_gamma_reference(iv_context(p), z), lo, hi, (z, p))
    series._rounded_coefficient.cache_clear()  # the threads fill the table from cold
    prec = mp.prec
    results = [None] * len(precisions)

    def work(i):
        results[i] = [thread_job(precisions[i]) for _ in range(rounds)]

    threads = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(len(precisions))]
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
    assert results == [[serial[p]] * rounds for p in precisions]
    assert mp.prec == prec
