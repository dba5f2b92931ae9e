"""Cross-check suite wiring the series claims to the independent oracles.

Run through ``envasym verify``; each check compares a quantity computed from
exact rational coefficients against the corresponding big-integer or
quadrature oracle and reports pass/fail.  ``deep=True`` widens the grids and
raises the working precision to 512 bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp

from . import oracle, series
from .errors import ToleranceUnattainable
from .oracle import QuadratureSpec, ThetaFamily
from .precision import (
    DEFAULT_PRECISION,
    _context,
    _nstr,
    _pair,
    exact,
    real_to_fraction,
    to_precision,
    working_bits,
)
from .series import SeriesKind

__all__ = ["CheckResult", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _grid_arguments(kind: SeriesKind, deep: bool) -> list:
    zs = [mpf("0.5"), 1, 2, 5, 10, 30]
    if deep:
        zs.append(50)
    if kind.row.integer_argument:
        zs = [z for z in zs if isinstance(z, int)]
    return zs


def tail_truth(kind: SeriesKind, z, precision: int):
    """Independent (value, error_estimate) for the series-tail function at z.

    The full function is exact at P + 64 bits: ln C(2n, n) for central-binom,
    else ln Gamma(w), w = x for Binet or x + 1/2 (x is de Moivre's n + 1/2),
    from (w - 1)! or, for half-integer w, the duplication formula.
    """
    hi_prec = precision + 64
    ctx = _context(hi_prec)
    zz = series._checked_argument(kind, z, hi_prec)
    w = ctx.convert(zz) if kind is SeriesKind.BINET_J else ctx.convert(zz) + 0.5
    if kind is SeriesKind.CENTRAL_BINOMIAL:
        full = oracle.exact_ln_central_binomial(int(z), hi_prec)
    elif ctx.isint(w):
        full = oracle.exact_ln_factorial(int(w) - 1, hi_prec)
    elif ctx.isint(2 * w):
        full = oracle.exact_ln_gamma_half(int(w), hi_prec)  # int() takes n + 1/2 to n
    else:
        raise ValueError(f"no exact oracle for {kind} at z = {z}")
    full = ctx.convert(full)
    prefix = kind.row.prefix(_pair(zz._mpf_), working_bits(hi_prec))
    value = full - ctx.make_mpf(from_man_exp(*prefix))
    err = (abs(full) + abs(value) + 1) * ctx.mpf(2) ** (6 - hi_prec)
    return to_precision(value._mpf_, precision), to_precision(err._mpf_, precision)


#: Relative mismatch a pair may show, in units of ``spec.effective_tol()``.
_MISMATCH_FACTOR = 8


def _mismatch_check(name: str, pairs, spec: QuadratureSpec) -> CheckResult:
    """Pass when each (reference, value) pair agrees to ``_MISMATCH_FACTOR``
    (8) times ``spec.effective_tol()`` = 2^(32-P), relative.  This is the one
    gate of the five agreement checks: coefficient-quadrature,
    weight-linear-dependence, remainder-identity, jtilde-decomposition and
    binet-vs-exact-gamma.

    A side is an exact value or a weight rounded at working precision, or
    sums and products of up to three quadratures, each asked for
    ``effective_tol`` relative, so a pair's errors add to a few times it.
    The worst mismatch measured at every even P from 64 to 140 bits and at
    256 and 512, default and deep, is 2^-31.3 times it (remainder-identity
    at 94 bits)."""
    ctx = _context(spec.precision)
    allowed = _MISMATCH_FACTOR * ctx.convert(spec.effective_tol())
    worst = ctx.zero
    for reference, value in pairs:
        reference = ctx.convert(reference)
        worst = max(worst, abs(reference - value) / abs(reference))
    return CheckResult(
        name,
        worst <= allowed,
        f"max relative mismatch {_nstr(worst, 4)} (allowed {_nstr(allowed, 3)})",
    )


def _case_check(name: str, failures: list, passing: str) -> CheckResult:
    """Pass when ``failures`` is empty, with detail ``passing``; else append
    how many cases failed and the first five.  This is the one gate of the
    seven case checks: theta-containment, bracketing-grid, sign-alternation,
    nesting-below-minimum-term, half-shift-consistency, auto-truncate-policy
    and half-shift-relabeling."""
    if not failures:
        return CheckResult(name, True, passing)
    return CheckResult(name, False, f"{passing}; {len(failures)} failures, first: {failures[:5]}")


def _check_coefficient_quadrature(deep: bool, spec: QuadratureSpec) -> CheckResult:
    k_max = 6 if deep else 4
    return _mismatch_check("coefficient-quadrature", (
        (family.row.coefficient(k), oracle.coefficient_quadrature(family, k, spec))
        for family in ThetaFamily for k in range(k_max + 1)), spec)


def _check_theta_containment(deep: bool, spec: QuadratureSpec) -> CheckResult:
    ks = [0, 1, 2, 3] if deep else [0, 1, 2]
    zs = [mpf("0.25"), mpf("0.5"), 1, 5, 20, 50] if deep else [mpf("0.5"), 1, 5, 20]
    ctx = _context(spec.precision)

    def inside(family, k, z):
        theta, err = map(ctx.convert, oracle.theta_ratio(family, k, z, spec, error=True))
        return theta > err and 1 - theta > err

    return _case_check("theta-containment", [
        (family.value, k, str(z)) for family in ThetaFamily for k in ks for z in zs
        if not inside(family, k, z)], "all ratios strictly inside (0, 1)")


def _check_weight_linear_dependence(deep: bool, spec: QuadratureSpec) -> CheckResult:
    # theta-tilde = theta + theta-hat, pointwise and so for every moment integral;
    # ThetaFamily iterates THETA, THETA_TILDE, THETA_HAT
    k_max = 4 if deep else 2
    ctx, wp = _context(spec.precision), working_bits(spec.precision)
    weights = (map(ctx.make_mpf, oracle._weights(tuple(ThetaFamily), x._mpf_, ctx.ln(x)._mpf_, wp))
               for x in map(ctx.mpf, ["0.1", "0.5", 1, 2]))
    integrals = ([ctx.convert(oracle.coefficient_quadrature(family, k, spec))
                  for family in ThetaFamily] for k in range(k_max + 1))
    return _mismatch_check("weight-linear-dependence", (
        (tilde, theta + hat) for theta, tilde, hat in itertools.chain(weights, integrals)), spec)


def _check_remainder_identity(deep: bool, spec: QuadratureSpec) -> CheckResult:
    ks = [0, 1, 2, 3] if deep else [0, 2]
    zs = [mpf("0.5"), 1, 5, 20] if deep else [1, 5]
    ctx, prec = _context(spec.precision), working_bits(spec.precision)
    return _mismatch_check("remainder-identity", (
        (ctx.convert(oracle.theta_ratio(family, k, z, spec))
         * ctx.make_mpf(from_man_exp(
             *series._walk_to(family.row, _pair(ctx.convert(z)._mpf_), prec, k)[1])),
         oracle.remainder_quadrature(family, k, z, spec))
        for family in ThetaFamily for k in ks for z in zs), spec)


def _check_jtilde_decomposition(deep: bool, spec: QuadratureSpec) -> CheckResult:
    zs = [1, 2, 5, 10] if deep else [1, 2, 5]
    ctx = _context(spec.precision)
    return _mismatch_check("jtilde-decomposition", (
        (oracle.binet_J_tilde(z, spec),
         ctx.convert(oracle.binet_J(2 * z, spec)) - 2 * ctx.convert(oracle.binet_J(z, spec)))
        for z in zs), spec)


def _check_binet_cross_check(deep: bool, spec: QuadratureSpec) -> CheckResult:
    ns = [1, 2, 5, 10] if deep else [1, 5]
    row, wp = SeriesKind.BINET_J.row, working_bits(spec.precision)
    ctx = _context(spec.precision)
    return _mismatch_check("binet-vs-exact-gamma", (
        (ctx.convert(oracle.exact_ln_factorial(n - 1, spec.precision + 64))
         - ctx.make_mpf(from_man_exp(*row.prefix(_pair(from_int(n)), wp))),
         oracle.binet_J(n, spec))
        for n in ns), spec)


def _grid_cases(deep: bool, precision: int):
    """(kind, z, k, truth, err) over every kind's grid arguments and k < 9
    (k < 11 if deep); truth and err are private-context numbers."""
    ctx = _context(precision)
    for kind in SeriesKind:
        for z in _grid_arguments(kind, deep):
            truth, err = map(ctx.convert, tail_truth(kind, z, precision))
            for k in range(11 if deep else 9):
                yield kind, z, k, truth, err


def _check_bracketing_grid(deep: bool, spec: QuadratureSpec) -> CheckResult:
    ctx = _context(spec.precision)
    cases = list(_grid_cases(deep, spec.precision))

    def bracketed(kind, z, k, truth, err):
        env = series.envelope_interval(kind, z, k, spec.precision)
        return env.contains(truth) and min(truth - env.lo, ctx.convert(env.hi) - truth) >= 10 * err

    return _case_check("bracketing-grid", [
        (kind.value, str(z), k) for kind, z, k, truth, err in cases
        if not bracketed(kind, z, k, truth, err)], f"{len(cases)} containment checks")


def _check_sign_alternation(deep: bool, spec: QuadratureSpec) -> CheckResult:
    cases = [(kind, z, k, truth - series.partial_sum(kind, z, k, spec.precision), err)
             for kind, z, k, truth, err in _grid_cases(deep, spec.precision)]
    # a remainder within 10 err of zero has no sign the truth can decide
    decided = [(kind, z, k, r) for kind, z, k, r, err in cases if abs(r) >= 10 * err]
    return _case_check("sign-alternation", [
        (kind.value, str(z), k) for kind, z, k, r in decided if mp.sign(r) != kind.row.sign(k)],
        f"{len(cases) - len(decided)} comparisons skipped as below oracle noise")


def _check_nesting(deep: bool, spec: QuadratureSpec) -> CheckResult:
    k_cap = 10 if deep else 8
    failures = []
    for kind in SeriesKind:
        for z in _grid_arguments(kind, deep):
            k_star = series.min_term_index(kind, z, spec.precision)
            envs = [series.envelope_interval(kind, z, k, spec.precision)
                    for k in range(min(k_cap, k_star) + 1)]
            failures += [(kind.value, str(z), k)
                         for k, (outer, inner) in enumerate(zip(envs, envs[1:]))
                         if not (outer.lo <= inner.lo and inner.hi <= outer.hi)]
    return _case_check("nesting-below-minimum-term", failures, "nested")


def _check_half_shift_consistency(deep: bool, spec: QuadratureSpec) -> CheckResult:
    # ln Gamma(z + 1/2) - ln Gamma(z) - (ln z)/2 telescopes to the
    # central-binomial correction; the interval difference of the two
    # certified enclosures must contain its value from the exact ln C(2n, n).
    zs = [2, 5, 10, 30] if deep else [2, 5, 10]
    ctx = _context(spec.precision)

    def contained(z):
        lo1, hi1 = series.ln_gamma_plus_half(z, "1e-6", precision=spec.precision).interval()
        lo2, hi2 = series.ln_gamma(z, "1e-6", precision=spec.precision).interval()
        truth, _ = tail_truth(SeriesKind.CENTRAL_BINOMIAL, z, spec.precision)
        return (ctx.convert(lo1) - hi2 - ctx.log(z) / 2 <= truth
                <= ctx.convert(hi1) - lo2 - ctx.log(z) / 2)

    return _case_check("half-shift-consistency", [z for z in zs if not contained(z)],
                       "interval differences contain the correction")


def _check_auto_truncate_policy(deep: bool, spec: QuadratureSpec) -> CheckResult:
    samples = [
        (SeriesKind.BINET_J, mpf("0.5"), "1e-4"),
        (SeriesKind.BINET_J, 5, "1e-10"),
        (SeriesKind.BINET_J, 1, "1e-30"),
        (SeriesKind.CENTRAL_BINOMIAL, 10, "1e-6"),
        (SeriesKind.GAMMA_PLUS_HALF, 1, "1e-12"),
        (SeriesKind.DE_MOIVRE, 3, "1e-8"),
    ]
    if deep:
        samples += [(SeriesKind.CENTRAL_BINOMIAL, 30, "1e-40"),
                    (SeriesKind.GAMMA_PLUS_HALF, mpf("0.5"), "1e-35")]

    def fault(kind, z, tol):
        tol_exact = exact(tol, spec.precision, "tolerance")
        k_star = series.min_term_index(kind, z, spec.precision)
        try:
            k, bound = series.auto_truncate(kind, z, tol, spec.precision)
        except ToleranceUnattainable as exc:
            held = real_to_fraction(exc.best_bound) > tol_exact and exc.k_best == k_star
            return None if held else "bad floor"
        return None if real_to_fraction(bound) <= tol_exact and k <= k_star else "bad success"

    return _case_check("auto-truncate-policy", [
        (kind.value, str(z), tol, label) for kind, z, tol in samples
        if (label := fault(kind, z, tol))], "bounds honored")


def _check_half_shift_relabeling(deep: bool, spec: QuadratureSpec) -> CheckResult:
    samples = [(1, 0), (7, 3), (20, 4), (50, 6)] if deep else [(1, 0), (7, 3), (20, 4)]
    ctx = _context(spec.precision)

    def identical(n, k):
        a = series.ln_factorial_demoivre(n, terms=k, precision=spec.precision)
        b = series.ln_gamma_plus_half(ctx.convert(n) + 0.5, terms=k, precision=spec.precision)
        return a.value == b.value and a.error_bound == b.error_bound

    return _case_check("half-shift-relabeling", [(n, k) for n, k in samples if not identical(n, k)],
                       "factorial series identical to shifted evaluation")


_CHECKS = [
    _check_coefficient_quadrature,
    _check_theta_containment,
    _check_weight_linear_dependence,
    _check_remainder_identity,
    _check_jtilde_decomposition,
    _check_binet_cross_check,
    _check_bracketing_grid,
    _check_sign_alternation,
    _check_nesting,
    _check_half_shift_consistency,
    _check_auto_truncate_policy,
    _check_half_shift_relabeling,
]


def _precision(deep: bool, precision: int | None) -> int:
    """The working precision of a run: as given, else the default (512 bits if
    deep)."""
    if precision is None:
        return 512 if deep else DEFAULT_PRECISION
    return precision


def run_verification(deep: bool = False, precision: int | None = None) -> list[CheckResult]:
    """Run every cross-check; deep mode widens grids and uses 512 bits."""
    spec = QuadratureSpec(precision=_precision(deep, precision))
    return [check(deep, spec) for check in _CHECKS]
