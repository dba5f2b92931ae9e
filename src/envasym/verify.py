"""Cross-check suite wiring the series claims to the independent oracles.

Run through ``envasym verify``; each check compares a quantity computed from
exact rational coefficients against the corresponding big-integer or
quadrature oracle and reports pass/fail.  ``deep=True`` widens the grids and
raises the working precision to 512 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import from_int

from . import oracle, series
from .errors import ToleranceUnattainable
from .oracle import QuadratureSpec, ThetaFamily
from .precision import _context, positive_real, to_precision, working_bits
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
    value = full - ctx.make_mpf(kind.row.prefix(zz._mpf_, working_bits(hi_prec)))
    err = (abs(full) + abs(value) + 1) * ctx.mpf(2) ** (6 - hi_prec)
    return to_precision(value._mpf_, precision), to_precision(err._mpf_, precision)


def _check_coefficient_quadrature(deep: bool, spec: QuadratureSpec) -> CheckResult:
    k_max = 6 if deep else 4
    ctx = _context(spec.precision)
    worst = ctx.zero
    # 1e-25, or the quadrature's own floor where P is below 116 bits
    tol = max(ctx.mpf("1e-25"), spec.effective_tol())
    for family in ThetaFamily:
        for k in range(k_max + 1):
            got = oracle.coefficient_quadrature(family, k, spec)
            want = ctx.convert(family.row.coefficient(k))
            worst = max(worst, abs(want - got) / want)
    return CheckResult(
        "coefficient-quadrature",
        worst <= tol,
        f"max relative error {mp.nstr(worst, 4)} over 3 families, k <= {k_max}",
    )


def _check_theta_containment(deep: bool, spec: QuadratureSpec) -> CheckResult:
    ks = [0, 1, 2, 3] if deep else [0, 1, 2]
    zs = [mpf("0.25"), mpf("0.5"), 1, 5, 20, 50] if deep else [mpf("0.5"), 1, 5, 20]
    ctx = _context(spec.precision)
    bad = []
    for family in ThetaFamily:
        for k in ks:
            for z in zs:
                theta, err = map(ctx.convert, oracle.theta_ratio(family, k, z, spec, error=True))
                if not (theta > err and 1 - theta > err):
                    bad.append((family.value, k, z))
    return CheckResult(
        "theta-containment",
        not bad,
        "all ratios strictly inside (0, 1)" if not bad else f"violations: {bad}",
    )


def _check_weight_linear_dependence(deep: bool, spec: QuadratureSpec) -> CheckResult:
    k_max = 4 if deep else 2
    ctx, wp = _context(spec.precision), working_bits(spec.precision)
    rel_cap = ctx.mpf(2) ** (40 - spec.precision)
    worst_pointwise = ctx.zero
    for eta in ["0.1", "0.5", 1, 2]:
        # ThetaFamily iterates THETA, THETA_TILDE, THETA_HAT
        theta, tilde, hat = (ctx.make_mpf(oracle._weight(family, ctx.mpf(eta)._mpf_, wp))
                             for family in ThetaFamily)
        worst_pointwise = max(worst_pointwise, abs(theta + hat - tilde) / tilde)
    ok = worst_pointwise <= rel_cap
    worst_integral = ctx.zero
    for k in range(k_max + 1):
        total = ctx.convert(oracle.coefficient_quadrature(
            ThetaFamily.THETA, k, spec
        )) + oracle.coefficient_quadrature(ThetaFamily.THETA_HAT, k, spec)
        combined, err = map(ctx.convert, oracle.coefficient_quadrature(
            ThetaFamily.THETA_TILDE, k, spec, error=True
        ))
        gap = abs(total - combined)
        worst_integral = max(worst_integral, gap / combined)
        if gap > 2 * max(err, combined * spec.effective_tol()):
            ok = False
    return CheckResult(
        "weight-linear-dependence",
        ok,
        f"pointwise rel gap {mp.nstr(worst_pointwise, 4)}, "
        f"integral rel gap {mp.nstr(worst_integral, 4)}",
    )


def _mismatch_check(name: str, pairs, spec: QuadratureSpec) -> CheckResult:
    """Pass when each (reference, value), made at working precision, agrees to 2^(64-P)."""
    ctx = _context(spec.precision)
    worst = ctx.zero
    for reference, value in pairs:
        reference = ctx.convert(reference)
        worst = max(worst, abs(reference - value) / abs(reference))
    return CheckResult(
        name,
        worst <= ctx.mpf(2) ** (64 - spec.precision),
        f"max relative mismatch {mp.nstr(worst, 4)}",
    )


def _check_remainder_identity(deep: bool, spec: QuadratureSpec) -> CheckResult:
    ks = [0, 1, 2, 3] if deep else [0, 2]
    zs = [mpf("0.5"), 1, 5, 20] if deep else [1, 5]
    ctx, prec = _context(spec.precision), working_bits(spec.precision)
    return _mismatch_check("remainder-identity", (
        (ctx.convert(oracle.theta_ratio(family, k, z, spec))
         * series._signed_term(family.row, k, ctx.convert(z), prec),
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
         - ctx.make_mpf(row.prefix(from_int(n), wp)),
         oracle.binet_J(n, spec))
        for n in ns), spec)


def _grid_truths(deep: bool, precision: int):
    """(kind, z, truth, err) over every kind's grid arguments, as private-context numbers."""
    ctx = _context(precision)
    for kind in SeriesKind:
        for z in _grid_arguments(kind, deep):
            yield (kind, z, *map(ctx.convert, tail_truth(kind, z, precision)))


def _check_bracketing_grid(deep: bool, spec: QuadratureSpec) -> CheckResult:
    k_range = range(11) if deep else range(9)
    ctx = _context(spec.precision)
    checks = 0
    failures = []
    for kind, z, truth, err in _grid_truths(deep, spec.precision):
        for k in k_range:
            env = series.envelope_interval(kind, z, k, spec.precision)
            margin = min(truth - env.lo, ctx.convert(env.hi) - truth)
            checks += 1
            if not (env.contains(truth) and margin >= 10 * err):
                failures.append((kind.value, str(z), k))
    return CheckResult(
        "bracketing-grid",
        not failures,
        f"{checks} containment checks"
        + ("" if not failures else f", failures: {failures[:5]}"),
    )


def _check_sign_alternation(deep: bool, spec: QuadratureSpec) -> CheckResult:
    k_range = range(11) if deep else range(9)
    bad = []
    skipped = 0
    for kind, z, truth, err in _grid_truths(deep, spec.precision):
        for k in k_range:
            remainder = truth - series.partial_sum(kind, z, k, spec.precision)
            if abs(remainder) < 10 * err:
                skipped += 1
                continue
            if mp.sign(remainder) != kind.row.sign(k):
                bad.append((kind.value, str(z), k))
    return CheckResult(
        "sign-alternation",
        not bad,
        f"{skipped} comparisons skipped as below oracle noise"
        + ("" if not bad else f", mismatches: {bad[:5]}"),
    )


def _check_nesting(deep: bool, spec: QuadratureSpec) -> CheckResult:
    k_cap = 10 if deep else 8
    bad = []
    for kind in SeriesKind:
        for z in _grid_arguments(kind, deep):
            k_star = series.min_term_index(kind, z, spec.precision)
            for k in range(min(k_cap, k_star)):
                outer = series.envelope_interval(kind, z, k, spec.precision)
                inner = series.envelope_interval(kind, z, k + 1, spec.precision)
                if not (outer.lo <= inner.lo and inner.hi <= outer.hi):
                    bad.append((kind.value, str(z), k))
    return CheckResult(
        "nesting-below-minimum-term",
        not bad,
        "nested" if not bad else f"violations: {bad[:5]}",
    )


def _check_half_shift_consistency(deep: bool, spec: QuadratureSpec) -> CheckResult:
    # ln Gamma(z + 1/2) - ln Gamma(z) - (ln z)/2 telescopes to the
    # central-binomial correction; the interval difference of the two
    # certified enclosures must contain its value from the exact ln C(2n, n).
    zs = [2, 5, 10, 30] if deep else [2, 5, 10]
    ctx = _context(spec.precision)
    bad = []
    for z in zs:
        half = series.ln_gamma_plus_half(z, "1e-6", precision=spec.precision)
        whole = series.ln_gamma(z, "1e-6", precision=spec.precision)
        truth, _ = tail_truth(SeriesKind.CENTRAL_BINOMIAL, z, spec.precision)
        lo1, hi1 = half.interval()
        lo2, hi2 = whole.interval()
        lo = ctx.convert(lo1) - hi2 - ctx.log(z) / 2
        hi = ctx.convert(hi1) - lo2 - ctx.log(z) / 2
        if not (lo <= truth <= hi):
            bad.append(z)
    return CheckResult(
        "half-shift-consistency",
        not bad,
        "interval differences contain the correction"
        if not bad
        else f"violations at z = {bad}",
    )


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
        samples += [
            (SeriesKind.CENTRAL_BINOMIAL, 30, "1e-40"),
            (SeriesKind.GAMMA_PLUS_HALF, mpf("0.5"), "1e-35"),
        ]
    bad = []
    for kind, z, tol in samples:
        tol_real = positive_real(tol, spec.precision, "tolerance")
        k_star = series.min_term_index(kind, z, spec.precision)
        try:
            k, bound = series.auto_truncate(kind, z, tol, spec.precision)
            if not (bound <= tol_real and k <= k_star):
                bad.append((kind.value, str(z), tol, "bad success"))
        except ToleranceUnattainable as exc:
            floor_ok = exc.best_bound > tol_real and exc.k_best == k_star
            if not floor_ok:
                bad.append((kind.value, str(z), tol, "bad floor"))
    return CheckResult(
        "auto-truncate-policy",
        not bad,
        "bounds honored" if not bad else f"violations: {bad}",
    )


def _check_half_shift_relabeling(deep: bool, spec: QuadratureSpec) -> CheckResult:
    samples = [(1, 0), (7, 3), (20, 4)]
    if deep:
        samples.append((50, 6))
    ctx = _context(spec.precision)
    bad = []
    for n, k in samples:
        a = series.ln_factorial_demoivre(n, terms=k, precision=spec.precision)
        shifted = ctx.convert(n) + 0.5
        b = series.ln_gamma_plus_half(shifted, terms=k, precision=spec.precision)
        if not (a.value == b.value and a.error_bound == b.error_bound):
            bad.append((n, k))
    return CheckResult(
        "half-shift-relabeling",
        not bad,
        "factorial series identical to shifted evaluation"
        if not bad
        else f"mismatches: {bad}",
    )


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
    """The working precision of a run: as given, else 256 bits (512 if deep)."""
    if precision is None:
        return 512 if deep else 256
    return precision


def run_verification(deep: bool = False, precision: int | None = None) -> list[CheckResult]:
    """Run every cross-check; deep mode widens grids and uses 512 bits."""
    spec = QuadratureSpec(precision=_precision(deep, precision))
    return [check(deep, spec) for check in _CHECKS]
