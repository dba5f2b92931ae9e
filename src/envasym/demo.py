"""Exhibit that enveloping is a property of the function, not of the series.

Adding exp(-b*x) with 0 < b < 2*pi to Binet's function J(x) leaves the
asymptotic series unchanged (every term of the perturbation is beyond all
orders) yet destroys the enveloping error bound: for suitable x and k the
remainder of the perturbed function exceeds the first omitted term in
magnitude, or disagrees with it in sign.

The existence argument is asymptotic, so a finite scan over a grid may
honestly come up empty; a returned ``None`` is a report, not a failure.
Every reported witness clears the violation threshold by at least ten times
the quadrature error estimate, so witnesses are evidence, not noise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from mpmath import mpf
from mpmath.libmp import from_man_exp

from .coeffs import beta
from .errors import DomainError
from .oracle import QuadratureSpec, binet_J
from .precision import _context, _pair, checked_index, positive_real, to_precision, working_bits
from .series import SeriesKind, _checked_argument, _walk

__all__ = [
    "ViolationMode",
    "ViolationWitness",
    "perturbed_binet",
    "find_envelope_violation",
    "enveloping_control_scan",
    "revalidate_witness",
]

_ERROR_MARGIN_FACTOR = 10


class ViolationMode(enum.Enum):
    MAGNITUDE_EXCEEDED = "magnitude_exceeded"
    SIGN_MISMATCH = "sign_mismatch"


@dataclass(frozen=True)
class ViolationWitness:
    """One concrete (x, k) where the perturbed remainder breaks the bound."""

    x: mpf
    k: int
    remainder: mpf
    next_term_bound: mpf
    mode: ViolationMode


def _checked_rate(b, precision: int) -> mpf:
    try:
        bb = positive_real(b, precision, "decay rate")
        if bb < 2 * _context(precision).pi:
            return bb
    except DomainError:
        pass
    raise DomainError(f"decay rate must lie strictly inside (0, 2*pi), got {b!r}")


def perturbed_binet(x, b, spec: QuadratureSpec = QuadratureSpec()) -> mpf:
    """J(x) + exp(-b*x) for x > 0 and b strictly inside (0, 2*pi)."""
    bb = _checked_rate(b, spec.precision)
    xx = _checked_argument(SeriesKind.BINET_J, x, spec.precision)
    ctx = _context(spec.precision)
    value = ctx.convert(binet_J(xx, spec)) + ctx.exp(-ctx.convert(bb) * xx)
    return to_precision(value._mpf_, spec.precision)


def _violations_at(
    xx: mpf, ks: range, spec: QuadratureSpec, b: Optional[mpf]
) -> list[ViolationWitness]:
    """Witnesses among the truncation indices ``ks`` at one argument, from one
    walk of the series."""
    walk = _walk(SeriesKind.BINET_J.row, _pair(xx._mpf_), working_bits(spec.precision), ks.start)
    ctx = _context(spec.precision)
    j_val, j_err = binet_J(xx, spec, error=True)
    f_val = ctx.convert(j_val)
    if b is not None:
        f_val += ctx.exp(-ctx.convert(b) * xx)
    noise_floor = _ERROR_MARGIN_FACTOR * ctx.convert(j_err)
    found = []
    for k, (s_k, t_k) in zip(ks, walk):
        remainder = f_val - ctx.make_mpf(from_man_exp(*s_k))
        t_k = ctx.make_mpf(from_man_exp(*t_k))
        bound = abs(t_k)
        if abs(remainder) - bound > noise_floor:
            mode = ViolationMode.MAGNITUDE_EXCEEDED
        elif abs(remainder) > noise_floor and ctx.sign(remainder) != ctx.sign(t_k):
            mode = ViolationMode.SIGN_MISMATCH
        else:
            continue
        found.append(ViolationWitness(
            x=to_precision(xx._mpf_, spec.precision),
            k=k,
            remainder=to_precision(remainder._mpf_, spec.precision),
            next_term_bound=to_precision(bound._mpf_, spec.precision),
            mode=mode,
        ))
    return found


def _scan(
    x_grid: Iterable, k_max: int, spec: QuadratureSpec, b: Optional[mpf]
) -> Iterator[ViolationWitness]:
    """Witnesses in grid order, k = 0..k_max at each argument; J itself if b is None.
    Every argument is checked before the first quadrature, wherever a bad one sits."""
    k_max = checked_index(k_max, "k_max", 1)
    grid = [_checked_argument(SeriesKind.BINET_J, x, spec.precision) for x in x_grid]
    if not grid:
        raise ValueError("x_grid must be nonempty")
    beta(k_max)  # the Bernoulli table grows to c(k_max) once, not in steps as the walks climb
    for xx in grid:
        yield from _violations_at(xx, range(k_max + 1), spec, b)


def find_envelope_violation(
    b, x_grid: Iterable, k_max: int, spec: QuadratureSpec = QuadratureSpec()
) -> Optional[ViolationWitness]:
    """First (x, k) on the grid where the perturbed series breaks enveloping.

    Scans arguments in the given order and truncation index 0..k_max within
    each.  Returns ``None`` when no pair on this grid violates the bound by
    more than ten times the quadrature error estimate.  k_max above
    ``INDEX_CAP`` raises :class:`DomainError` before any coefficient is
    built or any quadrature runs.
    """
    bb = _checked_rate(b, spec.precision)
    return next(_scan(x_grid, k_max, spec, bb), None)


def enveloping_control_scan(
    x_grid: Iterable, k_max: int, spec: QuadratureSpec = QuadratureSpec()
) -> list[ViolationWitness]:
    """The same scan against the unperturbed J(x); must come back empty."""
    return list(_scan(x_grid, k_max, spec, None))


def revalidate_witness(
    witness: ViolationWitness, b, spec: QuadratureSpec = QuadratureSpec()
) -> bool:
    """Recheck a witness's exact (x, k) at doubled precision.

    True if the same violation mode still holds with the margin intact.
    """
    doubled = QuadratureSpec(precision=2 * spec.precision)
    bb = _checked_rate(b, doubled.precision)
    xx = _checked_argument(SeriesKind.BINET_J, witness.x, doubled.precision)
    found = _violations_at(xx, range(witness.k, witness.k + 1), doubled, bb)
    return bool(found) and found[0].mode == witness.mode
