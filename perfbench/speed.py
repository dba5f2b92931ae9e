"""The host's current speed, from a fixed calibration routine.

The benchmark runs on shared virtual machines whose speed drifts by 20-50%,
both from one fraction of a second to the next and over tens of seconds, with
CPU time tracking wall time (no steal shows).  Every timing is therefore
taken between calibration points and divided by the host's speed around it:
``Meter`` scales each sample by ``REFERENCE_S`` over the mean of the
calibration points around it.  Timings then read as they would on a host
where the routine takes ``REFERENCE_S``, and a change of the program moves
them as much as it moves the raw times.

The routine never calls envasym.  It does the kinds of work the workloads
spend their time on, through the same interpreter and libraries: mpmath's
low-level binary arithmetic (``mpmath.libmp``) at 256 bits, Fraction
arithmetic and big-integer division, and steps of an exact-rational
minimum-term scan whose numerators and denominators run to thousands of
digits.  Different work slows by different amounts when the host is busy;
without the scan the routine slowed more than the floor-cold ladder, whose
scaled times then read 10-20% faster on a slow host than on a fast one.
"""

from __future__ import annotations

import bisect
import functools
import gc
import math
import statistics
from fractions import Fraction
from time import perf_counter

from mpmath import libmp

#: Calibration time, in seconds, on the reference machine when nothing slows
#: it down (2-vCPU Xeon VM, Python 3.11, pure-Python mpmath backend).  It only
#: sets the scale of the reported times.
REFERENCE_S = 0.001
#: Runs of the routine per calibration point; the point is their median.
REPEATS = 3
#: Widest reach, in seconds, of the points that scale a sample on each side.
#: The host's speed a few seconds away from a long call says little about its
#: speed during the call: on the reference machine the spread of a cold
#: ``run_verification()`` (about 9 s) was 0.05 scaled by the points within
#: 0.5 s on each side, 0.09 raw, and 0.10 scaled by the 8 s after it.
MAX_REACH_S = 0.5
_PREC = 256
#: The scan's argument: a 256-bit dyadic rational near 23, as a decimal
#: argument reaches the exact-rational scans.
_Z = Fraction(0xB7E151628AED2A6ABF7158809CF4F3C762E7160F38B4DA56A784D9045190CFEF, 2**251)
#: The routine's scan steps, k = _SCAN_FROM .. _SCAN_FROM + _SCAN_STEPS - 1.
_SCAN_FROM, _SCAN_STEPS = 30, 2


@functools.cache
def _scan_start() -> tuple[list[Fraction], Fraction]:
    """Bernoulli numbers B_2, B_4, ... by the textbook recurrence (not
    mpmath's, whose caches the workloads use), and the scan's term at
    ``_SCAN_FROM``, B_(2k+2) / z^(2k+1) for k = ``_SCAN_FROM``."""
    b = [Fraction(1)]
    for m in range(1, 2 * (_SCAN_FROM + _SCAN_STEPS) + 3):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    even = b[2::2]
    z2 = _Z * _Z
    bound = even[0] / _Z
    for k in range(_SCAN_FROM):
        bound = bound * even[k + 1] / (even[k] * z2)
    return even, bound


def routine() -> None:
    """A fixed piece of work, about 1 ms on the reference machine."""
    x = libmp.from_rational(355, 113, _PREC, "n")
    acc = libmp.fzero
    for k in range(1, 25):
        y = libmp.mpf_add(x, libmp.from_int(k), _PREC, "n")
        acc = libmp.mpf_add(acc, libmp.mpf_log(y, _PREC, "n"), _PREC, "n")
        inverse = libmp.mpf_div(libmp.fone, libmp.mpf_mul(y, y, _PREC, "n"), _PREC, "n")
        acc = libmp.mpf_add(acc, inverse, _PREC, "n")
    libmp.to_str(acc, 60)
    q = Fraction(1)
    for k in range(1, 60):
        q += Fraction((-1) ** k * (2 * k + 1), 3 ** k + k)
    libmp.from_rational(q.numerator, q.denominator, _PREC, "n")
    even, bound = _scan_start()
    z2 = _Z * _Z
    for k in range(_SCAN_FROM, _SCAN_FROM + _SCAN_STEPS):
        nxt = bound * even[k + 1] / (even[k] * z2)
        if abs(nxt) >= abs(bound):
            break
        bound = nxt


def calibrate() -> float:
    """Seconds the routine takes now (median of ``REPEATS``), with the
    collector off so that the program's heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            routine()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Meter:
    """Collects timings and scales each by the host's speed around it.

    ``record(item, start, end)`` holds a sample for ``item`` (a list).  Once
    the held samples add up to ``every_s`` the host is calibrated again.
    ``finish()`` calibrates once more and appends each held sample to its
    item, scaled by ``REFERENCE_S`` over the mean of the calibration points
    from the last one before ``start - r`` to the first one after ``end + r``,
    where ``r`` is the sample's length, at most ``MAX_REACH_S``: the two
    points that bracket a short sample, and the points within ``MAX_REACH_S``
    on each side of a long one.  Call ``lead_in()`` before a long call, so
    that there are points before it.
    """

    def __init__(self, every_s: float):
        calibrate()  # mpmath builds its constant caches on first use
        self.every_s = every_s
        self.times: list[float] = []
        self.points: list[float] = []
        self.held: list = []
        self.held_s = 0.0
        self.point()

    def point(self) -> None:
        start = perf_counter()
        self.points.append(calibrate())
        self.times.append((start + perf_counter()) / 2)

    def lead_in(self) -> None:
        """Calibrate for ``MAX_REACH_S`` seconds."""
        until = perf_counter() + MAX_REACH_S
        while perf_counter() < until:
            self.point()

    def record(self, item: list, start: float, end: float) -> None:
        self.held.append((item, start, end))
        self.held_s += end - start
        if self.held_s >= self.every_s:
            self.point()
            self.held_s = 0.0

    def finish(self) -> None:
        self.point()
        for item, start, end in self.held:
            reach = min(end - start, MAX_REACH_S)
            lo = max(0, bisect.bisect_right(self.times, start - reach) - 1)
            hi = bisect.bisect_left(self.times, end + reach) + 1
            scale = REFERENCE_S / statistics.fmean(self.points[lo:hi])
            item.append((end - start) * scale)
        self.held = []

    def host_factor(self) -> float:
        """Median calibration time over ``REFERENCE_S``: above 1, a slow host."""
        return statistics.median(self.points) / REFERENCE_S
