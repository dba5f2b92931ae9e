"""Seeded inputs for the three workloads.

Every function here is a pure function of the seed: the same seed gives the
same op list, and nothing here imports envasym.  Mixes are stratified (fixed
shares of each op type per block, fixed argument bands per ladder rung) so
that the amount of work in a run barely depends on the seed, which keeps the
run-to-run spread of the timings small.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("certify-warm", "floor-cold", "referee")

SERIES = ("binet", "central-binom", "gamma-half", "demoivre")
INTEGER_SERIES = ("central-binom", "demoivre")

# certify-warm ---------------------------------------------------------------

CERTIFY_PRECISION = 256
#: Distinct ops in the pool; a run cycles through it a whole number of times,
#: so every op is checked and memory held by results stays fixed.
CERTIFY_POOL = 2000
#: Coefficients warmed up during setup, for every family (k = 0 .. WARM_K).
WARM_K = 64
_TOL_EXP_RANGE = (6, 40)
#: Tolerances sit at least this many decades from the estimated floor, so the
#: expected outcome (certified or floor raise) never depends on rounding.
_FLOOR_MARGIN_DECADES = 3
_MAX_TERMS = 12
# One block of 20 ops; two of them ask for a tolerance below the accuracy
# floor (one op in ten), four go through the CLI (one in five).
_CERTIFY_BLOCK = (
    ("eval",) * 10
    + ("floor",) * 2
    + ("terms",) * 2
    + ("envelope",) * 2
    + ("cli_eval",) * 3
    + ("cli_bound",)
)
FORMATS = ("json", "csv", "plain")

# floor-cold -----------------------------------------------------------------

# Each rung: (series, centre of the argument band, integer argument?, bits).
# Decimal rungs are jittered by at most _DECIMAL_JITTER around the centre and
# integer rungs by at most _INTEGER_JITTER.  The cost of a decimal rung grows
# like the square of its argument, so the rungs form clusters of near-equal
# cost: the median op falls inside the z ~ 20 cluster and the 75th percentile
# inside the z ~ 35 cluster, whichever op the seed's order makes pay for
# building the coefficients.
FLOOR_LADDER = (
    # integers: cheap scans, coefficients up to k ~ 150
    ("binet", 48, True, 256),
    ("binet", 27, True, 512),
    ("gamma-half", 40, True, 256),
    ("central-binom", 20, True, 256),
    ("central-binom", 45, True, 512),
    ("demoivre", 38, True, 512),
    # small decimals
    ("binet", 6, False, 256),
    ("gamma-half", 10, False, 256),
    # the median cluster
    ("binet", 20, False, 256),
    ("binet", 20, False, 256),
    ("binet", 20, False, 256),
    ("binet", 20, False, 256),
    ("gamma-half", 20, False, 256),
    ("gamma-half", 20, False, 256),
    ("gamma-half", 20, False, 256),
    ("gamma-half", 20, False, 256),
    # the tail cluster
    ("binet", 35, False, 256),
    ("binet", 35, False, 256),
    ("binet", 35, False, 256),
    ("gamma-half", 35, False, 256),
    ("gamma-half", 35, False, 256),
    ("gamma-half", 35, False, 256),
    # deep scans at 512 bits
    ("binet", 25, False, 512),
    ("gamma-half", 35, False, 512),
)
_DECIMAL_JITTER = 0.3
_INTEGER_JITTER = 2

# referee --------------------------------------------------------------------

DEMO_STEPS = 16
DEMO_K_MAX = 5
#: Demo scans generated per seed, each at its own b and grid.
DEMO_SCANS = 8
QUERY_FUNCTIONS = ("binet_J", "binet_J_tilde", "theta_ratio", "remainder_quadrature")
FAMILIES = ("theta", "theta-tilde", "theta-hat")
#: Queries generated per seed; a run takes a prefix of whole blocks.
QUERY_POOL = 400
#: In each block of ten, nine queries run at 256 bits and one at 512.  Over
#: four blocks every function gets nine 256-bit queries and one 512-bit query.
QUERY_BLOCK = 10
_QUERY_K_MAX = 4


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class _Spread:
    """Stratified draws for one seed.

    ``uniform(key)`` walks a golden-ratio sequence from a seeded start, one
    sequence per key, so every seed puts nearly the same share of a key's
    draws into every band of [0, 1); ``pair(key)`` does the same for points
    of the unit square (the R2 sequence), for two inputs whose joint value
    sets an op's cost; ``cycle(key, options)`` deals the options round-robin
    from a seeded start.  The mix of a run then barely depends on the seed,
    while the values and their order do.
    """

    _STEP = (math.sqrt(5) - 1) / 2
    _PLASTIC = 1.324717957244746  # x**3 = x + 1
    _STEP2 = (1 / _PLASTIC, 1 / _PLASTIC**2)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._state: dict = {}

    def uniform(self, key) -> float:
        u = self._state.get(key)
        u = (self.rng.random() if u is None else u + self._STEP) % 1.0
        self._state[key] = u
        return u

    def pair(self, key) -> tuple[float, float]:
        uv = self._state.get(key)
        if uv is None:
            uv = (self.rng.random(), self.rng.random())
        else:
            uv = tuple((x + step) % 1.0 for x, step in zip(uv, self._STEP2))
        self._state[key] = uv
        return uv

    def cycle(self, key, options):
        n = self._state.get(key)
        n = self.rng.randrange(len(options)) if n is None else n + 1
        self._state[key] = n
        return options[n % len(options)]


def expansion_variable(series: str, z: float) -> float:
    """The variable the series is expanded in (de Moivre uses n + 1/2)."""
    return z + 0.5 if series == "demoivre" else z


def log10_floor_estimate(series: str, z: float) -> float:
    """log10 of the smallest term magnitude, from beta(k) ~ 2 (2k)! / (2 pi)^(2k+2).

    An estimate for choosing inputs only; the checks decide outcomes exactly.
    """
    x = expansion_variable(series, z)
    scale = 2.0 if series == "central-binom" else 1.0
    k_star = max(0, int(math.pi * x))
    best = math.inf
    for k in range(max(0, k_star - 3), k_star + 4):
        log_term = (
            math.log(2 * scale)
            + math.lgamma(2 * k + 1)
            - (2 * k + 2) * math.log(2 * math.pi)
            - (2 * k + 1) * math.log(x)
        )
        best = min(best, log_term)
    return best / math.log(10)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _argument(u: float, series: str, small: bool):
    """A real z in about [0.5, 200] (decimal string) or an integer n up to 1e6,
    at quantile u of its log-uniform range."""
    if series in INTEGER_SERIES:
        return max(1, round(_log_uniform(u, 1, 12 if small else 1e6)))
    return f"{_log_uniform(u, 0.5, 12 if small else 200):.6g}"


def _tolerance(rng: random.Random, v: float, series: str, z, below_floor: bool):
    """A tolerance string well above (or well below) the estimated floor, with
    its exponent at quantile v of the allowed range, or None."""
    floor_exp = -log10_floor_estimate(series, float(z))
    lo, hi = _TOL_EXP_RANGE
    if below_floor:
        lo = max(lo, math.ceil(floor_exp) + _FLOOR_MARGIN_DECADES)
    else:
        hi = min(hi, math.floor(floor_exp) - _FLOOR_MARGIN_DECADES)
    if lo > hi:
        return None
    exponent = lo + int(v * (hi - lo + 1))
    return f"{rng.randint(1, 9)}e-{exponent}"


def _terms(spread: _Spread, key, series: str, z) -> int:
    k_est = max(0, int(math.pi * expansion_variable(series, float(z))) - 1)
    return int(spread.uniform((key, "terms")) * (min(_MAX_TERMS, k_est) + 1))


def _certify_op(spread: _Spread, slot: str) -> dict:
    series = spread.cycle(slot, SERIES)
    key = (slot, series)
    op = {"op": slot, "series": series, "tol": None, "terms": None}
    if slot in ("eval", "floor") or (slot == "cli_eval" and spread.cycle(key, (True, False))):
        # The cost of such an op grows with z and with the depth of tol, so
        # both come from one two-dimensional sequence.
        while True:
            u, v = spread.pair((key, "z", "tol"))
            z = _argument(u, series, small=slot == "floor")
            tol = _tolerance(spread.rng, v, series, z, below_floor=slot == "floor")
            if tol is not None:
                break
        op.update(z=z, tol=tol)
    else:
        z = _argument(spread.uniform((key, "z")), series, small=False)
        op.update(z=z, terms=_terms(spread, key, series, z))
    if slot.startswith("cli"):
        op["format"] = spread.cycle((key, "format"), FORMATS)
    return op


def certify_ops(seed: int, n: int = CERTIFY_POOL) -> list[dict]:
    """The certify-warm pool: n ops, in seeded order, all at 256 bits."""
    rng = _rng("certify-warm", seed)
    spread = _Spread(rng)
    ops: list[dict] = []
    while len(ops) < n:
        block = list(_CERTIFY_BLOCK)
        rng.shuffle(block)
        ops.extend(_certify_op(spread, slot) for slot in block)
    return ops[:n]


def _decimal_near(rng: random.Random, centre: float) -> str:
    # Four decimals, never a multiple of 1/16, so the argument is not dyadic.
    while True:
        text = f"{centre + rng.uniform(-_DECIMAL_JITTER, _DECIMAL_JITTER):.4f}"
        if (float(text) * 16) % 1:
            return text


def floor_ladder(seed: int) -> list[dict]:
    """The floor-cold ladder: one op per rung, jittered and shuffled by the seed."""
    rng = _rng("floor-cold", seed)
    ops = []
    for series, centre, integer, precision in FLOOR_LADDER:
        z = (
            centre + rng.randint(-_INTEGER_JITTER, _INTEGER_JITTER)
            if integer
            else _decimal_near(rng, centre)
        )
        ops.append(
            {
                "op": "floor",
                "series": series,
                "z": z,
                "tol": f"1e-{rng.randint(250, 400)}",
                "precision": precision,
            }
        )
    rng.shuffle(ops)
    return ops


def referee_plan(seed: int) -> dict:
    """Demo scans (b and grid) and the oracle point queries for one referee run."""
    rng = _rng("referee", seed)
    scans = []
    for _ in range(DEMO_SCANS):
        x_from = rng.uniform(3, 6)
        step = rng.uniform(10, 15) / (DEMO_STEPS - 1)
        scans.append({"b": f"{rng.uniform(0.5, 1.5):.4f}",
                      "grid": [f"{x_from + i * step:.6f}" for i in range(DEMO_STEPS)]})
    spread = _Spread(rng)
    queries = []
    n_functions = len(QUERY_FUNCTIONS)
    for block in range(QUERY_POOL // QUERY_BLOCK):
        slots = [(QUERY_FUNCTIONS[(block * (QUERY_BLOCK - 1) + i) % n_functions], 256)
                 for i in range(QUERY_BLOCK - 1)]
        slots.append((QUERY_FUNCTIONS[block % n_functions], 512))
        rng.shuffle(slots)
        for fn, precision in slots:
            key = (fn, precision)
            query = {"fn": fn, "precision": precision,
                     "z": f"{_log_uniform(spread.uniform(key), 0.5, 50):.5g}"}
            if fn in ("theta_ratio", "remainder_quadrature"):
                query["family"] = spread.cycle((key, "family"), FAMILIES)
                query["k"] = spread.cycle((key, "k"), range(_QUERY_K_MAX + 1))
            queries.append(query)
    return {"scans": scans, "k_max": DEMO_K_MAX, "queries": queries}


def inputs(workload: str, seed: int):
    """Everything a run of the workload feeds to the program."""
    if workload == "certify-warm":
        return certify_ops(seed)
    if workload == "floor-cold":
        return floor_ladder(seed)
    if workload == "referee":
        return referee_plan(seed)
    raise ValueError(f"unknown workload {workload!r}")
