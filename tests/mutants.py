"""Committed mutants of ``src/``, each with the tests that should kill it.

A mutant is one exact-text patch of one file under ``src/envasym``: the old
text, which must occur there exactly once, and the text that replaces it.
For each mutant the script copies ``src/`` to a temporary directory, applies
the patch there, and runs the mutant's test selection with ``PYTHONPATH`` at
the copy (pytest's own ``pythonpath`` setting is blanked, so the copy is what
the tests import) and Hypothesis's ``mutants`` profile, which runs each
property on its explicit ``@example``s only and saves nothing.  No kill
depends on a draw, so every run gives each mutant the same verdict and the
same first failing test; a mutant that only generated examples would kill
survives, and needs an explicit killer.  It prints one JSON record per
mutant: killed or not, the first failing test, and the seconds taken.  Run

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --runs 10  # the suite ten times over

from the root of the repository.  It exits 1 if a mutant survives or a
selection cannot run, and with ``--runs N`` also if a mutant's verdict or
first failing test differs between runs; a last line then sums the runs up.
``tests/test_mutants.py`` checks, without running any mutant, that each old
text still occurs exactly once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/envasym
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = (
    Mutant(
        "stored-row-of-one-family",
        "oracle.py",
        "families = tuple(ThetaFamily) if store else (family,)",
        "families = (family,) * 3 if store else (family,)",
        ("tests/test_oracle.py::TestCoefficientQuadrature",
         "tests/test_oracle.py::TestMoments::test_a_cold_coefficient_check_makes_each_row_once_and_whole"),
    ),
    Mutant(
        "moment-integral-does-not-store",
        "oracle.py",
        "return _de_quad_half_line(family, k, None, spec, True)",
        "return _de_quad_half_line(family, k, None, spec, False)",
        ("tests/test_oracle.py::TestMoments",
         "tests/test_oracle.py::TestNodeTable::test_theta_ratio_at_a_fresh_precision_makes_each_eta_once"),
    ),
    Mutant(
        "first-damped-quadrature-stores",
        "oracle.py",
        "return next(self._damped[family]) > 0",
        "return next(self._damped[family]) >= 0",
        ("tests/test_oracle.py::TestNodeTable",),
    ),
    Mutant(
        "damped-store-ignores-rows",
        "oracle.py",
        " or bool(self.middle)",
        "",
        ("tests/test_oracle.py::TestNodeTable::test_no_node_is_computed_twice_at_a_precision",),
    ),
    Mutant(
        "unstored-quadrature-writes-rows",
        "oracle.py",
        """                if store:
                    rows[i:i + 1] = [row]""",
        """                rows[i:i + 1] = [row]""",
        ("tests/test_oracle.py::TestNodeTable::test_one_off_queries_of_each_family_store_nothing",
         "tests/test_oracle.py::TestNodeTable::test_a_first_damped_quadrature_stores_nothing_and_a_second_whole_rows"),
    ),
    Mutant(
        "cold-phase-one-past-the-prefix",
        "oracle.py",
        "cold(warm, n) if warm < n else ()",
        "cold(warm + 1, n) if warm < n else ()",
        ("tests/test_oracle.py::TestNodeTable::test_warm_table_matches_cold_bit_for_bit",
         "tests/test_oracle.py::TestThreads"),
    ),
    Mutant(
        "theta-ratio-damped-first",
        "oracle.py",
        """    den, den_err = map(ctx.convert, _integral(family, k, None, spec))
    num, num_err = map(ctx.convert, _integral(family, k, zz, spec))""",
        """    num, num_err = map(ctx.convert, _integral(family, k, zz, spec))
    den, den_err = map(ctx.convert, _integral(family, k, None, spec))""",
        ("tests/test_oracle.py::TestNodeTable::test_theta_ratio_at_a_fresh_precision_makes_each_eta_once",),
    ),
    Mutant(
        "node-far-gap-at-wp-plus-2",
        "oracle.py",
        "far = wp + _SUM_GUARD + 8",
        "far = wp + 2",
        ("tests/test_walk_rounding.py::test_a_node_term_is_the_floor_of_its_exact_value",
         "tests/test_oracle.py::TestLibmpLoop"),
    ),
    Mutant(
        "fixed-point-guard-dropped",
        "oracle.py",
        "_SUM_GUARD = 38",
        "_SUM_GUARD = 0",
        ("tests/test_oracle.py::TestFixedPointSums",),
    ),
    Mutant(
        "level-difference-undoubled",
        "oracle.py",
        "diff = abs(total - 2 * previous)",
        "diff = abs(total - previous)",
        # every full quadrature then runs until its node budget is spent: the
        # killer sets a small budget and checks the reported difference
        ("tests/test_oracle.py::TestQuadratureSpec::test_a_budget_spent_during_level_3_reports_level_2",),
    ),
    Mutant(
        "sum-shortcut-at-wp",
        "precision.py",
        "if abs(gap) > wp + 2:",
        "if abs(gap) > wp:",
        ("tests/test_walk_rounding.py::test_sum_around_the_shortcut_threshold",
         "tests/test_walk_rounding.py::test_sum_is_libmps"),
    ),
    Mutant(
        "round-ties-away",
        "precision.py",
        "if h & 1 and (h & 2 or m & ((1 << (n - 1)) - 1)):",
        "if h & 1:",
        ("tests/test_walk_rounding.py::test_round_is_libmps_in_every_mode",),
    ),
    Mutant(
        "quotient-without-sticky-bit",
        "precision.py",
        "return _round(2 * q + (r != 0), ae - be - shift - 1, bits, rounding)",
        "return _round(2 * q, ae - be - shift - 1, bits, rounding)",
        ("tests/test_walk_rounding.py::test_quotient_is_libmps_in_every_mode",
         "tests/test_walk_rounding.py::test_product_and_quotient_are_libmps"),
    ),
    Mutant(
        "floor-toward-zero",
        "precision.py",
        """    if rounding == round_floor:
        return m >> n, e + n""",
        """    if rounding == round_floor:
        return (m >> n if m >= 0 else -(-m >> n)), e + n""",
        ("tests/test_walk_rounding.py::test_round_is_libmps_in_every_mode",),
    ),
    Mutant(
        "level-factor-dropped",
        "oracle.py",
        "mpf_add(fone, e, wp, round_nearest), s",
        "fone, s",
        ("tests/test_oracle.py::TestCoefficientQuadrature",
         "tests/test_oracle.py::TestLevelRecurrence"),
    ),
    Mutant(
        "stream-seeded-at-its-start",
        "oracle.py",
        """    for n in itertools.count(start - start % _RESEED):
        t = t0 + n * dt
        if n % _RESEED:""",
        """    for n in itertools.count(start):
        t = t0 + n * dt
        if n % _RESEED and n > start:""",
        ("tests/test_oracle.py::TestLevelRecurrence::test_a_node_does_not_depend_on_what_ran_before",
         "tests/test_oracle.py::TestLevelRecurrence"),
    ),
    Mutant(
        "warm-read-wrong-column",
        "oracle.py",
        "(em, ee), (wm, we) = row[0], row[column]",
        "(em, ee), (wm, we) = row[0], row[column % 3 + 1]",
        ("tests/test_oracle.py::TestCoefficientQuadrature",
         "tests/test_oracle.py::TestLibmpLoop"),
    ),
    Mutant(
        "tail-run-of-one",
        "oracle.py",
        "_TAIL_RUN = 2",
        "_TAIL_RUN = 1",
        ("tests/test_oracle.py::TestZeroTerms",
         "tests/test_oracle.py::TestLibmpLoop::test_matches_the_ambient_loop_bit_for_bit"),
    ),
    Mutant(
        "tail-test-before-the-last-peak",
        "oracle.py",
        "if q <= total >> wp and i > after:",
        "if q <= total >> wp:",
        ("tests/test_oracle.py::TestLargeMoments",),
    ),
    Mutant(
        "turns-strict",
        "series.py",
        ">= c0.numerator * c1.denominator * xf.numerator**2)",
        "> c0.numerator * c1.denominator * xf.numerator**2)",
        ("tests/test_series.py::TestMinTermIndex::test_a_tie_turns_at_the_earlier_index",
         "tests/test_series.py::TestMinTermIndex", "tests/test_series.py::TestSearchesMatchTheScan"),
    ),
    Mutant(
        "interval-ends-swapped",
        "series.py",
        "return (self.value, other) if self.error_sign > 0 else (other, self.value)",
        "return (other, self.value) if self.error_sign > 0 else (self.value, other)",
        ("tests/test_containment.py",),
    ),
    Mutant(
        "tolerance-rounded-up",
        "series.py",
        "return _quotient((tol.numerator, 0), (tol.denominator, 0), precision, round_floor)",
        "return _quotient((tol.numerator, 0), (tol.denominator, 0), precision, round_ceiling)",
        ("tests/test_series.py::TestTolerance", "tests/test_series.py::TestAutoTruncate"),
    ),
    Mutant(
        "pair-comparison-strict",
        "precision.py",
        "return am << (ae - be) <= bm if ae >= be else am <= bm << (be - ae)",
        "return am << (ae - be) < bm if ae >= be else am < bm << (be - ae)",
        ("tests/test_series.py::TestSearchesMatchTheScan::test_ties_at_the_tolerance",
         "tests/test_series.py::TestSearchesMatchTheScan"
         "::test_both_searches_match_the_scan_at_and_beside_a_bound",
         "tests/test_walk_rounding.py::test_at_most_is_the_exact_comparison"),
    ),
    Mutant(
        "turn-guess-uncorrected",
        "series.py",
        """    if k <= INDEX_CAP and not turns(k) and not meets(k):
        k += 1
    elif k and turns(k - 1):
        k -= 1
""",
        "",
        # the exact search still finds every answer: only the walk grows
        ("tests/test_series.py::TestSearchCost"
         "::test_the_guess_is_the_answer_or_one_below_and_the_walk_is_short",
         "tests/test_series.py::TestLeast::test_the_float_guess_is_the_answer_or_one_below"),
    ),
    Mutant(
        "auto-truncate-k-minus-1",
        "series.py",
        "return k, bound",
        "return k - 1, bound",
        ("tests/test_series.py::TestAutoTruncate::test_central_binomial_scan",),
    ),
    Mutant(
        "within-strict",
        "series.py",
        """        return real_to_fraction(lo) <= x <= real_to_fraction(hi)
    return lo <= x <= hi""",
        """        return real_to_fraction(lo) < x < real_to_fraction(hi)
    return lo < x < hi""",
        ("tests/test_series.py::TestEnvelopeInterval::test_contains_decides_a_fraction_exactly",),
    ),
    Mutant(
        "envelope-pad-dropped",
        "series.py",
        "pm, pe = _margin(hi if _sum(hi, lo, wp)[0] > 0 else lo, precision)",
        "pm, pe = 0, 0",
        ("tests/test_series.py::TestEnvelopeInterval::test_width_equals_bound_up_to_slop",),
    ),
    Mutant(
        "anchor-inward",
        "series.py",
        "anchored = _sum(value, (-sign * mm, me), wp)",
        "anchored = _sum(value, (sign * mm, me), wp)",
        ("tests/test_containment.py",),
    ),
    Mutant(
        "certificate-share-dropped",
        "series.py",
        "bound = _sum(_sum((abs(t_j[0]), t_j[1]), _margin(t_j, precision), wp), (mm, me + 1), wp)",
        "bound = _sum((abs(t_j[0]), t_j[1]), _margin(t_j, precision), wp)",
        ("tests/test_containment.py",),
    ),
    Mutant(
        "margin-at-2-to-minus-p-plus-8",
        "series.py",
        "return abs(x[0]), x[1] + 32 - precision",
        "return abs(x[0]), x[1] - 8 - precision",
        ("tests/test_containment.py",),
    ),
    Mutant(
        "half-ln-2pi-off-by-2-to-minus-p-minus-40",
        "_expansions.py",
        "return _product(_ln((pi[0], pi[1] + 1), wp), (1, -1), wp), _ln((4, 0), wp), pi",
        "return (_sum(_product(_ln((pi[0], pi[1] + 1), wp), (1, -1), wp), (1, 72 - wp), wp),\n"
        "            _ln((4, 0), wp), pi)",
        ("tests/test_containment.py",),
    ),
    Mutant(
        "demoivre-half-shift-dropped",
        "_expansions.py",
        '"beta-hat", "theta-hat", -1, True, True, _half_shift_prefix,',
        '"beta-hat", "theta-hat", -1, False, True, _half_shift_prefix,',
        ("tests/test_containment.py",),
    ),
    Mutant(
        "verify-failure-exits-0",
        "cli.py",
        'return EXIT_VERIFY_FAILED if result.get("passed") is False else EXIT_OK',
        "return EXIT_OK",
        ("tests/test_cli.py::TestOutputFormats::test_verify_csv_header_and_quoted_detail",),
    ),
    Mutant(
        "precision-env-ignored",
        "cli.py",
        "os.environ.get(PRECISION_ENV_VAR)",
        "None",
        ("tests/test_cli.py::TestPrecisionPlumbing::test_env_var_overrides_default",
         "tests/test_cli.py::TestPrecisionPlumbing"),
    ),
    Mutant(
        "index-cap-off-by-one",
        "cli.py",
        "cap is not None and value > cap:",
        "cap is not None and value > cap + 1:",
        ("tests/test_cli.py::TestDemoCommand::test_steps_above_the_cap_exit_1_before_the_grid_is_built",
         "tests/test_cli.py::TestUsageErrors::test_index_below_its_range"),
    ),
    Mutant(
        "zero-denominator-not-usage",
        "cli.py",
        "except (ValueError, TypeError, ZeroDivisionError):",
        "except (ValueError, TypeError):",
        ("tests/test_cli.py::TestUsageErrors::test_a_zero_denominator_is_usage_error",),
    ),
    Mutant(
        "small-u-series-one-term-short",
        "oracle.py",
        "return -(-(f + 2) // (rho - 2 * m)) - 1",
        "return -(-(f + 2) // (rho - 2 * m)) - 2",
        ("tests/test_oracle.py::TestWeight",),
    ),
    Mutant(
        "small-q-one-binade-early",
        "oracle.py",
        "if top >= small_q:",
        "if top >= small_q - 1:",
        ("tests/test_oracle.py::TestWeight",),
    ),
    Mutant(
        "cosh-table-factor-4-to-the-n-plus-1",
        "oracle.py",
        "(4**p - 1) * c",
        "(4**p + 1) * c",
        ("tests/test_oracle.py::TestWeight",),
    ),
    Mutant(
        "tanh-table-factor-2-plus-4-to-the-n",
        "oracle.py",
        "(2 - 4**p) * c",
        "(2 + 4**p) * c",
        ("tests/test_oracle.py::TestWeight",),
    ),
    Mutant(
        "verify-agreement-gate-2-to-the-40",
        "verify.py",
        "_MISMATCH_FACTOR = 8",
        "_MISMATCH_FACTOR = 2**40",
        ("tests/test_verify_faults.py",),
    ),
    Mutant(
        "demo-sign-test-inverted",
        "demo.py",
        "ctx.sign(remainder) != ctx.sign(t_k)",
        "ctx.sign(remainder) == ctx.sign(t_k)",
        ("tests/test_demo.py::TestWitnessSearch::test_control_scan_is_clean",),
    ),
)


def _first_failure(output: str) -> str | None:
    """The node id of the first FAILED or ERROR line of pytest's summary."""
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0]
    return None


def run(mutant: Mutant) -> dict:
    """Apply the mutant to a copy of ``src/`` and run its selection there."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "envasym" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1",
               "HYPOTHESIS_PROFILE": "mutants"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             "-o", "pythonpath=", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    record = {"name": mutant.name, "file": mutant.file,
              "seconds": round(time.perf_counter() - start, 2)}
    if proc.returncode == 1:
        return {**record, "killed": True, "by": _first_failure(proc.stdout)}
    if proc.returncode == 0:
        return {**record, "killed": False, "by": None}
    return {**record, "killed": None, "error": proc.stdout[-2000:] + proc.stderr[-2000:]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the committed mutants.")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--runs", type=int, default=1, help="times to run the suite")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    names = {m.name for m in MUTANTS}
    unknown = [name for name in args.names if name not in names]
    if unknown:
        sys.stderr.write(f"unknown mutants: {unknown}; known: {sorted(names)}\n")
        return 2
    selected = [m for m in MUTANTS if not args.names or m.name in args.names]
    failed, verdicts = False, {}
    for n in range(1, args.runs + 1):
        for mutant in selected:
            record = run(mutant)
            failed |= record["killed"] is not True
            verdicts.setdefault(mutant.name, set()).add((record["killed"], record.get("by")))
            sys.stdout.write(json.dumps({**record, "run": n} if args.runs > 1 else record) + "\n")
            sys.stdout.flush()
    unstable = sorted(name for name, seen in verdicts.items() if len(seen) > 1)
    if args.runs > 1:
        sys.stdout.write(json.dumps({"runs": args.runs, "mutants": len(selected),
                                     "all_killed": not failed, "unstable": unstable}) + "\n")
    return 1 if failed or unstable else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
