"""``verify``, ``demo`` and ``coeffs.zeta_even`` compute in the private
per-precision context: they never write the global precision, their results
do not depend on it, and threads at different precisions get the serial
values."""

import sys
import threading
import time

from mpmath import mp

from envasym import (
    QuadratureSpec,
    enveloping_control_scan,
    find_envelope_violation,
    oracle,
    perturbed_binet,
    revalidate_witness,
    run_verification,
    zeta_even,
)

SPEC = QuadratureSpec(precision=128)
GRID = ["7.5", 10]


def _clear_oracle_caches():
    oracle._node_table.cache_clear()
    oracle._integral.cache_clear()


class TestNoGlobalPrecisionWrites:
    CALLS = {
        "run_verification": lambda: run_verification(precision=64),
        "find_envelope_violation": lambda: find_envelope_violation("1", GRID, 5, SPEC),
        "enveloping_control_scan": lambda: enveloping_control_scan(GRID, 5, SPEC),
        "revalidate_witness": lambda: revalidate_witness(
            find_envelope_violation("1", GRID, 5, SPEC), "1", SPEC),
        "perturbed_binet": lambda: perturbed_binet("7.5", "2.5", SPEC),
        "zeta_even": lambda: [zeta_even(k, precision) for k in (0, 9) for precision in (64, 512)],
    }

    def test_verify_demo_and_zeta_never_set_the_global_precision(self, precision_writes):
        for call in self.CALLS.values():  # make the private contexts
            call()
        writes = precision_writes()
        _clear_oracle_caches()
        for _ in range(2):  # cold, then with stored nodes and values
            for call in self.CALLS.values():
                call()
        assert writes == []


class TestAmbientPrecision:
    def test_outputs_do_not_depend_on_the_ambient_precision(self):
        def outputs():
            witness = find_envelope_violation("1", GRID, 5, SPEC)
            return ([zeta_even(k, precision)._mpf_ for precision in (64, 512) for k in (0, 7, 40)],
                    [witness.x._mpf_, witness.k, witness.remainder._mpf_,
                     witness.next_term_bound._mpf_, witness.mode],
                    [(r.name, r.passed, r.detail) for r in run_verification(precision=64)])

        results = []
        for ambient in (12, 53, 1000):
            with mp.workprec(ambient):
                results.append(outputs())
        assert results[0] == results[1] == results[2]
        assert all(passed for _, passed, _ in results[0][2])


class TestThreads:
    JOBS = [
        lambda: [zeta_even(k, 64)._mpf_ for k in range(0, 41, 4)],
        lambda: [zeta_even(k, 512)._mpf_ for k in range(0, 41, 4)],
        lambda: perturbed_binet("7.5", "2.5", QuadratureSpec(precision=256))._mpf_,
        lambda: perturbed_binet("7.5", "2.5", QuadratureSpec(precision=320))._mpf_,
    ]
    ROUNDS = 200

    def test_four_threads_at_four_precisions_match_serial(self):
        serial = [job() for job in self.JOBS]  # also warms the quadratures
        prec = mp.prec
        mismatches = [0] * len(self.JOBS)

        def work(i):
            for _ in range(self.ROUNDS):
                mismatches[i] += self.JOBS[i]() != serial[i]

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(len(self.JOBS))]
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
        assert mismatches == [0] * len(self.JOBS)
        assert mp.prec == prec
