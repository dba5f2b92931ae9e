"""Spans around calls into each envasym layer, recorded from outside the package.

``Tracer.install`` replaces each layer's public functions with timing
wrappers at every place a caller looks them up: the module attribute, plus
the names bound early (``demo`` imports ``binet_J`` from ``oracle``,
``cli._EVALUATORS`` holds the ``ln_*`` functions, and
``coeffs.COEFFICIENT_FAMILIES`` holds the coefficient functions).  Inside
``coeffs``, ``beta`` is a module global, so replacing the attribute also
catches ``beta_tilde`` -> ``beta``.  ``precision`` is not wrapped: its time
counts in its callers.

A span's self time is its duration minus the time of the spans nested in
it.  Coefficient lookups happen once per series term, so they are counted
and timed but not kept as individual spans; every other span is kept in
memory and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

#: Span name -> (module, public functions) wrapped under that name.
LAYER_FUNCTIONS = {
    "coeffs": ("coeffs", ("bernoulli_even", "beta", "beta_tilde", "beta_hat",
                          "zeta_even", "coefficient_table")),
    "series.auto_truncate": ("series", ("auto_truncate",)),
    "series.min_term_index": ("series", ("min_term_index",)),
    "series.envelope_interval": ("series", ("envelope_interval",)),
    "series.eval": ("series", ("ln_gamma", "ln_central_binomial",
                               "ln_gamma_plus_half", "ln_factorial_demoivre")),
    "series.other": ("series", ("term", "partial_sum")),
    "oracle.quad": ("oracle", ("binet_J", "binet_J_tilde", "theta_ratio",
                               "remainder_quadrature", "coefficient_quadrature")),
    "oracle.exact": ("oracle", ("exact_ln_factorial", "exact_ln_central_binomial",
                                "exact_ln_gamma_half")),
    "demo": ("demo", ("find_envelope_violation", "enveloping_control_scan",
                      "perturbed_binet", "revalidate_witness")),
    "verify": ("verify", ("run_verification",)),
    "cli": ("cli", ("run_cli",)),
}
SPAN_NAMES = tuple(LAYER_FUNCTIONS)
_UNKEPT = {"coeffs"}


class Tracer:
    """Wraps layer functions, keeps spans in memory and per-layer totals."""

    def __init__(self):
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = {
            "coeffs.max_k": 0,
            "series.auto_truncate.steps": 0,
            "series.auto_truncate.floors": 0,
            "oracle.quad.rel_err_max": 0.0,
            "demo.witness_found": 0,
            "demo.control_witnesses": 0,
            "verify.checks_passed": 0,
            "cli.exit_nonzero": 0,
        }
        # Kept spans: [span id, name, parent span id or -1, op id, start, end].
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span id, start, time in nested spans]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _observe(self, name: str, fn_name: str, args, result) -> None:
        counts = self.counts
        if name == "coeffs" and args and isinstance(args[0], int):
            counts["coeffs.max_k"] = max(counts["coeffs.max_k"], args[0])
        elif name == "series.auto_truncate":
            counts["series.auto_truncate.steps"] += result[0] + 1
        elif name == "oracle.quad" and isinstance(result, tuple):
            value, err = result
            if value:
                rel = float(abs(err / value))
                counts["oracle.quad.rel_err_max"] = max(counts["oracle.quad.rel_err_max"], rel)
        elif fn_name == "find_envelope_violation" and result is not None:
            counts["demo.witness_found"] += 1
        elif fn_name == "enveloping_control_scan":
            counts["demo.control_witnesses"] += len(result)
        elif name == "verify":
            counts["verify.checks_passed"] += sum(1 for r in result if r.passed)
        elif name == "cli" and result != 0:
            counts["cli.exit_nonzero"] += 1

    def _observe_floor(self, exc) -> None:
        # auto_truncate raises ToleranceUnattainable at the accuracy floor.
        k_best = getattr(exc, "k_best", None)
        if k_best is not None:
            self.counts["series.auto_truncate.steps"] += k_best + 1
            self.counts["series.auto_truncate.floors"] += 1

    def _wrap(self, name: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        keep = name not in _UNKEPT
        fn_name = fn.__name__

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                self._observe(name, fn_name, args, result)
                return result
            except ArithmeticError as exc:
                if name == "series.auto_truncate":
                    self._observe_floor(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if keep:
                    spans.append([span_id, name, parent, self.op_id, frame[1], end])

        return traced

    # -- installation ------------------------------------------------------

    def _replace(self, holder, key, value, mapping: bool) -> None:
        if mapping:
            self._restore.append((holder, key, holder[key], True))
            holder[key] = value
        else:
            self._restore.append((holder, key, getattr(holder, key), False))
            setattr(holder, key, value)

    def install(self, package) -> None:
        """Wrap every layer function of the imported ``envasym`` package."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in ("coeffs", "series", "oracle", "demo", "verify", "cli")}
        wrapped = {}
        for name, (module, functions) in LAYER_FUNCTIONS.items():
            for fn_name in functions:
                original = getattr(modules[module], fn_name)
                wrapped[original] = self._wrap(name, original)
                self._replace(modules[module], fn_name, wrapped[original], mapping=False)
        # Names bound before the wrappers existed.
        self._replace(modules["demo"], "binet_J", wrapped[modules["demo"].binet_J],
                      mapping=False)
        for table in (modules["cli"]._EVALUATORS, modules["coeffs"].COEFFICIENT_FAMILIES):
            for key, fn in list(table.items()):
                self._replace(table, key, wrapped[fn], mapping=True)

    def uninstall(self) -> None:
        for holder, key, value, mapping in reversed(self._restore):
            if mapping:
                holder[key] = value
            else:
                setattr(holder, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for span_id, name, parent, op_id, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                      "op": op_id, "start": start, "end": end}) + "\n")
