"""Spans and counters recorded around the library's public functions.

The tracer wraps functions from outside the program: each target function is
replaced, in every relucirc module that holds it, by a wrapper that records a
span (name, start, end, parent) and updates counters from the call's
arguments and result.  Wrappers record only inside an operation or probe
span, so input generation and output checks go unrecorded.  Spans stay in
memory until the run ends.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable


def _shape_entries(matrix) -> int:
    rows, cols = matrix.shape
    return rows * cols


def _grid_side(radius, step) -> int:
    return 2 * int(Fraction(radius) / Fraction(step)) + 1


class _Call:
    """A traced call's arguments, bound to parameter names on first use."""

    def __init__(self, signature: inspect.Signature, args, kwargs):
        self._signature, self._args, self._kwargs = signature, args, kwargs
        self._bound = None

    def __getitem__(self, name: str):
        if self._bound is None:
            self._bound = self._signature.bind(*self._args, **self._kwargs)
            self._bound.apply_defaults()
        return self._bound.arguments[name]


def _count_cube(tr, call, result):
    circuit = call["circuit"]
    tr.count("circuit.gate_points", sum(circuit.widths) << circuit.input_count)


def _count_evaluate(tr, call, result):
    tr.count("circuit.evaluate_calls", 1)


def _count_build(tr, call, result):
    tr.count("constructions.gates_built", result.size)


def _count_matrix(tr, call, result):
    tr.count("signrank.matrix_entries", _shape_entries(result))


def _count_top(tr, call, result):
    tr.count("signrank.matrix_entries", sum(_shape_entries(f) for f in result[2]))


def _count_grid_max(tr, call, result):
    tr.count("pwl.grid_points", _grid_side(call["radius"], call["step"]) ** 2)


def _count_mismatch(tr, call, result):
    step = Fraction(call["step"])
    side = _grid_side(call["radius"], step)
    if result is None:
        scanned = side * side
    else:
        (p1, p2), _, _ = result
        half = side // 2
        scanned = (int(p1 / step) + half) * side + int(p2 / step) + half + 1
    tr.count("pwl.grid_points", scanned)


def _count_locus(tr, call, result):
    tr.count("pwl.locus_lines", len(result.lines))


def _count_apply(tr, call, result):
    # a fold visits every (bottom gate, fixed coordinate) pair
    tr.count("restriction.weights_folded", call["circuit"].widths[0] * len(call["rho"].fixed))
    tr.count("restriction.gates_removed", len(result.removed_as_zero))
    tr.count("restriction.gates_linearized", len(result.linearized))
    tr.count("restriction.gates_survived", len(result.survivors))


# (module, function, timer name, counter hook); a timer name of None derives
# it from the call (truth_table: cold on a circuit's first call in an
# operation, warm on a repeat).
TARGETS: list[tuple[str, str, str | None, Callable | None]] = [
    ("constructions", "universal_vertex_indicators", "constructions.build_s", _count_build),
    ("constructions", "universal_fourier", "constructions.build_s", _count_build),
    ("circuit", "truth_table", None, _count_cube),
    ("circuit", "forward_on_cube", "circuit.forward_on_cube_s", _count_cube),
    ("circuit", "evaluate", "circuit.evaluate_s", _count_evaluate),
    ("signrank", "pre_sign_matrix", "signrank.pre_sign_matrix_s", _count_matrix),
    ("signrank", "block_partition", "signrank.block_partition_s", None),
    ("signrank", "top_decomposition", "signrank.top_decomposition_s", _count_top),
    ("signrank", "inner_product_matrix", "signrank.inner_product_matrix_s", _count_matrix),
    ("signrank", "exact_rank", "signrank.exact_rank_s", None),
    ("signrank", "forster_lower_bound", "signrank.forster_lower_bound_s", None),
    ("pwl", "grid_max_error", "pwl.grid_max_error_s", _count_grid_max),
    ("pwl", "nondiff_locus", "pwl.nondiff_locus_s", _count_locus),
    ("pwl", "refute_max0xy", "pwl.refute_max0xy_s", None),
    ("pwl", "first_grid_mismatch", "pwl.first_grid_mismatch_s", _count_mismatch),
    ("restriction", "sample_andreev_restriction", "restriction.sample_andreev_restriction_s", None),
    ("restriction", "apply_restriction", "restriction.apply_restriction_s", _count_apply),
    ("restriction", "survival_experiment", "restriction.survival_experiment_s", None),
    ("serialize", "load_circuit", "serialize.load_circuit_s", None),
    ("serialize", "circuit_to_json", "serialize.circuit_to_json_s", None),
    ("cli", "main", "cli.main_s", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.times: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [0]
        self._recording = False
        self._counting = False
        self._tabulated: dict[int, Any] = {}
        self._last_id = 0
        self._t0 = time.perf_counter_ns()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def install(self) -> None:
        """Wrap every target in every loaded relucirc module."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "relucirc" or name.startswith("relucirc.")
        ]
        for mod_name, fn_name, timer, hook in TARGETS:
            original = getattr(sys.modules[f"relucirc.{mod_name}"], fn_name)
            wrapper = self._wrap(original, timer, hook)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)

    def _wrap(self, fn: Callable, timer: str | None, hook: Callable | None) -> Callable:
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            name = timer
            if name is None:
                circuit = args[0] if args else kwargs["circuit"]
                warm = id(circuit) in tracer._tabulated
                tracer._tabulated[id(circuit)] = circuit
                name = "circuit.truth_table_warm_s" if warm else "circuit.truth_table_cold_s"
            result = tracer._timed(name, fn, args, kwargs)
            if hook is not None and tracer._counting:
                hook(tracer, _Call(signature, args, kwargs), result)
            return result

        return wrapper

    def _timed(self, name: str, fn: Callable, args, kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def _span(self, name: str):
        self._last_id += 1
        sid, parent = self._last_id, self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start - self._t0, end - self._t0))
            self.times[name] += (end - start) / 1e9

    @contextmanager
    def op(self, slot: str, probe: bool = False):
        """Root span of one operation, or of a probe made after it.

        Counters are kept for operations only: a probe repeats work that
        its operation already counted.
        """
        if not probe:
            self._tabulated.clear()
        self._recording, self._counting = True, not probe
        try:
            with self._span(("probe:" if probe else "op:") + slot):
                yield
        finally:
            self._recording = self._counting = False

    def write(self, path: str, meta: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {**meta, "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                 "spans": self.spans},
                fh, separators=(",", ":"),
            )
