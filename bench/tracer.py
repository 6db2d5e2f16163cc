"""Layer spans and counters for the traced benchmark run, recorded from outside.

Each target function is replaced, in every ``cosetwalk`` module namespace
that binds it, by a wrapper that records a span or bumps a counter.  The
package calls its own functions through module globals, so internal calls
are caught as well as the benchmark's.  Nothing in the package is edited;
the wrappers are in place only inside ``Tracer.root``.

A span is ``[name, parent id, start, end]`` with the span id its index in
``Tracer.spans``.  Calls made tens of thousands of times per iteration get a
counter instead of a span.  Byte counts marked ``bytes_computed`` come from
array shapes (complex128, 16 B per entry), not from a memory measurement;
``io.csv.bytes`` is the size of the files written.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter

COMPLEX_BYTES = 16


def _operator_bytes(args, kwargs, result):
    walk, kpoints = args
    return "coarse.operators.bytes_computed", len(kpoints) * walk.block_dim**2 * COMPLEX_BYTES


def _state_bytes(args, kwargs, result):
    return "evolve.state.bytes_computed", result.amplitudes.size * COMPLEX_BYTES


def _csv_bytes(args, kwargs, result):
    return "io.csv.bytes", os.path.getsize(args[1])


# (span name, module, attribute, byte account or None)
SPAN_TARGETS = (
    ("cli.main", "cosetwalk.cli", "main", None),
    ("examples.g1_walk", "cosetwalk.examples", "g1_walk", None),
    ("spectral.dispersion_grid", "cosetwalk.spectral", "dispersion_grid", None),
    ("coarse.kspace_operators", "cosetwalk.coarse", "kspace_operators", _operator_bytes),
    ("examples.grid_oracle_deviation", "cosetwalk.examples", "grid_oracle_deviation", None),
    ("io.save_dispersion_csv", "cosetwalk.io", "save_dispersion_csv", _csv_bytes),
    ("io.save_probability_csv", "cosetwalk.io", "save_probability_csv", _csv_bytes),
    ("evolve.make_delta", "cosetwalk.evolve", "make_delta", None),
    ("evolve.step", "cosetwalk.evolve", "step", _state_bytes),
    ("evolve.evolve_fourier", "cosetwalk.evolve", "evolve_fourier", None),
    ("examples.verification_suite", "cosetwalk.examples", "verification_suite", None),
    ("walks.unitarity_residual", "cosetwalk.walks", "unitarity_residual", None),
    ("walks.check_isotropy", "cosetwalk.walks", "check_isotropy", None),
    ("groups.validate_tiling", "cosetwalk.groups", "validate_tiling", None),
    ("io.load_walk", "cosetwalk.io", "load_walk", None),
    ("spectral.band_phases", "cosetwalk.spectral", "band_phases", None),
    ("spectral.band_curvature", "cosetwalk.spectral", "band_curvature", None),
    ("spectral.group_velocity", "cosetwalk.spectral", "group_velocity", None),
)

# (counter name, module, attribute)
COUNTER_TARGETS = (
    ("linalg.phase_multiset_distance.calls", "cosetwalk.linalg", "phase_multiset_distance"),
    ("linalg.operator_norm.calls", "cosetwalk.linalg", "operator_norm"),
)

ITERATION = "bench.iteration"
CHECK = "bench.check"


class Tracer:
    """Spans and counters for one process, recorded inside ``root`` only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        # root span id -> counter increments made inside that root
        self.root_counters: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, attr, account in SPAN_TARGETS:
            self._plan(module, attr, lambda fn, n=name, a=account: self._span_wrapper(n, fn, a))
        for name, module, attr in COUNTER_TARGETS:
            self._plan(module, attr, lambda fn, n=name: self._counter_wrapper(n, fn))

    def _plan(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        bound = [
            (mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "cosetwalk" or mod_name.startswith("cosetwalk.")
            for key, value in list(vars(mod).items())
            if value is original
        ]
        if not bound:
            raise LookupError(f"{module}.{attr} is bound nowhere in the package")
        self._patches.extend((mod, key, original, wrapper) for mod, key in bound)

    def _span_wrapper(self, name, fn, account):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else None, perf_counter(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if account is not None:
                key, amount = account(args, kwargs, result)
                counters[key] += amount
            return result

        return update_wrapper(wrapper, fn)

    def _counter_wrapper(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return update_wrapper(wrapper, fn)

    def _enable(self) -> None:
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def _disable(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    @contextmanager
    def root(self, name: str):
        """Record inside a top-level span (one iteration or one check) with
        its own counters; the wrappers are in place only for its duration."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        before = Counter(self.counters)
        index = len(self.spans)
        self._enable()
        record = [name, None, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[3] = perf_counter()
            self._stack.pop()
            self._disable()
            self.root_counters[index] = dict(self.counters - before)

    def document(self) -> dict:
        return {
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "root_counters": {str(k): v for k, v in self.root_counters.items()},
        }


def root_summary(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-name totals under one root: ``<name>.s``, ``.self_s``, ``.calls``,
    plus the root's counters."""
    spans = tracer.spans
    inclusive: Counter = Counter()
    child_time: Counter = Counter()
    calls: Counter = Counter()
    # spans are appended in start order and nest, so a root's descendants
    # are the contiguous run after it up to the next root
    end = root + 1
    while end < len(spans) and spans[end][1] is not None:
        end += 1
    for index in range(root + 1, end):
        name, parent, start, stop = spans[index]
        duration = stop - start
        inclusive[name] += duration
        calls[name] += 1
        if parent != root:
            child_time[spans[parent][0]] += duration
    out: dict[str, float] = {}
    for name in inclusive:
        out[f"{name}.s"] = inclusive[name]
        out[f"{name}.self_s"] = inclusive[name] - child_time[name]
        out[f"{name}.calls"] = calls[name]
    out.update(tracer.root_counters.get(root, {}))
    return out
