"""Spans and work counters recorded around calls into projsum's modules.

The tracer replaces module attributes of projsum with timing wrappers while
it is installed, so the program itself carries no tracing code.  Every
module that imported a traced function by name is patched too, and a method
is patched on its class.  numpy entry points that projsum calls through the
``np.`` namespace are wrapped with counters that only count while a projsum
span is open, so the benchmark's own numpy work is never counted.

Spans are kept in memory as ``[name, start, end, parent, item]`` lists and
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute path) of every traced stage; the metric name is
# "<module>.<attribute path>" without the package prefix
SPANS = (
    ("linalg", "hermitian_eig"),
    ("linalg", "nearest_isometry"),
    ("linalg", "null_space"),
    ("linalg", "seminorm"),
    ("linalg", "reduced_densities"),
    ("families", "four_family"),
    ("families", "simplex_family"),
    ("families", "validate_family"),
    ("sweep", "build_family"),
    ("strategies", "Strategy.validate"),
    ("strategies", "induced_correlation"),
    ("strategies", "ideal_correlation"),
    ("strategies", "perturb"),
    ("strategies", "canonical_strategy"),
    ("selftest", "approx_rep_residuals"),
    ("selftest", "sync_residuals"),
    ("selftest", "tracial_residual"),
    ("selftest", "fit_isometry"),
    ("selftest", "n_operator"),
    ("selftest", "extract_dilation"),
    ("selftest", "_dilation_residuals"),
    ("sweep", "run_sweep"),
    ("sweep", "emit_report"),
    ("serialize", "load_json"),
    ("serialize", "save_json"),
    ("serialize", "strategy_from_dict"),
    ("serialize", "certificate_to_dict"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in SPANS)

# (name, unit) of counters that repeat exactly for the same inputs; the
# dim3 sum and kron bytes are computed from array shapes, not measured
COUNTERS = (
    ("linalg.eigh_calls", "count"),
    ("linalg.eigh_max_dim", "rows"),
    ("linalg.eigh_dim3_sum", "rows3"),
    ("linalg.eigvalsh_calls", "count"),
    ("linalg.svd_calls", "count"),
    ("linalg.kron_calls", "count"),
    ("linalg.kron_bytes", "B"),
    ("serialize.bytes_written", "B"),
)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.item: str | None = None
        self._stack: list[int] = []

    def _span(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def _count(self, fn, tally):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if stack:
                tally(args, out)
            return out

        return counted

    def _tally_eigh(self, args, _out):
        dim = np.shape(args[0])[-1]
        self.counters["linalg.eigh_calls"] += 1
        self.counters["linalg.eigh_dim3_sum"] += dim**3
        self.counters["linalg.eigh_max_dim"] = max(self.counters["linalg.eigh_max_dim"], dim)

    def _tally_kron(self, _args, out):
        self.counters["linalg.kron_calls"] += 1
        self.counters["linalg.kron_bytes"] += out.nbytes

    def _tally_save(self, args, _out):
        self.counters["serialize.bytes_written"] += os.path.getsize(args[1])

    def _tally(self, key):
        def tally(_args, _out):
            self.counters[key] += 1

        return tally

    @contextmanager
    def installed(self):
        """Patch projsum and numpy for the duration of the block."""
        patches = []  # (owner, attribute, original)
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "projsum" or n.startswith("projsum.")
        ]
        for (module, path), name in zip(SPANS, SPAN_NAMES):
            owner = importlib.import_module(f"projsum.{module}")
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            fn = original
            if name == "serialize.save_json":
                fn = self._count(fn, self._tally_save)
            wrapped = self._span(name, fn)
            if parents:
                targets = [(owner, attr)]
            else:
                targets = [
                    (mod, key)
                    for mod in modules
                    for key, value in vars(mod).items()
                    if value is original
                ]
            for target, key in targets:
                patches.append((target, key, original))
                setattr(target, key, wrapped)
        numpy_hooks = (
            (np.linalg, "eigh", self._tally_eigh),
            (np.linalg, "eigvalsh", self._tally("linalg.eigvalsh_calls")),
            (np.linalg, "svd", self._tally("linalg.svd_calls")),
            (np, "kron", self._tally_kron),
        )
        for owner, attr, tally in numpy_hooks:
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, self._count(original, tally))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_times(self, item_prefix: str) -> dict[str, tuple[int, float, float]]:
        """Calls, total and self seconds per span name, over items with a prefix.

        Self time is a span's duration minus the durations of its direct
        children.  Total time counts only the outermost of nested spans of
        one name, so recursion is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, item) in enumerate(spans):
            if item is None or not item.startswith(item_prefix):
                continue
            calls[name] += 1
            own[name] += (end - start) - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total[name] += end - start
        return {n: (calls[n], total[n], own[n]) for n in SPAN_NAMES}
