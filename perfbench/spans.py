"""Span tracing of ``oscillab`` from outside the package.

Each traced function is replaced, in every ``oscillab.*`` namespace that
binds it, by a wrapper that records a span (name, start, end, parent) and
the counts of work done at that boundary. Spans stay in memory; the worker
writes them out when the run ends.

Span names are ``<layer>.<function>``; the layer is the package module,
with ``_util`` named ``util`` because a metric name must start with a
letter.
Self time of a span is its duration minus the time covered by its child
spans, so the self times of one pass add up to the time spent inside
traced calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("util", "maximal", "lpaley", "numerics", "kernels", "phases", "verify", "cli")

# (span name, module, attribute). Several functions may share one span name.
# Functions without a metric of their own are traced so that their time is
# charged to their layer rather than to the caller's.
TRACED = [
    ("util.window_sums", "_util", "window_sums"),
    ("util.sliding_max", "_util", "sliding_max"),
    ("util.standard_bump", "_util", "standard_bump"),
    ("util.smooth_plateau", "_util", "smooth_plateau"),
    ("maximal.hardy_littlewood", "maximal", "hardy_littlewood"),
    ("maximal.approach_maximal", "maximal", "approach_maximal"),
    ("lpaley.spaced_pieces", "lpaley", "spaced_pieces"),
    ("lpaley.SpacedFamily.window_hat", "lpaley", "SpacedFamily.window_hat"),
    ("lpaley.SpacedFamily.spatial_window", "lpaley", "SpacedFamily.spatial_window"),
    ("lpaley.dyadic_pieces", "lpaley", "dyadic_pieces"),
    ("lpaley.square_function", "lpaley", "square_function"),
    ("lpaley.dominating_weights", "lpaley", "dominating_weights"),
    ("numerics.convolve", "numerics", "convolve"),
    ("numerics.forward_transform", "numerics", "forward_transform"),
    ("numerics.inverse_transform", "numerics", "inverse_transform"),
    ("numerics.weighted_l2", "numerics", "weighted_l2"),
    ("numerics.lp_norm", "numerics", "lp_norm"),
    ("kernels.build_kernel", "kernels", "build_kernel"),
    ("kernels.apply_T", "kernels", "apply_T"),
    ("kernels.check_decay", "kernels", "check_decay"),
    ("phases.normalize_phase", "phases", "normalize_phase"),
    ("phases.validate_finite_type", "phases", "validate_finite_type"),
    ("verify.two_weight_ratio", "verify", "two_weight_ratio"),
    ("verify.square_function_ratios", "verify", "square_function_ratios"),
    ("verify.corpus", "verify", "random_test_function"),
    ("verify.corpus", "verify", "random_weight"),
    ("verify.corpus", "verify", "random_band_function"),
    ("verify.corpus", "verify", "weight_corpus"),
    ("verify.maximal_norm_sweep", "verify", "maximal_norm_sweep"),
    ("verify.operator_norm_sweep", "verify", "operator_norm_sweep"),
    ("verify.uncertainty_bounds_check", "verify", "uncertainty_bounds_check"),
    ("verify.envelope_check", "verify", "envelope_check"),
    ("cli.run", "cli", "run"),
    ("cli.io", "cli", "_atomic_write"),
]

# Per-layer metrics reported from a traced pass, in BENCHMARK.json order.
CALLS_AND_SELF = ["calls", "self_s"]
METRICS: list[tuple[str, list[str]]] = [
    ("util", ["self_s"]),
    ("util.window_sums", CALLS_AND_SELF + ["cells"]),
    ("util.sliding_max", CALLS_AND_SELF + ["cells"]),
    ("util.standard_bump", CALLS_AND_SELF + ["points"]),
    ("maximal", ["self_s"]),
    ("maximal.hardy_littlewood", CALLS_AND_SELF + ["rungs"]),
    ("maximal.approach_maximal", CALLS_AND_SELF + ["rungs"]),
    ("lpaley", ["self_s"]),
    ("lpaley.spaced_pieces", CALLS_AND_SELF + ["pieces", "useful_frac"]),
    ("lpaley.SpacedFamily.window_hat", CALLS_AND_SELF),
    ("lpaley.dyadic_pieces", CALLS_AND_SELF),
    ("lpaley.dominating_weights", CALLS_AND_SELF),
    ("numerics", ["self_s"]),
    ("numerics.convolve", CALLS_AND_SELF + ["fft_points"]),
    ("numerics.forward_transform", CALLS_AND_SELF),
    ("numerics.inverse_transform", CALLS_AND_SELF + ["points"]),
    ("numerics.weighted_l2", ["self_s"]),
    ("numerics.lp_norm", ["self_s"]),
    ("kernels", ["self_s"]),
    ("kernels.build_kernel", CALLS_AND_SELF),
    ("kernels.apply_T", CALLS_AND_SELF),
    ("kernels.check_decay", CALLS_AND_SELF),
    ("phases", ["self_s"]),
    ("phases.normalize_phase", CALLS_AND_SELF),
    ("phases.validate_finite_type", CALLS_AND_SELF),
    ("verify", ["self_s"]),
    ("verify.two_weight_ratio", CALLS_AND_SELF),
    ("verify.square_function_ratios", CALLS_AND_SELF),
    ("verify.corpus", CALLS_AND_SELF),
    ("cli", ["self_s"]),
    ("cli.io", ["bytes", "self_s"]),
    ("trace", ["coverage", "overhead_s", "largest_array_mb"]),
]

UNITS = {"self_s": "s", "overhead_s": "s", "coverage": "fraction", "useful_frac": "fraction",
         "bytes": "B", "largest_array_mb": "MB-computed", "fft_points": "count",
         "calls": "count", "cells": "count", "points": "count", "pieces": "count",
         "rungs": "count"}

# Stats that count work; two traced passes with one seed must agree on them.
COUNT_STATS = ("calls", "cells", "points", "fft_points", "pieces", "rungs", "bytes")

RUNG_OWNERS = ("maximal.hardy_littlewood", "maximal.approach_maximal")
USEFUL_ENERGY = 1e-12


def metric_names() -> list[str]:
    return [f"{prefix}.{stat}" for prefix, stats in METRICS for stat in stats]


def _nbytes(obj) -> int:
    """Computed bytes of the arrays in a value: arrays, grid functions, lists."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    values = getattr(obj, "values", None)
    if isinstance(values, np.ndarray):
        return values.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _energy(values: np.ndarray) -> float:
    return float(np.vdot(values, values).real)


def _counts(name: str, args, result) -> dict[str, float]:
    """Work counts of one call, from its argument and result sizes."""
    if name in ("util.window_sums", "util.sliding_max"):
        return {"cells": len(args[0])}
    if name == "util.standard_bump":
        return {"points": int(np.size(args[0]))}
    if name == "numerics.convolve":
        return {"fft_points": 2 * args[0].grid.n}
    if name == "numerics.inverse_transform":
        return {"points": args[0].space_grid.n}
    if name == "lpaley.spaced_pieces":
        floor = USEFUL_ENERGY * _energy(args[0].values)
        useful = sum(1 for p in result if _energy(p.values) > floor)
        return {"pieces": len(result), "useful": useful}
    if name == "cli.io":
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Collects the spans and counts of one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # name index, start, end, parent
        self.stack: list[list] = []  # open spans: [span index, name, child ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.largest_bytes = 0
        self.bookkeeping_ns = 0

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), name, 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (index, start, end, parent)
                self.self_ns[name] += end - start - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += end - start
            self._account(name, args, result)
            bookkeeping = clock() - end
            self.bookkeeping_ns += bookkeeping
            if stack:
                # the caller is not charged for the tracer's bookkeeping
                stack[-1][2] += bookkeeping
            return result

        return traced

    def _account(self, name, args, result) -> None:
        for stat, value in _counts(name, args, result).items():
            self.counts[f"{name}.{stat}"] += value
        if name == "util.window_sums":
            for frame in reversed(self.stack):
                if frame[1] in RUNG_OWNERS:
                    self.counts[f"{frame[1]}.rungs"] += 1
                    break
        self.largest_bytes = max(self.largest_bytes,
                                 _nbytes(result), *(_nbytes(a) for a in args))

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns / 1e9
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass; ``trace.overhead_s`` is left out.

        ``trace.coverage`` is the layers' self time over the pass's wall
        time less the tracer's own bookkeeping.
        """
        layer = self.layer_self_s()
        values = {f"{name}.self_s": s for name, s in layer.items()}
        values.update({f"{name}.self_s": ns / 1e9 for name, ns in self.self_ns.items()})
        values.update({f"{name}.calls": n for name, n in self.calls.items()})
        values.update(self.counts)
        pieces = self.counts["lpaley.spaced_pieces.pieces"]
        values["lpaley.spaced_pieces.useful_frac"] = (
            self.counts["lpaley.spaced_pieces.useful"] / pieces if pieces else 0.0)
        values["trace.coverage"] = sum(layer.values()) / (wall_s - self.bookkeeping_ns / 1e9)
        values["trace.largest_array_mb"] = self.largest_bytes / 1e6
        return {k: values.get(k, 0) for k in metric_names() if k != "trace.overhead_s"}

    def write_spans(self, fh, pass_index: int) -> None:
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{pass_index},{i},{parent},{self.names[name]},{start},{end}\n")


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "oscillab" or n.startswith("oscillab."))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replace every binding of each traced function; return what to restore."""
    restore = []
    modules = _package_modules()
    for name, module, attr in TRACED:
        owner = importlib.import_module(f"oscillab.{module}")
        *cls, fname = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            original = owner.__dict__[fname]
            restore.append((owner, fname, original))
            setattr(owner, fname, tracer.wrap(name, original))
            continue
        original = getattr(owner, fname)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(restore):
        setattr(owner, key, original)


def stale_references(restore: list[tuple[object, str, object]]) -> list[str]:
    """Places in the package still holding an unwrapped traced function.

    A missed binding silently drops calls from the trace. This looks in
    module namespaces, class dictionaries, default arguments and closures.
    """
    originals = {id(orig) for _, _, orig in restore}
    found = []

    def holders(obj):
        if callable(obj) and hasattr(obj, "__code__"):
            yield from (obj.__defaults__ or ())
            yield from (obj.__kwdefaults__ or {}).values()
            for cell in obj.__closure__ or ():
                try:
                    yield cell.cell_contents
                except ValueError:  # empty cell
                    pass

    for mod in _package_modules():
        for key, value in vars(mod).items():
            members = ([(f"{key}.{k}", v) for k, v in vars(value).items()]
                       if isinstance(value, type) else [])
            for where, obj in [(key, value), *members]:
                if id(obj) in originals:
                    found.append(f"{mod.__name__}.{where}")
                for held in holders(getattr(obj, "__wrapped__", obj)):
                    if id(held) in originals:
                        found.append(f"{mod.__name__}.{where} holds {held.__name__}")
    return found
