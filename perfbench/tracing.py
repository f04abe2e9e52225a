"""Span tracing of the driftsketch layers from outside the package.

``Tracer.installed()`` wraps each layer's public functions and swaps every
reference the package holds to them -- module attributes, the names modules
import from each other, and dispatch tables such as ``noiselab._NOISE_OPS``
and ``cli._COMMANDS`` -- so a call made through any of those paths records a
span. Spans are kept in memory and reduced when the pass ends. The program's
files are not touched.
"""

import contextlib
import importlib
import inspect
import os
import sys
import time

import numpy as np

# the package modules that form the layers; ``head`` (train-head) is left out
LAYERS = ("cli", "store", "extract", "sketchlib", "_kernels", "stats", "noiselab", "core")
KERNELS = ("hash_bins", "match_counts", "minhash_signature")
NEAR_THRESHOLD = 0.05


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with ``parent``
    the index of the enclosing span or -1. Child intervals are clipped to the
    parent and merged, so overlapping children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def aggregate(spans):
    """Per span name: calls, total and self time in nanoseconds."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += span[2] - span[1]
        row["self_ns"] += own
    return table


def _count_minima(counters, args, kwargs, result):
    counters["sketchlib.minima_matrix.rows"] += result.shape[0]
    counters["sketchlib.minima_matrix.bytes"] += result.nbytes


def _count_match(counters, args, kwargs, result):
    counters["kernels.match_counts.bytes"] += np.asarray(args[0]).nbytes


def _count_library_write(counters, args, kwargs, result):
    counters["store.library.bytes"] += os.path.getsize(args[1])


def _count_library_read(counters, args, kwargs, result):
    counters["store.library.bytes"] += os.path.getsize(args[0])


def _count_gate(counters, args, kwargs, result):
    gate = args[2] if len(args) > 2 else kwargs["g"]
    counters["gate.queries"] += 1
    counters["gate.anomalous"] += int(result.anomalous)
    counters["gate.near_threshold"] += int(abs(result.score - gate.j_alpha) <= NEAR_THRESHOLD)


# per-span counters derived from arguments or results
HOOKS = {
    "sketchlib.minima_matrix": _count_minima,
    "kernels.match_counts": _count_match,
    "store.write_library": _count_library_write,
    "store.read_library": _count_library_read,
    "sketchlib.gate_check": _count_gate,
}
COUNTERS = (
    "sketchlib.minima_matrix.rows",
    "sketchlib.minima_matrix.bytes",
    "kernels.match_counts.bytes",
    "store.library.bytes",
    "gate.queries",
    "gate.anomalous",
    "gate.near_threshold",
)


def layer_targets():
    """Map each traced function object to its span name ``<layer>.<function>``.

    Public functions defined in each layer module, the three hashing kernels
    as the ``kernels`` layer, the CLI subcommand handlers as
    ``cli.<subcommand>``, and ``SketchLibrary.minima_matrix``.
    """
    targets = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"driftsketch.{layer}")
        if layer == "_kernels":
            for name in KERNELS:
                targets[getattr(mod, name)] = f"kernels.{name}"
            continue
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name[0] != "_":
                targets[obj] = f"{layer}.{name}"
    cli = importlib.import_module("driftsketch.cli")
    for sub, handler in cli._COMMANDS.items():
        targets[handler] = f"cli.{sub}"
    sketchlib = importlib.import_module("driftsketch.sketchlib")
    targets[sketchlib.SketchLibrary.minima_matrix] = "sketchlib.minima_matrix"
    return targets


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, request]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request = -1
        self._stack = []

    @contextlib.contextmanager
    def request_scope(self, request_id):
        """Tag the spans of one request (a gate query, a CLI call) with its id."""
        previous, self.request = self.request, request_id
        try:
            yield
        finally:
            self.request = previous

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every package reference to a layer function for its wrapper."""
        targets = layer_targets()
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "driftsketch":
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if _is_target(value, wrappers):
                    undo.append((namespace, key, value))
                    namespace[key] = wrappers[value]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if _is_target(v, wrappers):
                            undo.append((value, k, v))
                            value[k] = wrappers[v]
        sketchlib = importlib.import_module("driftsketch.sketchlib")
        original = sketchlib.SketchLibrary.minima_matrix
        sketchlib.SketchLibrary.minima_matrix = wrappers[original]
        try:
            yield self
        finally:
            sketchlib.SketchLibrary.minima_matrix = original
            for container, key, value in reversed(undo):
                container[key] = value

    def layer_table(self):
        """Per span name: calls, total and self time, from the recorded spans."""
        return aggregate([s[:4] for s in self.spans])


def _is_target(value, wrappers):
    try:
        return value in wrappers
    except TypeError:  # unhashable module attribute
        return False
