"""In-memory span recorder wrapped around the public functions of qslip.

Every public function of the traced modules is replaced, in every qslip
module namespace that binds it, by a wrapper that records one span: the
function's name, start and end, the span that was open when it was called
(its parent) and the benchmark operation it belongs to.  Calls between
qslip modules (``detect_windows`` calling ``maximize_scalar``) therefore
nest, and a span's self time is its duration minus that of its children.
Spans stay in compact arrays until ``summary`` reads them at the end of
the run.  ``src/`` is never modified: wrapping happens in this process only.
"""

from __future__ import annotations

import statistics
import sys
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("semigroup", "bipartite", "slippage", "qmat", "oracle", "cli")


def _rk4_steps(key):
    def count(counts, args, kwargs, result):
        counts[key] += result.times.size - 1
    return count


def _choi_points(counts, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["t_grid"]
    counts["choi_points"] += np.size(grid)


def _intervals(counts, args, kwargs, result):
    counts["detect_windows.intervals"] += len(result.intervals)


# Work counts read from a call's arguments or result, keyed by span name.
COUNTERS = {
    "oracle.integrate_master_2x2": _rk4_steps("rk4_steps_2x2"),
    "oracle.integrate_master_4x4": _rk4_steps("rk4_steps_4x4"),
    "slippage.is_completely_positive": _choi_points,
    "bipartite.detect_windows": _intervals,
}


def public_functions(package):
    """{"module.name": function} for the functions each traced module defines."""
    found = {}
    for mod_name in MODULES:
        module = sys.modules[f"{package.__name__}.{mod_name}"]
        for name, value in vars(module).items():
            if (not name.startswith("_") and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__):
                found[f"{mod_name}.{name}"] = value
    return found


class Recorder:
    """Collects spans while ``tracing()`` is active; ``op`` tags new spans."""

    def __init__(self, package):
        self.package = package
        self.functions = public_functions(package)
        self.names = list(self.functions) + ["bench.op"]
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.op = -1
        self._stack = []

    def _begin(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, full_name, fn):
        nid = self.names.index(full_name)
        counter = COUNTERS.get(full_name)
        begin, finish, counts = self._begin, self._finish, self.counts

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op_span(self, op):
        """Root span of one benchmark operation; later spans carry its id."""
        self.op = op
        idx = self._begin(len(self.names) - 1)
        try:
            yield
        finally:
            self._finish(idx)

    @contextmanager
    def tracing(self):
        """Swap every binding of a public function for its wrapper, then restore."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        namespaces = [m for name, m in sys.modules.items()
                      if name == self.package.__name__ or name.startswith(self.package.__name__ + ".")]
        patched = []
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self):
        """Per span name: call count, inclusive durations and summed self time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "durations": dur[mask],
                "self_s": float(self_time[mask].sum()),
            }
        return out


def p50(values, scale):
    """Median times ``scale``; 0.0 when the layer was never called."""
    return statistics.median(values) * scale if len(values) else 0.0
