"""Spans around the calls into the program's layers, recorded from outside it.

The program imports its collaborators by name (``from .polyeval import
eval_fast``), so a call is caught by replacing the name in the module where
the caller looks it up: ``anticirculant.oracle.eval_fast`` and
``anticirculant.classifier.eval_fast`` are two different bindings of one
function, and each gets its own wrapper.  A span is (name, start, end,
parent); spans live in flat arrays until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

#: (module, attribute, span name).  The span name keeps the layer and the
#: function; ``@site`` says which module made the call when more than one does.
PATCHES = (
    ("anticirculant.cli", "main", "cli.main"),
    ("anticirculant.classifier", "classify", "classifier.classify"),
    ("anticirculant.classifier", "strong_hankel_check", "classifier.strong_hankel_check"),
    ("anticirculant.classifier", "verify_power_sum", "classifier.verify_power_sum"),
    ("anticirculant.classifier", "expand", "tensor.expand"),
    ("anticirculant.tensor", "expand", "tensor.expand"),
    ("anticirculant.classifier", "hankel_matrix", "tensor.hankel_matrix"),
    ("anticirculant.classifier", "eval_fast", "polyeval.eval_fast@classifier"),
    ("anticirculant.oracle", "eval_fast", "polyeval.eval_fast@oracle"),
    ("anticirculant.polyeval", "eval_fast", "polyeval.eval_fast@cli"),
    ("anticirculant.oracle", "value_and_gradient", "polyeval.value_and_gradient"),
    ("anticirculant.oracle", "sphere_min", "oracle.sphere_min"),
    ("anticirculant.oracle", "matrix_psd", "oracle.matrix_psd"),
)


class Tracer:
    """Span recorder; ``installed()`` swaps the wrappers in for a block."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        #: span index -> value returned, for the calls whose result is counted
        self.results: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches = []
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(span_name, original)))

    def _wrap(self, span_name: str, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        keep = span_name in ("classifier.classify", "oracle.sphere_min", "oracle.matrix_psd")
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[span], self.end[span] = t0, t1
            if keep:
                self.results[span] = out
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (np.array(self.name, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def write(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (summed durations) and ``self_s``.

        Self time is busy time minus the time covered by direct children; a
        caller runs its children one after the other, so their durations add.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        stats = {}
        for i, span_name in enumerate(self.names):
            mask = name == i
            stats[span_name] = {
                "calls": int(mask.sum()),
                "busy_s": float(dur[mask].sum()),
                "self_s": float((dur[mask] - child[mask]).sum()),
            }
        return stats

    def spans_named(self, span_name: str) -> list[int]:
        name_id = self.names.index(span_name)
        return [i for i, t in enumerate(self.name) if t == name_id]

    def children_named(self, span_name: str) -> dict[int, int]:
        """Parent span index -> number of its direct children called ``span_name``."""
        name_id = self.names.index(span_name)
        counts: dict[int, int] = {}
        for t, p in zip(self.name, self.parent):
            if t == name_id:
                counts[p] = counts.get(p, 0) + 1
        return counts
