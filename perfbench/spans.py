"""Spans around the public functions of relequil's layers, and their arithmetic.

The tracer replaces every public function of the layer modules at each
place it is bound: the defining module and every module (or the package)
that imports it by name.  A caller therefore reaches the wrapper through
the same name it already uses, and nested calls such as
``spectrum.decompose_blocks -> model.potential_hessian`` nest as spans.
A span's name is the defining module's short name plus the function name,
so ``model.potential_hessian`` collects calls from every caller.

Spans stay in memory as plain tuples and are summarised once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "relequil"
LAYER_MODULES = ("pipeline", "model", "central", "symmetry", "spectrum", "dynamics")

# span fields
SPAN_ID, PARENT, OP, NAME, T0, T1 = range(6)


class Tracer:
    """Records one span per call of a wrapped function.

    ``probes`` maps a span name to ``probe(args, kwargs, result)``, which
    returns a value kept in ``samples[name]``; probes run after the span is
    closed, so their cost is not charged to the function they inspect.
    """

    def __init__(self, probes=None):
        self.spans = []
        self.samples = {}
        self.op = -1
        self.probes = dict(probes or {})
        self._stack = []
        self._next_id = 0
        self._patched = []

    def begin_op(self, op):
        """Tag the spans that follow with operation ``op``.

        The stack is reset because an operation stopped by its time limit
        can leave it unbalanced.
        """
        self.op = op
        self._stack.clear()

    def wrap(self, name, fn):
        probe = self.probes.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, self.op, name, t0, t1))
            if probe is not None:
                self.samples.setdefault(name, []).append(probe(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every public layer function at every binding in the package."""
        targets = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[obj] = f"{short}.{obj.__name__}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is the span's duration minus the part of it that its direct
    child spans cover.  Inclusive time counts only the outermost span of a
    name, so a function that re-enters itself is not counted twice.
    """
    by_id = {s[SPAN_ID]: s for s in spans}
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    table = {}
    for s in spans:
        name, t0, t1 = s[NAME], s[T0], s[T1]
        row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - covered_length(t0, t1, children.get(s[SPAN_ID], ()))
        # a parent missing from by_id was cut off by the time limit
        ancestor = by_id.get(s[PARENT])
        while ancestor is not None and ancestor[NAME] != name:
            ancestor = by_id.get(ancestor[PARENT])
        if ancestor is None:
            row["incl_s"] += t1 - t0
    return table


def child_counts(spans, parent_name, child_name):
    """Number of direct ``child_name`` children of each ``parent_name`` span."""
    counts = {s[SPAN_ID]: 0 for s in spans if s[NAME] == parent_name}
    for s in spans:
        if s[NAME] == child_name and s[PARENT] in counts:
            counts[s[PARENT]] += 1
    return list(counts.values())
