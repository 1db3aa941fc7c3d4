"""Spans and counters around the calls into each weilcalc layer.

The tracer wraps public functions in every module namespace where callers
look them up, and wraps the ``Poly``/``VForm`` constructors and arithmetic
methods on their classes. Nothing under ``src/`` changes: ``install`` swaps
the attributes in, ``uninstall`` puts the originals back.

A span records a name, a start, an end and its parent span. Spans stay in
memory (in flat arrays, so millions of polynomial multiplies fit) until the
run ends; per-layer metrics are derived from them afterwards.
"""

import os
import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute, span name) for wrapped module-level functions.
_FUNCTIONS = (
    ("weilcalc.weil", "delta", "weil.delta"),
    ("weilcalc.weil", "dnabla_cochain", "weil.dnabla"),
    ("weilcalc.weil", "solve_coboundary", "weil.solve"),
    ("weilcalc.weil", "bounded_kernel", "weil.solve"),
    ("weilcalc.weil", "_unknown_cells", "weil.cells"),
    ("weilcalc._linsolve", "solve_sparse", "_linsolve.solve"),
    ("weilcalc._linsolve", "nullspace_sparse", "_linsolve.solve"),
    ("weilcalc._linsolve", "_eliminate", "_linsolve.eliminate"),
    ("weilcalc.connections", "lieA_derivative", "connections.lieA_derivative"),
    ("weilcalc.algebroid", "bracket", "algebroid.bracket"),
    ("weilcalc.ideals", "hstar", "ideals.hstar"),
    ("weilcalc.ideals", "Dhor", "ideals.Dhor"),
    ("weilcalc.specfile", "load_spec_path", "specfile.load"),
    ("weilcalc.specfile", "dumps_canonical", "specfile.dump"),
    ("weilcalc.fixtures", "build_fixture", "fixtures.build"),
    ("weilcalc.cli", "main", "cli.dispatch"),
)


class Tracer:
    """Collects spans and counters while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.names = []
        self._name_id = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._patches = []

    def reset(self):
        """Drop recorded spans and counts; installed wrappers keep working."""
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del arr[:]
        del self._stack[1:]
        self.counts.clear()

    # -- recording ---------------------------------------------------------

    def _sid(self, name):
        sid = self._name_id.get(name)
        if sid is None:
            sid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return sid

    def _span(self, fn, name, after=None):
        sid = self._sid(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.on:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Swap wrappers into the weilcalc module namespaces and classes."""
        if self._patches:
            return
        from weilcalc.algebroid import VForm
        from weilcalc.polyring import Poly

        for modname, attr, name in _FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self._span(original, name, _AFTER.get(attr)))

        self._patch_method(Poly, ("__init__",),
                           lambda fn: self._counter(fn, "polyring.init"))
        self._patch_method(Poly, ("__add__", "__radd__"),
                           lambda fn: self._counter(fn, "polyring.add"))
        self._patch_method(Poly, ("__mul__", "__rmul__"),
                           lambda fn: self._span(fn, "polyring.mul", _count_term_products))
        self._patch_method(VForm, ("__init__",),
                           lambda fn: self._counter(fn, "algebroid.vform_init"))

    def _replace_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith(("weilcalc", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attrs, wrapper_of):
        original = cls.__dict__[attrs[0]]
        wrapper = wrapper_of(original)
        for attr in attrs:
            if cls.__dict__.get(attr) is original:
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.on = False

    # -- analysis ------------------------------------------------------------

    def _intervals(self, name):
        """(start, end) of the spans of ``name`` not nested in another of the same name."""
        sid = self._name_id.get(name)
        if sid is None:
            return []
        names, starts, ends = self.span_name, self.span_start, self.span_end
        out, last_end = [], float("-inf")
        for i in range(len(names)):  # spans are stored in start order
            if names[i] == sid and starts[i] >= last_end:
                out.append((starts[i], ends[i]))
                last_end = ends[i]
        return out

    def inclusive_ms(self, name):
        """Time under spans of ``name``, counting nested same-name spans once."""
        return sum(e - s for s, e in self._intervals(name)) * 1e3

    def calls(self, name):
        sid = self._name_id.get(name)
        return 0 if sid is None else self.span_name.count(sid)

    def self_ms_excluding(self, name, child_name):
        """Time under ``name`` spans minus the part covered by ``child_name``
        spans inside them."""
        children = self._intervals(child_name)
        total = 0.0
        for s, e in self._intervals(name):
            covered = sum(ce - cs for cs, ce in children if cs >= s and ce <= e)
            total += e - s - covered
        return total * 1e3


def _count_cells(counts, args, result):
    counts["weil.solve.cells"] += len(result)


def _count_system(counts, args, result):
    columns, rhs = args[0], args[1]
    rows = set(rhs)
    for col in columns:
        rows.update(col)
    counts["_linsolve.rows"] += len(rows)
    counts["_linsolve.nonzeros"] += sum(len(col) for col in columns)
    counts["_linsolve.columns"] += len(columns)
    counts["_linsolve.zero_columns"] += sum(1 for col in columns if not col)


def _count_bytes_in(counts, args, result):
    counts["specfile.bytes_in"] += os.path.getsize(args[0])


def _count_bytes_out(counts, args, result):
    counts["specfile.bytes_out"] += len(result.encode("utf-8"))


def _count_term_products(counts, args, result):
    self, other = args
    n = len(self.terms)
    counts["polyring.term_products"] += n * len(other.terms) if hasattr(other, "terms") else n


_AFTER = {
    "_unknown_cells": _count_cells,
    "_eliminate": _count_system,
    "load_spec_path": _count_bytes_in,
    "dumps_canonical": _count_bytes_out,
}
