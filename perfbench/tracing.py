"""Spans around every public function of the graphpsd modules, recorded from
the benchmark's own files: the program itself is not changed.

``Tracer.install`` replaces each public function (and each public method of
the classes a module defines) with a wrapper, in every graphpsd module that
binds it, so calls through ``from .x import y`` names are traced too.  A span
is (name, start, end, parent span, op); spans stay in memory until the run
ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "graphs", "matrices", "star_tree", "functions", "constructors", "witnesses")
GRID_CHECKS = ("functions.check_superadditive", "functions.check_mult_midpoint_convex",
               "functions.check_abs_monotonic")


def _targets():
    """(owner, attribute, span name, function) for every public callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"graphpsd.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, attr, f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((obj, meth, f"{layer}.{attr}.{meth}", fn))
    return out


class Tracer:
    def __init__(self):
        self.names = list(GRID_CHECKS)  # fixed ids for the grid-point counter
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counts = {"matrices.eig_calls": 0, "star_tree.tree_vertices": 0,
                       "functions.grid_points": 0}
        self.op = 0
        self._stack = []
        self._patches = []
        self._wrappers = {}
        for owner, attr, name, fn in _targets():
            if name not in self.names:
                self.names.append(name)
            self._wrappers[id(fn)] = (fn, self._wrap(self.names.index(name), name, fn))

    def _wrap(self, nid, name, fn):
        stack, counts = self._stack, self.counts
        grid_ids = range(len(GRID_CHECKS))

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx], self.end[idx] = t0, t1
            if name in ("matrices.is_psd", "matrices.spectral_boundary_band"):
                counts["matrices.eig_calls"] += 1  # one eigvalsh each
            elif name == "star_tree.tree_psd_check_sparse":
                counts["star_tree.tree_vertices"] += (args[0] if args else kwargs["t"]).n
            elif name == "functions.EntrywiseFunction.value" and stack \
                    and self.name_id[stack[-1]] in grid_ids:
                counts["functions.grid_points"] += getattr(args[1], "size", 1)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Bind the wrappers everywhere a graphpsd module or class binds the
        original function."""
        for modname, mod in list(sys.modules.items()):
            if modname != "graphpsd" and not modname.startswith("graphpsd."):
                continue
            owners = [mod] + [c for c in vars(mod).values()
                              if inspect.isclass(c) and c.__module__ == modname]
            for owner in owners:
                for attr, obj in list(vars(owner).items()):
                    hit = self._wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patches.append((owner, attr, obj))
                        setattr(owner, attr, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def table(self):
        """{span name: [calls, busy_s, self_s]}; self time is the span minus
        the time its direct children cover."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i, nid in enumerate(self.name_id):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def dump(self):
        """All spans as columns, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        return {"names": self.names, "name": list(self.name_id),
                "start_us": [round((t - t0) * 1e6) for t in self.start],
                "end_us": [round((t - t0) * 1e6) for t in self.end],
                "parent": list(self.parent), "op": list(self.op_id)}
