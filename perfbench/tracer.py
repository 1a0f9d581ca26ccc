"""Outside-in tracer for the wittenlab pipeline.

The tracer wraps functions of the installed package from the outside:
no file of the package changes.  Each wrapper is installed in every
wittenlab module namespace that binds the original function, because
the package imports by name (``from .integrals import pairing_matrix``)
and each caller looks the name up in its own module.  ``eigh`` is
wrapped on the ``numpy.linalg`` module, where ``np.linalg.eigh`` is
looked up.

Spans live in memory as flat integer arrays (name, parent, start, end,
work) and are written to a trace file when the run ends.  A span's self
time is its duration minus the durations of its direct children.
Counts (quadrature panels, tracked samples) are attributed to the span
that is open when they happen.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("derham", "branches", "morse", "integrals", "torsion",
          "experiments", "cli")

# private functions that mark a layer boundary, with their span names
PRIVATE_SPANS = {
    ("branches", "_eig_smallest_sparse"): "branches.sparse_eigsh",
    ("branches", "_rebase_split_groups"): "branches.rebase",
    ("cli", "_emit_json"): "cli.emit_json",
    ("cli", "_write_branch_csv"): "cli.write_branch_csv",
}

# quadrature panels are counted on the enclosing span, not timed
PANEL_COUNTERS = {("integrals", "_panel_1d"): "panels_1d",
                  ("integrals", "_panel_2d"): "panels_2d"}

EIGH_SPAN = "branches.dense_eigh"


def _basis_elements(args, kwargs, result):
    return int(result.size)  # nodes x (2N + 1)


def _eigh_flop(args, kwargs, result):
    n = int(result[0].shape[0])
    return 9 * n ** 3  # symmetric eigendecomposition with vectors


# work recorded in the span's own work column
WORK = {"derham.basis_matrix_1d": _basis_elements, EIGH_SPAN: _eigh_flop}


class Tracer:
    """Span stack plus counters; one per traced process."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_work = array("q")
        self.stack = [-1]
        self.counts = {}  # (span index, counter) -> count
        self.installed = []  # (namespace, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key: str, n: int = 1):
        k = (self.stack[-1], key)
        self.counts[k] = self.counts.get(k, 0) + n

    def span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        work = WORK.get(name)
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends, works = self.span_start, self.span_end, self.span_work
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            works.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, kwargs, result)
            return result

        return wrapper

    def counter_wrapper(self, key: str, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(key)
            return fn(*args, **kwargs)

        return wrapper

    def track_wrapper(self, fn):
        """track_branches also reports its accepted samples and grid size."""
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grid = kwargs["grid"] if "grid" in kwargs else args[2]
            count("grid_points", len(grid))
            branches = fn(*args, **kwargs)
            if branches:
                count("samples", len(branches[0].ts))
            return branches

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "wittenlab"):
        """Wrap the layer functions of an imported package in place."""
        import numpy as np

        modules = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == package
                                            or n.startswith(package + "."))]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if (layer, attr) in PANEL_COUNTERS:
                    wrappers[obj] = self.counter_wrapper(
                        PANEL_COUNTERS[(layer, attr)], obj)
                    continue
                if attr.startswith("_"):
                    if (layer, attr) not in PRIVATE_SPANS:
                        continue
                    name = PRIVATE_SPANS[(layer, attr)]
                else:
                    name = f"{layer}.{attr}"
                inner = obj
                if (layer, attr) == ("branches", "track_branches"):
                    # its counts land on the track_branches span itself
                    inner = self.track_wrapper(obj)
                wrappers[obj] = self.span_wrapper(name, inner)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.installed.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        eigh = np.linalg.eigh
        self.installed.append((np.linalg, "eigh", eigh))
        np.linalg.eigh = self.span_wrapper(EIGH_SPAN, eigh)

    def uninstall(self):
        for ns, attr, obj in reversed(self.installed):
            setattr(ns, attr, obj)
        self.installed.clear()

    # -- output ------------------------------------------------------------

    def document(self) -> dict:
        """All spans and counts, JSON-ready; integer nanoseconds from the first span."""
        counts = {}
        for (idx, key), n in sorted(self.counts.items()):
            counts.setdefault(str(idx), {})[key] = n
        t0 = self.span_start[0] if self.span_start else 0
        return {"names": self.names,
                "spans": {"name": self.span_name.tolist(),
                          "parent": self.span_parent.tolist(),
                          "start_ns": [t - t0 for t in self.span_start],
                          "end_ns": [t - t0 for t in self.span_end],
                          "work": self.span_work.tolist()},
                "counts": counts}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document(), fh, separators=(",", ":"))


# -- analysis of a trace document ------------------------------------------


class Trace:
    """Per-span durations, self times and ancestry of a trace document."""

    def __init__(self, doc: dict):
        sp = doc["spans"]
        self.names = doc["names"]
        self.name = sp["name"]
        self.parent = sp["parent"]
        self.work = sp["work"]
        self.dur = [e - s for s, e in zip(sp["start_ns"], sp["end_ns"])]
        child = [0] * len(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        self.counts = {int(k): v for k, v in doc["counts"].items()}
        self._indices = {}
        for i, n in enumerate(self.name):
            self._indices.setdefault(self.names[n], []).append(i)

    def indices(self, name: str) -> list:
        return self._indices.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.indices(name))

    def total_s(self, name: str) -> float:
        return sum(self.dur[i] for i in self.indices(name)) * 1e-9

    def self_s(self, name: str) -> float:
        return sum(self.self_ns[i] for i in self.indices(name)) * 1e-9

    def work_sum(self, name: str) -> int:
        return sum(self.work[i] for i in self.indices(name))

    def outer_total_s(self, names) -> float:
        """Time inside any of the named spans, nested ones counted once."""
        wanted = {self.names.index(n) for n in names if n in self.names}
        total = 0
        for n in names:
            for i in self.indices(n):
                if not self.has_ancestor(i, wanted):
                    total += self.dur[i]
        return total * 1e-9

    def has_ancestor(self, i: int, name_ids) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in name_ids:
                return True
            p = self.parent[p]
        return False

    def count_in(self, name: str, key: str) -> list:
        """The counter `key` of every span with this name, in span order."""
        return [self.counts.get(i, {}).get(key, 0) for i in self.indices(name)]

    def count_total(self, key: str) -> int:
        return sum(c.get(key, 0) for c in self.counts.values())

    def by_name(self) -> dict:
        """name -> (calls, total_s, self_s)."""
        out = {}
        for i, n in enumerate(self.name):
            c, tot, slf = out.get(n, (0, 0, 0))
            out[n] = (c + 1, tot + self.dur[i], slf + self.self_ns[i])
        return {self.names[n]: (c, tot * 1e-9, slf * 1e-9)
                for n, (c, tot, slf) in out.items()}

    def root_total_s(self) -> float:
        return sum(d for d, p in zip(self.dur, self.parent) if p < 0) * 1e-9

    def self_sum_s(self) -> float:
        return sum(self.self_ns) * 1e-9
