"""Span tracer for defectlab, installed from outside the package.

`Tracer.install()` replaces the public functions and methods of each
defectlab module with wrappers, in every module namespace that holds a
reference to them, so calls between modules are traced too. Each call
becomes a span (name, start, end, parent) kept in flat in-memory arrays;
`Tracer.dump()` writes them when the invocation ends. `summarize()` turns
the spans and counters of one invocation into per-layer self times.

Nothing under `src/` is modified: the wrappers exist only inside the
traced child process.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("exact", "families", "indexsets", "mixed", "topology", "reports", "cli")

# Private kernels that are traced as well, because a per-layer metric
# counts them: every Gram system is factored by `_solve` or `_solve_multi`
# (`families._solve_gram` re-imports `exact._solve` at call time, so the
# dual-basis solves are counted too), and `_generate` is the
# RandomFiniteFamily construction.
PRIVATE = {
    "exact": ("_solve", "_solve_multi", "_bareiss_rank", "_rref"),
    "families": ("_solve_gram", "_generate"),
}

# Span names (module-relative) that make up the sub-layer groups.
GROUPS = {
    "exact.solve": {"dist_sq", "dist_sq_many", "project_coefficients", "project",
                    "_solve", "_solve_multi"},
    "exact.rank": {"rank", "rank_of_vectors", "_bareiss_rank"},
    "exact.independent_subset": {"independent_subset"},
    "exact.complement": {"complement_basis", "intersect", "_rref"},
    "families.random_build": {"RandomFiniteFamily._generate"},
}

SET_OPS = {"union", "intersection", "difference", "symmetric_difference", "complement"}

COUNTS = (
    "exact.gram_solves", "exact.gram_entries", "exact.rank.calls",
    "exact.independent_offered", "exact.independent_kept",
    "families.vector_calls", "indexsets.set_ops", "mixed.decay_cells",
    "topology.sqrt_enclosures", "topology.target_projections", "reports.bytes",
)


def _add(key, amount=lambda args, result: 1):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _counter_for(qualname: str):
    """The counter update, if any, that a call of this span name makes."""
    layer, _, name = qualname.partition(".")
    short = name.rsplit(".", 1)[-1]
    if layer == "exact":
        if name in ("_solve", "_solve_multi"):
            return _add("exact.gram_solves")
        if name == "gram":
            return _add("exact.gram_entries", lambda a, r: len(a[0]) * (len(a[0]) + 1) // 2)
        if name in ("rank", "rank_of_vectors"):
            return _add("exact.rank.calls")
        if name == "independent_subset":
            def count(counts, args, result):
                counts["exact.independent_offered"] += len(args[0])
                counts["exact.independent_kept"] += len(result)
            return count
        if name == "project":
            return _add("topology.target_projections")
    if layer == "families" and short in ("vector", "dual"):
        return _add("families.vector_calls")
    if layer == "indexsets" and short in SET_OPS:
        return _add("indexsets.set_ops")
    if layer == "mixed" and name == "distance_profile":
        return _add("mixed.decay_cells", lambda a, r: len(r))
    if layer == "topology" and name == "sqrt_enclosure":
        return _add("topology.sqrt_enclosures")
    if layer == "reports" and name in ("dump_json", "decay_csv", "table_csv"):
        return _add("reports.bytes", lambda a, r: len(r.encode()))
    return None


class Tracer:
    """Collects spans and counters for one CLI invocation."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter({key: 0 for key in COUNTS})

    def _wrap(self, qualname: str, fn):
        nid = self.name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        counter = _counter_for(qualname)
        clock, stack, counts = time.perf_counter, self.stack, self.counts
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {layer: importlib.import_module(f"defectlab.{layer}") for layer in LAYERS}
        package = importlib.import_module("defectlab")
        replaced = {}
        for layer, mod in modules.items():
            extra = PRIVATE.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                        not name.startswith("_") or name in extra):
                    replaced[obj] = self._wrap(f"{layer}.{name}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not name.startswith("_")):
                    self._wrap_methods(layer, obj, extra)
        # Rebind in every namespace that imported the originals.
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def _wrap_methods(self, layer: str, cls, extra) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") or (name.startswith("_") and name not in extra):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(qual, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(qual, attr))

    def dump(self, base: str, import_s: float) -> None:
        """Write the spans (binary arrays) and a JSON header next to them."""
        with open(base + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {"names": self.names, "spans": len(self.span_start),
                  "counts": dict(self.counts), "import_s": import_s}
        with open(base + ".json", "w") as fh:
            json.dump(header, fh)


def load(base: str):
    """Read back (header, names, parents, starts, ends) written by dump()."""
    with open(base + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = [array("l"), array("l"), array("d"), array("d")]
    with open(base + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (header, *arrays)


def summarize(base: str) -> dict:
    """Self time per layer and group, plus counters, for one invocation."""
    header, names, parents, starts, ends = load(base)
    n = header["spans"]
    child_time = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_time[p] += ends[i] - starts[i]
    self_by_name = [0.0] * len(header["names"])
    for i in range(n):
        self_by_name[names[i]] += ends[i] - starts[i] - child_time[i]
    out = Counter()
    for qualname, self_s in zip(header["names"], self_by_name):
        layer, _, name = qualname.partition(".")
        out[f"{layer}.self_s"] += self_s
        for group, members in GROUPS.items():
            if group.startswith(layer + ".") and name in members:
                out[f"{group}.self_s"] += self_s
    out.update(header["counts"])
    out["trace.spans"] += n
    out["cli.import_s"] += header["import_s"]
    return out
