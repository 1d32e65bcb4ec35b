"""Span tracer that wraps korbits' public functions from outside the
package.

Every wrapped call becomes a span (name, start, end, parent span, op
id), kept in flat in-memory lists and written out once at the end.
Per-element helpers that run millions of times per workload are only
counted, so the trace stays small.  A span's self time is its duration
minus the durations of its direct children.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

LAYER_MODULES = ("_backend", "perm", "partition", "group", "subgroups",
                 "korbit", "catalog", "propcheck", "fks")

# Public helpers called once per point, tuple or element: counted, not
# spanned.
COUNTED = {"check_ktuple", "left_act", "right_act", "analyze_element",
           "perm_to_row", "row_to_perm", "encode_rows", "powers_for",
           "decode_key", "parse_permutation"}


def layer_name(module_name):
    """'korbits._backend' -> 'backend'."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _assign(obj, attr, value):
    # frozen dataclass instances refuse plain setattr; classes need
    # type.__setattr__
    setter = type.__setattr__ if isinstance(obj, type) else object.__setattr__
    setter(obj, attr, value)


def _rows_out(res):
    return int(res.shape[0])


def _tuples_out(res):
    return int(res[0].shape[0])


class Tracer:
    """Records spans and counts for one process; `install` patches the
    korbits modules, `uninstall` puts the originals back."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts, self.ends, self.names, self.parents, self.ops = \
            [], [], [], [], []
        self.stack = []
        self.name_ids = {}
        self.op_ids = {}
        self.op = self.op_id("")
        self.counts = {}
        self.outputs = {}
        self.caches = {}
        self._undo = []

    # -- identifiers --------------------------------------------------------

    def name_id(self, name):
        return self.name_ids.setdefault(name, len(self.name_ids))

    def op_id(self, op):
        return self.op_ids.setdefault(op, len(self.op_ids))

    # -- spans --------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.names.append(nid)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx):
        self.ends[idx] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self, op):
        """The root span of one benchmark operation."""
        self.op = self.op_id(op)
        idx = self._open(self.name_id("op"))
        try:
            yield
        finally:
            self._close(idx)
            self.op = self.op_id("")

    def spanned(self, name, fn, output=None):
        """Wrap `fn` in a span; `output(result)` adds to `name`.out, for
        a cached `fn` only on cache misses."""
        nid = self.name_id(name)
        if output is None:
            def wrapper(*args, **kwargs):
                idx = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        else:
            cell = self.outputs.setdefault(name, [0])
            misses = getattr(fn, "cache_info", None)

            def wrapper(*args, **kwargs):
                before = misses().misses if misses else 0
                idx = self._open(nid)
                try:
                    res = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if not misses or misses().misses > before:
                    cell[0] += output(res)
                return res

        return functools.wraps(fn)(wrapper)

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        _assign(obj, attr, value)

    def _patch_everywhere(self, original, replacement):
        """Rebind `original` in every korbits module that holds it by
        name (`from .group import close_group` makes a second binding)."""
        for mod in [m for n, m in sys.modules.items()
                    if n == "korbits" or n.startswith("korbits.")]:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)

    def install(self):
        from korbits import catalog, korbit, perm, propcheck

        special = {"closure_images": _rows_out, "tuple_orbits": _tuples_out,
                   "subgroup_classes": len}
        for short in LAYER_MODULES:
            mod = sys.modules[f"korbits.{short}"]
            layer = layer_name(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                cached = hasattr(obj, "cache_info")
                if cached:
                    self.caches[attr] = obj
                elif not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                name = f"{layer}.{attr}"
                if attr in COUNTED:
                    wrapper = self.counted(f"{name}.calls", obj)
                else:
                    wrapper = self.spanned(name, obj, special.get(attr))
                self._patch_everywhere(obj, wrapper)

        for cls in (korbit.KSet, perm.Permutation):
            name = f"{layer_name(cls.__module__)}.{cls.__name__}.constructions"
            self._set(cls, "__init__", self.counted(name, cls.__init__))

        for check in propcheck._REGISTRY:
            self._set(check, "evaluate",
                      self._evaluator(check.check_id, check.evaluate))

        group_of_entry = catalog.CatalogEntry.group

        def entry_group(entry):
            self.op = self.op_id(f"suite6/{entry.entry_id}")
            return group_of_entry(entry)

        self._set(catalog.CatalogEntry, "group", entry_group)

    def _evaluator(self, check_id, evaluate):
        span = self.spanned(f"propcheck.{check_id}", evaluate)

        def wrapper(ctx, caps):
            outer = self.op
            self.op = self.op_id(f"suite6/{ctx.get('group_id')}/{check_id}")
            try:
                return span(ctx, caps)
            finally:
                self.op = outer

        return wrapper

    def uninstall(self):
        while self._undo:
            _assign(*self._undo.pop())

    # -- results ------------------------------------------------------------

    def arrays(self):
        return {"start": np.array(self.starts, dtype=np.float64),
                "end": np.array(self.ends, dtype=np.float64),
                "name": np.array(self.names, dtype=np.int32),
                "parent": np.array(self.parents, dtype=np.int64),
                "op": np.array(self.ops, dtype=np.int32)}

    @staticmethod
    def self_times(a):
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        return dur - child

    def layers(self):
        """{metric name: value} for every span name and counter."""
        a = self.arrays()
        self_s = self.self_times(a)
        names = sorted(self.name_ids, key=self.name_ids.get)
        calls = np.bincount(a["name"], minlength=len(names))
        busy = np.bincount(a["name"], weights=self_s, minlength=len(names))
        out = {}
        for nid, name in enumerate(names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(busy[nid])
        out.update((name, cell[0]) for name, cell in self.counts.items())
        out.update((f"{name}.out", cell[0])
                   for name, cell in self.outputs.items())
        # closure calls made under a subgroup_classes span, at any depth
        classes = self.name_ids.get("subgroups.subgroup_classes")
        closure = self.name_ids.get("backend.closure_images")
        inside = []
        closures = 0
        for nid, parent in zip(self.names, self.parents):
            inside.append(nid == classes or (parent >= 0 and inside[parent]))
            closures += inside[-1] and nid == closure
        out["subgroups.closures_in_classes"] = closures
        for attr, fn in self.caches.items():
            info = fn.cache_info()
            out[f"cache.{attr}.hits"] = info.hits
            out[f"cache.{attr}.misses"] = info.misses
        return out

    def dump(self, path):
        """Write every span, with the name and op tables, to `path`."""
        a = self.arrays()
        names = sorted(self.name_ids, key=self.name_ids.get)
        ops = sorted(self.op_ids, key=self.op_ids.get)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(json.dumps(names)),
                     ops=np.array(json.dumps(ops)), **a)
