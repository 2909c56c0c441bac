"""Spans and counters around calls into hypkonvex, for the traced run only.

``Tracer.install()`` replaces each traced function, in every hypkonvex module
namespace that holds a reference to it, by a wrapper; ``uninstall()`` puts the
originals back.  Untraced runs never install it, so they carry no wrappers.
A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the benchmark operation that
caused it.  Spans stay in memory and are written once, by ``write()``.
"""

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("specfun", "shapes", "supportfn", "lorentz", "mobius", "limits", "verify", "shapedoc", "svgout", "cli")
SHAPE_CLASSES = ("Ellipse", "Segment", "Polygon")

# Functions traced under another name, private ones included for what they
# count.  A count-only wrapper opens no span, so the time stays with the
# caller (``eval_at`` keeps its interpolation time, ``form_A`` both routes).
RENAMED = {
    "specfun._agm_with_sum": "specfun.agm",
    "supportfn._interp": "supportfn.offgrid",
    "lorentz._form_exact": "lorentz.form_A.exact",
    "lorentz.form_A_spectral": "lorentz.form_A.spectral",
}
COUNT_ONLY = {"supportfn.offgrid", "lorentz.form_A.exact", "lorentz.form_A.spectral"}


def _offgrid_points(args, kwargs, result):
    theta = args[2] if len(args) > 2 else kwargs["theta"]
    return {"supportfn.offgrid.points": int(getattr(theta, "size", 1))}


def _combine_tagged(args, kwargs, result):
    return {"supportfn.combine.tagged": int(result.shape_tag is not None)}


def _svg_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"svgout.bytes": os.path.getsize(path)}


COUNTERS = {
    "supportfn.offgrid": _offgrid_points,
    "supportfn.combine": _combine_tagged,
    "svgout.write_svg": _svg_bytes,
}


def _suite_span(args, kwargs):
    return "verify.suite.%s" % (args[0] if args else kwargs["name"])


SPAN_NAMES = {"verify.run_suite": _suite_span}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.stack = []
        self.op = -1
        self._patches = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _count(self, name, args, kwargs, result):
        self.counts[name + ".calls"] += 1
        counter = COUNTERS.get(name)
        if counter:
            for key, v in counter(args, kwargs, result).items():
                self.counts[key] += v

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        naming = SPAN_NAMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (naming(args, kwargs) if naming else name, t0, t1, parent, self.op)
            self._count(name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(name, args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(function, traced name) for every function to wrap."""
        for short in MODULES:
            mod = importlib.import_module("hypkonvex." + short)
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                full = "%s.%s" % (short, attr)
                if attr.startswith("_") and full not in RENAMED:
                    continue
                yield obj, RENAMED.get(full, full)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for fn, name in self._targets():
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            wrapped[id(fn)] = (fn, make(name, fn))
        # Replace every reference, including names imported into other modules.
        namespaces = [importlib.import_module("hypkonvex")]
        namespaces += [importlib.import_module("hypkonvex." + m) for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        shapes = importlib.import_module("hypkonvex.shapes")
        for cls_name in SHAPE_CLASSES:
            cls = getattr(shapes, cls_name)
            self._patches.append((cls, "support", cls.support))
            cls.support = self._span_wrapper("shapes.support", cls.support)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reporting ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - c
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": names,
                    "spans": [[index[n], t0, t1, p, op] for n, t0, t1, p, op in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )
