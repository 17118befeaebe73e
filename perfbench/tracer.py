"""Outside-in layer tracing for the equimin benchmark.

The tracer wraps the public functions of each layer module, and a few
methods that the per-layer metrics name, and records one span per call.
A function is wrapped at every module attribute and every module-level
dict entry it can be looked up through: `cli` imports `newton_correct`
by name, `surface` and `solver` import `integrate_form` by name, and
`cli` builds gallery entries through the `GALLERY` dict.  Patching only
the defining module would miss those calls.

Spans are kept in memory as lists
``[name, start, end, parent, op, error, count]`` and written out when
the run ends.  The program runs on one thread (EQUIMIN_THREADS unset),
so a single span stack gives each span its parent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "gallery", "solver", "periods", "wdata", "surface",
          "domain", "symgroup")

# Methods the per-layer metrics name.  Other methods count toward the
# self time of the function that calls them.
METHODS = {
    "wdata": {"WeierstrassData": ("f_theta",)},
    "surface": {"ImmersionField": ("evaluate", "evaluate_many",
                                   "evaluate_stencil")},
    "solver": {"SprayFamily": ("periods_at", "jacobian_columns",
                               "dependencies")},
}

NAME, START, END, PARENT, OP, ERROR, COUNT = range(7)


def _count_points(span, args, kwargs):
    z = args[1] if len(args) > 1 else kwargs["z"]
    span[COUNT] = int(np.size(z))
    return args, kwargs


def _count_panels(span, args, kwargs):
    """Wrap the integrand passed to integrate_vector: one call is one
    GK15 panel; the points are the nodes it is evaluated at."""
    if not args:
        return args, kwargs
    h = args[0]
    tally = span[COUNT] = [0, 0]

    def counted(s):
        tally[0] += 1
        tally[1] += int(np.size(s))
        return h(s)

    return (counted,) + tuple(args[1:]), kwargs


def _record_iterations(span, args, kwargs, out):
    span[COUNT] = int(getattr(out, "iterations", 0))


def _record_report_bytes(span, args, kwargs, out):
    span[COUNT] = os.path.getsize(out)


def _record_mesh_bytes(span, args, kwargs, out):
    out_dir = args[2] if len(args) > 2 else kwargs["out_dir"]
    span[COUNT] = sum(os.path.getsize(os.path.join(out_dir, name))
                      for name in out["files"])


PRE_HOOKS = {
    "wdata.f_theta": _count_points,
    "surface.evaluate_many": _count_points,
    "periods.integrate_vector": _count_panels,
}
POST_HOOKS = {
    "solver.newton_correct": _record_iterations,
    "cli.write_report": _record_report_bytes,
    "surface.mesh_export": _record_mesh_bytes,
}


class Tracer:
    """Span recorder plus the install/restore of the layer wrappers."""

    def __init__(self):
        self.spans = []
        self.ops = []            # per op: {"pass", "kind", "label"}
        self.op = -1
        self._stack = []
        self._saved = []         # (restore callable) in install order
        self._wrappers = {}      # id(original) -> (original, wrapper)

    # -- spans -------------------------------------------------------------

    def begin_op(self, pass_index: int, kind: str, label: str) -> None:
        self.ops.append({"pass": pass_index, "kind": kind, "label": label})
        self.op = len(self.ops) - 1

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    None, None]
            stack.append(len(spans))
            spans.append(span)
            if pre is not None:
                args, kwargs = pre(span, args, kwargs)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if post is not None:
                post(span, args, kwargs, out)
            return out

        traced.perfbench_span = name
        return traced

    # -- install / restore -------------------------------------------------

    def install(self, package: str = "equimin") -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._wrappers = {}
        try:
            for layer in LAYERS:
                mod = sys.modules[f"{package}.{layer}"]
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == mod.__name__):
                        self._wrappers[id(obj)] = (obj, self._wrap(
                            f"{layer}.{attr}", obj))
                # a class or method the program no longer has just records
                # no spans
                for cls_name, methods in METHODS.get(layer, {}).items():
                    cls = getattr(mod, cls_name, None)
                    for meth in methods:
                        orig = vars(cls).get(meth) if cls else None
                        if not inspect.isfunction(orig):
                            continue
                        setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))
                        self._saved.append(functools.partial(
                            setattr, cls, meth, orig))
            mods = [m for n, m in sorted(sys.modules.items())
                    if n == package or n.startswith(package + ".")]
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if attr.startswith("__"):
                        continue
                    self._patch(mod.__dict__, attr, val, setattr_on=mod)
                    if isinstance(val, dict):
                        for key, item in list(val.items()):
                            self._patch(val, key, item)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, table, key, val, setattr_on=None):
        hit = self._wrappers.get(id(val))
        if hit is None or hit[0] is not val:
            return
        orig, wrapper = hit
        if setattr_on is not None:
            setattr(setattr_on, key, wrapper)
            self._saved.append(functools.partial(setattr, setattr_on, key, orig))
        else:
            table[key] = wrapper
            self._saved.append(functools.partial(table.__setitem__, key, orig))

    def uninstall(self) -> None:
        while self._saved:
            self._saved.pop()()
        self._wrappers = {}
        self.op = -1

    # -- output ------------------------------------------------------------

    def write(self, path: str, meta: dict) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP], s[ERROR],
                 s[COUNT]] for s in self.spans]
        blob = {"meta": meta, "names": names, "ops": self.ops,
                "columns": ["name", "start", "end", "parent", "op", "error",
                            "count"],
                "spans": rows}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(blob, fh, separators=(",", ":"))


def leftover_wrappers(package: str = "equimin") -> list:
    """Module attributes, dict entries and methods that still hold a
    wrapper; empty once every tracer is uninstalled."""
    bad = []
    for n, mod in sorted(sys.modules.items()):
        if n != package and not n.startswith(package + "."):
            continue
        for attr, val in vars(mod).items():
            items = [(attr, val)]
            if isinstance(val, dict):
                items += [(f"{attr}[{k!r}]", v) for k, v in val.items()]
            if inspect.isclass(val):
                items += [(f"{attr}.{k}", v) for k, v in vars(val).items()]
            bad += [f"{n}.{a}" for a, v in items
                    if hasattr(v, "perfbench_span")]
    return bad


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
