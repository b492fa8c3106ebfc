"""Outside-in span tracing of the crmimo layers.

The tracer replaces each public function of the measured modules, at
every name it is bound to inside the ``crmimo`` package, by a wrapper
that records one span per call: name, start, end, parent span, the
benchmark operation it belongs to and the Monte Carlo trial index.
Because callers inside the package look those functions up through
their module globals, nested calls become child spans.  Nothing in the
package is edited; ``uninstall`` puts every original object back.

Spans live in compact typed arrays until the run ends and are then
summarised (self time, calls, median duration per function) and written
out.  ``CallCounter`` is the untraced counterpart: it counts calls of a
single binding, for workloads whose unit of work is decided inside the
program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# The layers of the package, in dependency order.  ``cli`` is a thin
# argparse/CSV front end over run_trials and max_sus_at_confidence and is
# not traced.
LAYERS = ("network", "beamforming", "power", "simplex", "specfun", "analytics", "montecarlo")

# Methods traced in addition to the functions listed in each __all__.
METHODS = {"montecarlo": ("EmpiricalCdf.ks_distance",)}

_MARK = "__perfbench_original__"


def package_modules(package: str = "crmimo"):
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def traced_targets(api) -> dict:
    """Map span name ("layer.function") to the original function object."""
    targets = {}
    for layer in LAYERS:
        module = getattr(api, layer)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                targets[f"{layer}.{attr}"] = obj
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            targets[f"{layer}.{path}"] = getattr(module, cls_name).__dict__[meth]
    return targets


def find_wrappers(package: str = "crmimo") -> list[str]:
    """Names of every binding in the package that still holds a wrapper."""
    found = []
    for module in package_modules(package):
        for attr, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{m}"
                          for m, f in vars(obj).items() if hasattr(f, _MARK)]
    return found


class Tracer:
    """Records spans around every traced function while installed.

    Attributes:
        op: identifier of the benchmark operation now running; spans
            record it so the spans of one operation can be grouped.
        names: span names, indexed by the name ids stored per span.
    """

    def __init__(self, api):
        self.api = api
        self.targets = traced_targets(api)
        self.names = list(self.targets)
        self.op = -1
        self._trial = -1
        self._stack: list[int] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("i")
        self.trial = array("i")
        self.start = array("q")
        self.end = array("q")
        self.lf_solves = 0
        self.lf_feasible = 0
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.name_id)

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_ids, parents, ops, trials = self.name_id, self.parent, self.op_id, self.trial
        starts, ends = self.start, self.end
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            trials.append(self._trial)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _observer(self, name):
        if name == "montecarlo.trial_seed":
            def set_trial(args, kwargs, result):
                self._trial = int(kwargs.get("index", args[1] if len(args) > 1 else -1))
            return set_trial
        if name in ("power.solve_lf_meb", "power.solve_lf_zfb"):
            def count_verdict(args, kwargs, result):
                self.lf_solves += 1
                self.lf_feasible += bool(result.feasible)
            return count_verdict
        return None

    def install(self):
        """Replace every binding of every traced function by its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets.items()}
        for module in package_modules(self.api.__name__):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for layer, paths in METHODS.items():
            for path in paths:
                cls_name, meth = path.split(".")
                cls = getattr(getattr(self.api, layer), cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, wrappers[id(original)])

    def uninstall(self):
        """Put every original object back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self) -> dict:
        """The recorded spans as numpy columns."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def summarize(spans: dict, names: list[str]) -> dict:
    """Per-function totals from span columns.

    Self time is a span's duration minus the durations of its direct
    children.  Returns ``(functions, tree)``: {name: {"calls",
    "total_ns", "self_ns", "us_p50"}} for every name, and the span-tree
    checks: root time, total self time, the worst overhang of a child
    past its parent and the most negative self time (the last two are 0
    for a well-formed tree).
    """
    dur = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    nid = spans["name_id"]
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child_ns.astype(np.int64)
    escape = 0
    if has_parent.any():
        p = parent[has_parent]
        escape = int(max(
            (spans["start_ns"][p] - spans["start_ns"][has_parent]).max(),
            (spans["end_ns"][has_parent] - spans["end_ns"][p]).max(),
            0,
        ))
    tree = {
        "root_ns": int(dur[~has_parent].sum()),
        "self_total_ns": int(self_ns.sum()),
        "escape_ns": escape,
        "min_self_ns": int(self_ns.min()) if dur.size else 0,
    }
    functions = {}
    for i, name in enumerate(names):
        sel = nid == i
        d = dur[sel]
        functions[name] = {
            "calls": int(sel.sum()),
            "total_ns": int(d.sum()),
            "self_ns": int(self_ns[sel].sum()),
            "us_p50": float(np.median(d)) / 1e3 if d.size else 0.0,
        }
    return functions, tree


class CallCounter:
    """Counts calls through one module binding, and sums an argument.

    Used with tracing off: the wrapper only increments two integers, so
    it does not time anything and costs well under a microsecond a call.
    """

    def __init__(self, module, attr: str, arg: str):
        self.module, self.attr, self.arg = module, attr, arg
        self.calls = 0
        self.total = 0
        self._original = None

    def __enter__(self):
        self._original = fn = getattr(self.module, self.attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls += 1
            self.total += int(sig.bind(*args, **kwargs).arguments[self.arg])
            return fn(*args, **kwargs)

        setattr(counted, _MARK, fn)
        setattr(self.module, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self._original)
        return False
