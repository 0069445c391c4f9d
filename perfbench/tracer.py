"""Per-layer spans and counts, recorded around the library's functions.

``Tracer.install`` replaces each listed function by a wrapper wherever an
lcgraph module holds it: the defining module, the modules that imported
it and the package namespace.  Series arithmetic is wrapped on the
``LCNumber`` class.  A wrapper records, per metric name,

* ``calls``;
* ``s``: busy time, counted once for nested calls of the same function;
* ``self_s``: time not spent inside another wrapped function.

Spans of the coarse layers (everything but series arithmetic) are kept
with their parent span and operation id for the trace file; series
operations run in the millions and are only counted.  A listed function
that the library no longer has is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# metric name -> (module, attribute); "LCNumber.x" wraps a class attribute
TIMED = {
    "series.mul": ("series", ("LCNumber.__mul__", "LCNumber.__rmul__")),
    "series.add": ("series", ("LCNumber.__add__", "LCNumber.__radd__")),
    "series.inverse": ("series", ("LCNumber.inverse",)),
    "series.sqrt": ("series", ("LCNumber.sqrt",)),
    "series.pow": ("series", ("LCNumber.__pow__",)),
    "graphs.parse_graph": ("graphs", ("parse_graph",)),
    "operators.apply": ("operators", ("apply",)),
    "operators.inner": ("operators", ("inner",)),
    "operators.probability_matrix": ("operators", ("probability_matrix",)),
    "realroots.real_roots": ("realroots", ("real_roots",)),
    "spectral.char_poly": ("spectral", ("char_poly",)),
    "spectral.lift_roots": ("spectral", ("lift_roots",)),
    "spectral.nullspace_basis": ("spectral", ("nullspace_basis",)),
    "spectral.compute_spectrum": ("spectral", ("compute_spectrum",)),
    "spectral.verify_spectral_theorems": ("spectral", ("verify_spectral_theorems",)),
    "cheeger.cheeger_constant": ("cheeger", ("cheeger_constant",)),
    "cheeger.cheeger_inequality_check": ("cheeger", ("cheeger_inequality_check",)),
    "walks.iterate": ("walks", ("iterate",)),
    "walks.h_convergence_verdict": ("walks", ("h_convergence_verdict",)),
}
SERIES = {"series.mul", "series.add", "series.inverse", "series.sqrt", "series.pow"}
COUNTS = ("series.max_terms", "spectral.decompose_attempts",
          "spectral.lift_roots.numeric_results", "cheeger.subsets", "walks.steps")


# every workload calls these, so their times are never a constant zero;
# the trace file has the times of all the others too
TIMED_EVERYWHERE = ("series.mul", "series.add", "series.inverse",
                    "graphs.parse_graph", "cheeger.cheeger_constant")


def reported_names():
    """The per-layer metrics a traced run prints, as BENCHMARK.json lists them."""
    names = [f"{name}.calls" for name in TIMED]
    for name in TIMED_EVERYWHERE:
        names += [f"{name}.s", f"{name}.self_s"]
    return names + list(COUNTS)


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in TIMED}
        self.busy = {name: 0.0 for name in TIMED}
        self.self_time = {name: 0.0 for name in TIMED}
        self.counts = {name: 0 for name in COUNTS}
        self.absent = []
        self.spans = []           # [op, name, start, end, parent]
        self.op = None
        self._stack = []          # [name, start, child time, span index]
        self._depth = {name: 0 for name in TIMED}
        self._restore = []

    # -- installation -----------------------------------------------------------

    def install(self, package):
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        self.absent = []
        for name, (module_name, attrs) in TIMED.items():
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            found = False
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = module
                if owner is not None and owner_name:
                    owner = getattr(module, owner_name, None)
                original = getattr(owner, fn_name, None) if owner is not None else None
                if original is None:
                    continue
                found = True
                wrapped = self._wrap(name, original)
                if owner_name:
                    self._patch(owner, fn_name, original, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)
            if not found:
                self.absent.append(name)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        keep_span = name not in SERIES
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        calls, busy, self_time = self.calls, self.busy, self.self_time
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = None
            if keep_span:
                span = len(spans)
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                spans.append([self.op, name, 0.0, 0.0, parent])
            frame = [name, 0.0, 0.0, span]
            stack.append(frame)
            depth[name] += 1
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                self_time[name] += elapsed - frame[2]
                if depth[name] == 0:
                    busy[name] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                if span is not None:
                    spans[span][2:4] = [start, end]
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    # -- results ----------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.busy[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out


def _observe_series(tracer, args, result):
    terms = getattr(result, "terms", None)
    if terms is not None and len(terms) > tracer.counts["series.max_terms"]:
        tracer.counts["series.max_terms"] = len(terms)


def _observe_spectrum(tracer, args, spec):
    # log2(work_order / trunc_order): 1 when the first working order served
    ratio = spec.work_order / spec.trunc_order
    tracer.counts["spectral.decompose_attempts"] += round(math.log2(ratio))


def _observe_lift(tracer, args, roots):
    p = args[0]
    if p.mode != "numeric" and any(r.mode == "numeric" for r in roots):
        tracer.counts["spectral.lift_roots.numeric_results"] += 1


def _observe_cheeger(tracer, args, cut):
    tracer.counts["cheeger.subsets"] += (1 << (args[0].n - 1)) - 1


def _observe_iterate(tracer, args, report):
    tracer.counts["walks.steps"] += len(report.steps)


_OBSERVERS = {
    "series.mul": _observe_series,
    "series.add": _observe_series,
    "series.inverse": _observe_series,
    "series.sqrt": _observe_series,
    "spectral.compute_spectrum": _observe_spectrum,
    "spectral.lift_roots": _observe_lift,
    "cheeger.cheeger_constant": _observe_cheeger,
    "walks.iterate": _observe_iterate,
}
