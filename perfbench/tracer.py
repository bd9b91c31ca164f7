"""Outside-in span tracer for fraclim's seven layers.

``Tracer.install`` replaces every public function of the layer modules (each
module's ``__all__``, plus ``kernels.product_quad_uniform``) at every binding
in the loaded ``fraclim.*`` modules, so cross-layer calls such as fracderiv's
imported ``product_quad_uniform`` are seen too.  ``uninstall`` restores the
original bindings.  A span records its name, layer, start, end, parent span
and thread; a layer's self time is its spans' time minus their children's.
Spans are kept for one call at a time and folded into ``LayerStats``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict, namedtuple

LAYERS = ("cli", "lfd", "leibniz", "fracderiv", "kernels", "funcmodel", "specfun")

Span = namedtuple("Span", "idx parent name layer t0 t1 thread error info")


def _kernel_shape(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    mu = args[2] if len(args) > 2 else kwargs["mu"]
    return len(values) - 1, float(mu)


def _derivative_key(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return f, int(k)


def _points(args, kwargs, result):
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    return len(xs)


def _scan_counts(args, kwargs, result):
    usable = [s for s in result.samples if s.usable]
    fit = [s for s in usable if abs(s.value) > 10.0 * s.est_error]
    return len(result.samples), len(usable), len(fit)


# Small facts taken from a span's arguments or result, by span name.
_INFO = {
    "kernels.product_quad_uniform": _kernel_shape,
    "funcmodel.derivative": _derivative_key,
    "funcmodel.evaluate_many": _points,
    "lfd.lfd_report": _scan_counts,
    "leibniz.symmetrized_series": lambda args, kwargs, result: result.nonconvergent,
}


def _method(args, kwargs, result):
    return getattr(result, "method", None)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _wrap(self, fn, name, layer):
        info_of = _INFO.get(name, _method if layer == "fracderiv" else None)
        local, ids, spans, clock = self._local, self._ids, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = next(ids)
            parent = stack[-1] if stack else None
            stack.append(idx)
            error = result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                info = None
                if info_of is not None and error is None:
                    info = info_of(args, kwargs, result)
                spans.append(Span(idx, parent, name, layer, t0, t1,
                                  threading.get_ident(), error, info))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fraclim.{layer}")
            names = list(getattr(mod, "__all__", ()))
            if layer == "kernels":
                names.append("product_quad_uniform")
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer))
        for modname, mod in list(sys.modules.items()):
            if modname != "fraclim" and not modname.startswith("fraclim."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def take(self) -> list:
        """The finished spans since the last take, oldest first."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> dict:
    """idx -> span duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.t1 - s.t0
    return {s.idx: (s.t1 - s.t0) - child[s.idx] for s in spans}


class LayerStats:
    """Per-layer sums over traced calls; ``metrics`` divides them per call."""

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.outside = 0.0
        self.main_self = 0.0
        self.min_self = 0.0
        self.parse_s = 0.0
        self.parse_units = 0
        self.self_s = Counter()
        self.n = Counter()
        self.t = Counter()
        self.report_s = []

    def add_parse(self, spans, units: int):
        """Fold the spans of parsing ``units`` calls' inputs ahead of the calls."""
        self.parse_s += sum(s.t1 - s.t0 for s in spans if s.name == "funcmodel.parse_expr")
        self.parse_units += units

    def add_call(self, spans, wall: float, main_thread: int):
        """Fold one traced call's spans; ``wall`` is the call's outside time."""
        self.calls += 1
        self.wall += wall
        own = self_times(spans)
        layer_of = {s.idx: s.layer for s in spans}
        shapes, keys = set(), set()
        parsed = False
        for s in spans:
            d = s.t1 - s.t0
            self.self_s[s.layer] += own[s.idx]
            self.min_self = min(self.min_self, own[s.idx])
            if s.thread == main_thread:
                self.main_self += own[s.idx]
                if s.parent is None:
                    self.outside -= d
            if s.name == "funcmodel.parse_expr":
                self.parse_s += d
                parsed = True
            if s.layer == "kernels":
                self.n["kernel_calls"] += 1
                self.t["kernel"] += d
                if s.info is not None:
                    self.n["nodes"] += s.info[0]
                    shapes.add(s.info)
            elif s.layer == "specfun":
                self.n["specfun_calls"] += 1
            elif s.name == "funcmodel.derivative":
                self.n["derivative_calls"] += 1
                if s.info is not None:
                    keys.add(s.info)
            elif s.name == "funcmodel.evaluate_many" and s.info is not None:
                self.n["points"] += s.info
            elif s.name == "lfd.lfd_report":
                self.report_s.append(d)
                self.t["report"] += d
                if s.info is not None:
                    for key, v in zip(("samples", "usable", "fit"), s.info):
                        self.n[key] += v
            elif s.name == "lfd.lfd_classify":
                self.t["classify"] += d
            elif s.name == "leibniz.symmetrized_series":
                self.n["series"] += 1
                self.n["nonconvergent"] += bool(s.info)
            if s.layer == "fracderiv":
                if s.name == "fracderiv.caputo_quadrature_fn":
                    self.n["quad"] += 1
                elif s.name == "fracderiv.fractional_integral_fn":
                    self.n["integral"] += 1
                elif s.name == "fracderiv.rl_caputo_bridge":
                    self.n["bridge"] += 1
                if layer_of.get(s.parent) != "fracderiv":
                    if s.error is not None:
                        self.n["fracderiv_errors"] += 1
                    elif s.info is not None:
                        self.n["results"] += 1
                        self.n["closed"] += s.info == "ClosedForm"
        self.outside += wall
        self.parse_units += parsed
        self.n["shapes"] += len(shapes)
        self.n["distinct_derivatives"] += len(keys)

    def metrics(self, overhead_ratio: float) -> dict:
        c = max(self.calls, 1)
        n, t = self.n, self.t

        def ratio(num, den):
            return num / den if den else 0.0

        def ms(seconds):
            return 1e3 * seconds / c

        return {
            "kernels.calls": (n["kernel_calls"] / c, "count"),
            "kernels.ms": (ms(t["kernel"]), "ms"),
            "kernels.ns_per_node": (1e9 * ratio(t["kernel"], n["nodes"]), "ns"),
            "kernels.nodes": (n["nodes"] / c, "count"),
            "kernels.shapes": (n["shapes"] / c, "count"),
            "kernels.reuse_ratio": (1.0 - ratio(n["shapes"], n["kernel_calls"]), "ratio"),
            "funcmodel.self_ms": (ms(self.self_s["funcmodel"]), "ms"),
            "funcmodel.derivative_calls": (n["derivative_calls"] / c, "count"),
            "funcmodel.derivative_repeat_ratio": (
                1.0 - ratio(n["distinct_derivatives"], n["derivative_calls"]), "ratio"),
            "funcmodel.evaluate_many_points": (n["points"] / c, "count"),
            "funcmodel.parse_ms": (1e3 * ratio(self.parse_s, self.parse_units), "ms"),
            "specfun.calls": (n["specfun_calls"] / c, "count"),
            "specfun.ms": (ms(self.self_s["specfun"]), "ms"),
            "lfd.report_ms_p50": (
                1e3 * statistics.median(self.report_s) if self.report_s else 0.0, "ms"),
            "lfd.self_ms": (ms(self.self_s["lfd"]), "ms"),
            "lfd.classify_ms": (ms(t["classify"]), "ms"),
            "lfd.usable_ratio": (ratio(n["usable"], n["samples"]), "ratio"),
            "lfd.fit_ratio": (ratio(n["fit"], n["samples"]), "ratio"),
            "fracderiv.self_ms": (ms(self.self_s["fracderiv"]), "ms"),
            "fracderiv.closed_share": (ratio(n["closed"], n["results"]), "ratio"),
            "fracderiv.quad_calls": (n["quad"] / c, "count"),
            "fracderiv.integral_calls": (n["integral"] / c, "count"),
            "fracderiv.bridge_calls": (n["bridge"] / c, "count"),
            "fracderiv.errors": (n["fracderiv_errors"] / c, "count"),
            "leibniz.self_ms": (ms(self.self_s["leibniz"]), "ms"),
            "leibniz.nonconvergent_ratio": (ratio(n["nonconvergent"], n["series"]), "ratio"),
            "cli.self_ms": (ms(self.self_s["cli"]), "ms"),
            "cli.parallelism": (ratio(t["report"], self.wall), "ratio"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def accounting(self) -> dict:
        """Main-thread self times plus time outside spans against call wall.

        Pool threads add their own busy time on top of the calling thread's
        wall, so only the calling thread's spans enter the sum."""
        return {"wall_s": self.wall, "main_self_s": self.main_self,
                "outside_s": self.outside, "min_self_s": self.min_self}
