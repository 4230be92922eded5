"""Per-layer tracing of the ``eichler`` package from outside.

The recorder rebinds each layer's public functions in every ``eichler.*``
namespace that holds the same function object (``from .x import y``
bindings copy the object, so rebinding the defining module alone would miss
most calls).  Two kinds of wrapper:

* a *span* (name, start, end, parent) for each driver-level call, kept in
  memory and written out when the run ends;
* for hot leaves, count and time are aggregated into the enclosing span
  instead, so millions of calls cost a few dict updates and no memory.

Self time is a call's duration minus the part its wrapped children cover;
calls nest strictly (one thread), so coverage is the sum of the children's
durations.  Nothing the wrapped functions return is touched.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time

# the package's modules, bottom-up; layer names are the module names
LAYERS = ("algebra", "specfun", "quadrature", "cocycles", "averages", "harmonic",
          "quantum", "cli")

# driver-level calls that get a span of their own; every other public
# function is a hot leaf whose calls are aggregated into the enclosing span
SPAN_LAYERS = frozenset({"cocycles", "averages", "quantum", "cli"})
SPAN_FUNCTIONS = frozenset({"contour_integral", "cauchy_formula", "q_lift"})


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "child", "agg")

    def __init__(self, sid, name, layer, start, parent):
        self.id = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0  # time covered by wrapped children
        self.agg = {}     # (layer, name) -> [calls, inclusive s, self s] of hot leaves

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "self_s": self.self_time,
                "leaves": [{"layer": k[0], "name": k[1], "calls": v[0],
                            "incl_s": v[1], "self_s": v[2]} for k, v in self.agg.items()]}


class Recorder:
    """Span recorder; `clock` is injectable so tests can drive it by hand."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        self._root = Span(0, "root", "bench", clock(), None)
        # child coverage of each active call; the span stack tracks the innermost span
        self._frames: list = [0.0]
        self._span_stack: list = [self._root]
        self._undo: list = []

    # -- wrappers -------------------------------------------------------

    def _enter_span(self, name, layer):
        parent = self._span_stack[-1]
        span = Span(len(self.spans) + 1, name, layer, self.clock(), parent.id)
        self.spans.append(span)
        self._span_stack.append(span)
        self._frames.append(0.0)

    def _exit_span(self):
        span = self._span_stack.pop()
        span.end = self.clock()
        span.child = self._frames.pop()
        self._frames[-1] += span.end - span.start

    @contextlib.contextmanager
    def span(self, name, layer="bench"):
        """Record one span around a block of harness code."""
        self._enter_span(name, layer)
        try:
            yield
        finally:
            self._exit_span()

    def wrap_span(self, fn, name, layer):
        enter, leave = self._enter_span, self._exit_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def wrap_hot(self, fn, name, layer):
        frames, span_stack, clock = self._frames, self._span_stack, self.clock
        key = (layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                own = dur - frames.pop()
                frames[-1] += dur
                agg = span_stack[-1].agg
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, dur, own]
                else:
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += own

        return wrapper

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- work counters that need to see arguments or results ------------

    def _counted(self, fn, key):
        counts = self.counts

        def counted(x, *args, **kwargs):
            # one per array element, so vectorising does not change the count
            counts[key] = counts.get(key, 0) + getattr(x, "size", 1)
            return fn(x, *args, **kwargs)

        return counted

    def _contour_integral(self, fn):
        counted = self._counted

        def contour_integral(f, *args, **kwargs):
            res = fn(counted(f, "quadrature.nodes"), *args, **kwargs)
            if not res.converged:
                self.count("quadrature.unconverged")
            return res

        return functools.wraps(fn)(contour_integral)

    def _one_sided_average(self, fn):
        counted = self._counted

        def one_sided_average(spec, *args, **kwargs):
            spec = dataclasses.replace(spec, g=counted(spec.g, "averages.terms"))
            return fn(spec, *args, **kwargs)

        return functools.wraps(fn)(one_sided_average)

    def _average_continued(self, fn):
        counted = self._counted

        def average_continued(h, *args, **kwargs):
            return fn(counted(h, "averages.terms"), *args, **kwargs)

        return functools.wraps(fn)(average_continued)

    # -- installation ---------------------------------------------------

    def install(self, package="eichler", layers=LAYERS):
        """Rebind the public functions of `package.<layer>` in every namespace."""
        counting = {"contour_integral": self._contour_integral,
                    "one_sided_average": self._one_sided_average,
                    "average_continued": self._average_continued}
        replace = {}
        for layer in layers:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name in _public_functions(mod):
                fn = getattr(mod, name)
                inner = counting[name](fn) if name in counting else fn
                if layer in SPAN_LAYERS or name in SPAN_FUNCTIONS:
                    replace[id(fn)] = (fn, self.wrap_span(inner, name, layer))
                else:
                    replace[id(fn)] = (fn, self.wrap_hot(inner, name, layer))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        return self

    def uninstall(self):
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    def __enter__(self):  # use as `with Recorder().install() as rec:`
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: calls, self seconds, and inclusive seconds of outermost calls.

        Also per function: calls and inclusive seconds, keyed "layer.name".
        """
        by_id = {s.id: s for s in self.spans}
        layers: dict = {}
        funcs: dict = {}

        def add(layer, calls, self_s):
            e = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
            e["calls"] += calls
            e["self_s"] += self_s

        for span in [self._root] + self.spans:
            if span is not self._root:
                add(span.layer, 1, span.self_time)
                f = funcs.setdefault(f"{span.layer}.{span.name}", [0, 0.0])
                f[0] += 1
                f[1] += span.end - span.start
                parent = by_id.get(span.parent)
                if parent is None or parent.layer != span.layer:
                    layers[span.layer]["outer_s"] += span.end - span.start
            for (layer, name), (calls, incl, self_s) in span.agg.items():
                add(layer, calls, self_s)
                f = funcs.setdefault(f"{layer}.{name}", [0, 0.0])
                f[0] += calls
                f[1] += incl
        return {"layers": layers, "functions": funcs}

    def dump(self) -> list:
        return [s.as_dict() for s in self.spans]


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(mod, n, None))
            and getattr(mod, n).__module__ == mod.__name__]
