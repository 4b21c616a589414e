"""Per-layer tracer that wraps d2dcache's public functions from outside.

Each function named in ``layers.json`` is replaced, in every d2dcache module
namespace that binds it, by a wrapper that records a span: its name, start,
end, and the span that caused it.  ``cli``, ``optimize``, ``load`` and
``montecarlo`` import functions by name, so patching only the defining
module would miss their calls.

Spans live on a thread-local stack.  A span opened in another thread with an
empty stack (the sweep's worker pool) attaches to the innermost span open in
the thread that installed the tracer: with one op in flight, that span is
the call that started the pool.  Spans are reduced to per-name totals when
each op ends, so memory does not grow with the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from pathlib import Path

LAYERS = json.loads((Path(__file__).with_name("layers.json")).read_text())
SPANS = tuple(LAYERS["spans"])
WAIT_SPANS = tuple(LAYERS["wait"])
DISTINCT_SPANS = {name: tuple(spec["key"]) for name, spec in LAYERS["distinct"].items()}
TRIALS_SPAN = "montecarlo.estimate_average_load"
MODULES = ("model", "channel", "load", "optimize", "montecarlo", "cli")
PACKAGE = "d2dcache"


class _Span:
    __slots__ = ("name", "parent", "start", "kids", "cpu")

    def __init__(self, name, parent, start, cpu):
        self.name = name
        self.parent = parent
        self.start = start
        self.kids = []          # (start, end) of finished child spans
        self.cpu = cpu


def _covered(kids, start, end) -> float:
    """Length of the part of [start, end] that the child intervals cover."""
    total, reach = 0.0, start
    for a, b in sorted(kids):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Wraps the traced functions while installed; sums spans per op."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()  # worker threads finish spans too
        self._home = None            # span stack of the installing thread
        self._patches = []           # (module, attribute, original)
        self._arg_slots = {}          # span -> [(position, name)] of recorded args
        self.ops = 0
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.wait_s = dict.fromkeys(WAIT_SPANS, 0.0)
        self.distinct = dict.fromkeys(DISTINCT_SPANS, 0)
        self.trials = 0
        self.trials_span_s = 0.0   # total time inside TRIALS_SPAN
        self._keys = {name: set() for name in DISTINCT_SPANS}

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every d2dcache namespace that binds a traced function.

        A function the program no longer defines is skipped and reports 0.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home = self._stack()
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for name in SPANS:
            module, attr = name.split(".")
            original = getattr(modules[module], attr, None)
            if original is None:
                continue
            params = list(inspect.signature(original).parameters)
            wanted = self._arg_names(name)
            # a renamed parameter turns the argument metric off, not the span
            self._arg_slots[name] = ([(params.index(p), p) for p in wanted]
                                     if set(wanted) <= set(params) else [])
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @staticmethod
    def _arg_names(name):
        if name == TRIALS_SPAN:
            return ("trials",)
        return DISTINCT_SPANS.get(name, ())

    def _wrap(self, name, original):
        tracer = self
        measure_wait = name in WAIT_SPANS
        records_args = bool(self._arg_slots[name])

        def traced(*args, **kwargs):
            if records_args:
                tracer._record_args(name, args, kwargs)
            stack = tracer._stack()
            home = tracer._home
            parent = stack[-1] if stack else (home[-1] if home else None)
            cpu = time.thread_time() if measure_wait else 0.0
            span = _Span(name, parent, time.perf_counter(), cpu)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._finish(span, end, measure_wait)

        traced.__wrapped__ = original
        return traced

    def _record_args(self, name, args, kwargs):
        values = [args[i] if i < len(args) else kwargs.get(p) for i, p in self._arg_slots[name]]
        with self._lock:
            if name == TRIALS_SPAN:
                self.trials += int(values[0])
            else:
                self._keys[name].add(tuple(
                    v.tobytes() if hasattr(v, "tobytes") else v for v in values))

    def _finish(self, span, end, measure_wait):
        duration = end - span.start
        wait = duration - (time.thread_time() - span.cpu) if measure_wait else 0.0
        name = span.name
        with self._lock:
            self.calls[name] += 1
            if name == TRIALS_SPAN:
                self.trials_span_s += duration
            self.self_s[name] += duration - _covered(span.kids, span.start, end)
            if measure_wait:
                self.wait_s[name] += wait
            if span.parent is not None:
                span.parent.kids.append((span.start, end))

    # -- per-op bookkeeping --------------------------------------------------

    def end_op(self):
        """Close one traced op: count it and fold its distinct-key sets."""
        self.ops += 1
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    def metrics(self, scale: float = 1.0) -> dict:
        """Per-op layer metrics: calls, self time, waits, ratios.  Times are
        multiplied by ``scale``, the run's host-speed factor."""
        ops = max(self.ops, 1)
        ms = 1e3 * scale / ops
        out = {}
        layer_s = dict.fromkeys(MODULES, 0.0)
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name] / ops, "calls/op")
            out[f"{name}.self_ms"] = (ms * self.self_s[name], "ms/op")
            layer_s[name.split(".")[0]] += self.self_s[name]
        for name in WAIT_SPANS:
            out[f"{name}.wait_ms"] = (ms * self.wait_s[name], "ms/op")
        for name in DISTINCT_SPANS:
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = (
                self.distinct[name] / calls if calls else 0.0, "ratio")
        for module, seconds in layer_s.items():
            out[f"layer.{module}.self_ms"] = (ms * seconds, "ms/op")
        mc_s = scale * self.trials_span_s
        out["montecarlo.trials_per_s"] = (self.trials / mc_s if mc_s else 0.0, "1/s")
        return out
