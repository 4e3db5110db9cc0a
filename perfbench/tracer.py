"""Call tracing of eplab from outside the package.

The tracer wraps the public functions of eplab's layers and patches every
name under which eplab looks them up: `from .fit import fit_spectrum` in
eplab.cli binds a second name, so patching eplab.fit alone would miss the
CLI's calls. Methods that carry file I/O (Spectrum.write_csv and
ScanResult.write_csv/read_csv) are patched on their classes.

A span is one call: its name, its start and end, and the span that caused
it. Spans are folded into per (caller, callee) aggregates as they close,
because a fine plane scan makes hundreds of thousands of calls; per-call
durations are kept for every callee so medians and maxima stay exact.
Calls made inside worker processes are not seen: a forked worker inherits
the wrappers but its records die with it.
"""

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("synth", "fit", "core", "epscan", "cli")
METHODS = (("synth", "Spectrum", "write_csv", "synth.write_csv"),
           ("epscan", "ScanResult", "write_csv", "epscan.scan_write_csv"),
           ("epscan", "ScanResult", "read_csv", "epscan.scan_read_csv"))
ROOT = "<root>"


class Tracer:
    def __init__(self):
        self._stack = []
        self._patches = []
        self.calls = defaultdict(int)           # (caller, callee) -> count
        self.inclusive = defaultdict(float)     # (caller, callee) -> seconds
        self.self_time = defaultdict(float)     # callee -> seconds
        self.durations = defaultdict(lambda: array("d"))

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        caller = self._stack[-1][0] if self._stack else ROOT
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[(caller, name)] += 1
        self.inclusive[(caller, name)] += dur
        self.self_time[name] += dur - child
        self.durations[name].append(dur)
        return dur

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # ---------------------------------------------------------- patching

    def install(self):
        """Wrap every public function of the layers, at every lookup site."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == "eplab" or name.startswith("eplab."))}
        originals = {}
        for layer in LAYERS:
            mod = modules[f"eplab.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, attr, label in METHODS:
            cls = getattr(modules[f"eplab.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(label, raw.__func__))
            else:
                patched = self.wrap(label, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------ totals

    def count(self, name):
        return sum(n for (_, callee), n in self.calls.items() if callee == name)

    def seconds(self, name):
        """Inclusive seconds of a callee, recursion counted once."""
        return sum(t for (caller, callee), t in self.inclusive.items()
                   if callee == name and caller != name)

    def table(self):
        """All aggregates, for the result file."""
        rows = []
        for (caller, callee), n in sorted(self.calls.items()):
            rows.append({"caller": caller, "callee": callee, "calls": n,
                         "inclusive_s": self.inclusive[(caller, callee)]})
        return {"edges": rows,
                "self_s": dict(sorted(self.self_time.items()))}


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.seconds = None

    def __enter__(self):
        self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.seconds = self.tracer._exit()
        return False
