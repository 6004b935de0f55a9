"""In-memory span tracer that times elastiseg's layers from outside the package.

Every public function of each layer module, and every public method of the
classes those modules define, is replaced by a wrapper for the duration of
:meth:`Tracer.installed`. The wrapper is bound under every name the package's
modules hold for the original (``cli`` imports ``segment`` from ``solver``,
``curvature`` imports ``d1`` from ``diffops``, ...), so calls are timed
wherever they are looked up. Nothing under ``src/`` is edited.

A span records its layer, function name, parent span and start/end times.
The root span is the workload. A layer's self time is the duration of its
spans minus the duration of their child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time

LAYERS = ("field", "diffops", "curvature", "energy", "gradients",
          "solver", "metrics", "volio", "synth", "cli")
ROOT = "workload"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []   # (layer, name, parent index or -1, start, end)
        self._stack: list[int] = []
        self.io_bytes = 0  # size of the files volio's read_*/write_* calls touched

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_io = layer == "volio" and name.startswith(("read_", "write_"))

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, name, parent, t0, t1)
                if is_io:  # after t1, so the stat is not part of the volio span
                    self.io_bytes += sum(os.path.getsize(a) for a in args
                                         if isinstance(a, (str, os.PathLike)) and os.path.isfile(a))

        return traced

    @contextlib.contextmanager
    def root(self):
        """The workload span; every layer span opened inside it descends from it."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, ROOT, -1, t0, t1)

    @contextlib.contextmanager
    def installed(self):
        """Swap every public callable of the layer modules for a traced wrapper."""
        package = importlib.import_module("elastiseg")
        modules = {layer: importlib.import_module(f"elastiseg.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        undo = []
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                undo.append((ns, attr, value))
                                setattr(ns, attr, traced)
                elif inspect.isclass(obj):
                    for meth, value in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        label = f"{name}.{meth}"
                        if inspect.isfunction(value):
                            replacement = self._wrap(layer, label, value)
                        elif isinstance(value, classmethod):
                            replacement = classmethod(self._wrap(layer, label, value.__func__))
                        else:
                            continue
                        undo.append((obj, meth, value))
                        setattr(obj, meth, replacement)
        try:
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

    def summary(self) -> dict:
        """Per-layer self time and call count; root self time; root wall time.

        Every non-root span's duration is subtracted from exactly one parent,
        so the self times of all layers plus the root's add up to the root's
        duration.
        """
        child = [0.0] * len(self.spans)
        for layer, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = {name: 0.0 for name in (*LAYERS, ROOT)}
        calls = {name: 0 for name in (*LAYERS, ROOT)}
        wall = 0.0
        for i, (layer, _, parent, t0, t1) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]
            calls[layer] += 1
            if parent < 0:
                wall += t1 - t0
        return {"self_s": self_s, "calls": calls, "wall_s": wall}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("index,layer,name,parent,start_s,end_s\n")
            base = self.spans[0][3] if self.spans else 0.0
            for i, (layer, name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{layer},{name},{parent},{t0 - base:.9f},{t1 - base:.9f}\n")
