"""Outside-in span tracing of gradsense, with no change to its source.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, in every ``gradsense.*`` namespace that binds the
same object: the modules import each other's functions by name
(``from .x import y``), so patching only the defining module would miss
the inner calls.  The ``numpy.linalg`` entry points that gradsense calls
are wrapped too, as the ``linalg`` layer; calls made from outside
gradsense (numpy's own use of them) pass through untimed.

A span records its name, start, end, parent span and op id.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("cli", "scenario", "commands", "spectral", "quadrature", "sensors",
           "strategic", "gramian", "reconstruct", "report")
LINALG = ("svd", "eigh", "eigvalsh", "lstsq")


def _eval_elements(tracer: "Tracer", args, kwargs) -> None:
    basis = kwargs.get("basis", args[0] if args else None)
    points = kwargs.get("points", args[1] if len(args) > 1 else None)
    n_points = np.atleast_2d(np.asarray(points, dtype=float)).shape[0]
    tracer.counters["spectral.eigenfunction_eval.elements"] += basis.n_modes * n_points


def _eigh_size(tracer: "Tracer", args, kwargs) -> None:
    a = kwargs.get("a", args[0] if args else None)
    key = "linalg.eigh.max_n"
    tracer.counters[key] = max(tracer.counters[key], int(np.shape(a)[-1]))


# extra counters computed from a call's arguments
MEASURES = {
    "spectral.eigenfunction_values": _eval_elements,
    "spectral.eigenfunction_gradients": _eval_elements,
    "linalg.eigh": _eigh_size,
}


class Tracer:
    """In-memory span recorder plus per-function call/self-time/error stats."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {"spectral.eigenfunction_eval.elements": 0,
                                         "linalg.eigh.max_n": 0}
        self.op: int | None = None
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent, self.op)
            entry = self.stats.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += duration - frame[1]
            entry[2] += failed
            measure = MEASURES.get(name)
            if measure is not None:
                measure(self, args, kwargs)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_linalg(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("gradsense"):
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"gradsense.{short}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != "gradsense" and not name.startswith("gradsense."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        for attr in LINALG:
            self._patch(np.linalg, attr,
                        self._wrap_linalg(f"linalg.{attr}", getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
