"""Span tracing for the benchmark, kept outside the library.

`Tracer.install` replaces every public function of the designforge layer
modules with a wrapper that records a span (name, start, end, parent) and
aggregates calls, inclusive time and self time per name.  A function that
another layer imported by name (``from .fflinalg import rank``) is replaced
under that name too, so every caller is caught.  `Tracer.uninstall` puts the
original objects back.

Work counters are attached at the same boundaries: the kernels report
multiply-adds and array bytes computed from their argument shapes (not
measured; cache misses are ignored), and a few functions report counts read
from their arguments or results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time

LAYERS = ("ffcore", "kernels", "fflinalg", "ffdesigns", "io", "cli", "cdesigns", "qdesigns")
SPAN_CAP = 20_000  # raw spans kept for the trace file; aggregates keep counting past it


def load_layers() -> dict:
    return {name: importlib.import_module(f"designforge.{name}") for name in LAYERS}


def _kernel_counter(field_madds):
    """Counter for a kernel asked for `field_madds(args)` F_{p^K} multiply-adds.

    Each is K^2 base-field multiply-adds (schoolbook); bytes are those of the
    array arguments and the result.
    """

    def counter(args, result):
        k = args["red"].shape[1]
        arrays = [v for v in (*args.values(), result) if hasattr(v, "nbytes")]
        return {"madds": field_madds(args) * k * k, "bytes": sum(a.nbytes for a in arrays)}

    return counter


# name -> counter(bound arguments, result) -> {counter suffix: value}
COUNTERS = {
    "kernels.mul_batch": _kernel_counter(lambda a: a["a"].shape[0]),
    "kernels.dot_batch": _kernel_counter(lambda a: a["x"].shape[0] * a["x"].shape[1]),
    "kernels.gather_dot": _kernel_counter(lambda a: len(a["ki"]) * a["x"].shape[1]),
    "kernels.matmul": _kernel_counter(lambda a: a["a"].shape[0] * a["a"].shape[1] * a["b"].shape[1]),
    "kernels.elim_update": _kernel_counter(lambda a: a["rows"].shape[0] * a["rows"].shape[1]),
    "ffdesigns.gram_sample_check": lambda a, r: {"pairs": a["pairs"]},
    "io.load_design": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "qdesigns.optimize_design": lambda a, r: {"iterations": r.iterations},
    "cdesigns.caratheodory_prune": lambda a, r: {"removed": a["ens"].n - r.n},
}


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.stats: dict = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict = {}  # counter name -> int
        self.spans: list = []  # [name, start_ns, end_ns, parent index or -1]
        self.dropped = 0
        self.top_ns = 0  # time covered by spans that have no parent
        self._stack: list = []  # [span index, name, start_ns, child_ns]
        self._patched: list = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter_ns()
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([name, start, None, parent])
        else:
            index = -1
            self.dropped += 1
        self._stack.append([index, name, start, 0])

    def _exit(self):
        end = time.perf_counter_ns()
        index, name, start, child_ns = self._stack.pop()
        dur = end - start
        if index >= 0:
            self.spans[index][2] = end
        st = self.stats.setdefault(name, [0, 0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_ns
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.top_ns += dur

    @contextlib.contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def merge(self, doc: dict):
        """Fold a child process's aggregates into the span now open."""
        for name, (calls, total, self_ns) in doc["stats"].items():
            st = self.stats.setdefault(name, [0, 0, 0])
            st[0] += calls
            st[1] += total
            st[2] += self_ns
        for name, value in doc["counts"].items():
            self.count(name, value)
        if self._stack:
            self._stack[-1][3] += doc["top_ns"]

    def export(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "top_ns": self.top_ns,
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.count(f"{name}.{key}", value)
            return result

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = list(self.layers.values())
        for layer, mod in self.layers.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is obj:
                            self._patched.append((other, other_attr, obj))
                            setattr(other, other_attr, wrapped)

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
