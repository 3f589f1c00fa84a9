"""Per-layer tracing from outside the package.

Every function exported from `superlum/__init__.py`, plus `cli.main` and
`diagrams.resolved_segments` (which the benchmark calls directly), is
wrapped at every module namespace of the package that binds it, so calls
made through `superlum.verify.kin`, `superlum.diagrams.boost_1p1` or the
package root all pass through one wrapper.  Classes are not wrapped, nor
are private helpers: their time counts toward the layer that called them,
as does the time spent in `report` and `errors`.

A span is (name, start, end, parent, op id).  Spans are kept in compact
arrays while the run lasts and reduced to per-layer self times at the end:
a span's self time is its duration minus the durations of its direct
children, which nest inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

EXTRA = (("cli", "main"), ("diagrams", "resolved_segments"))
UNTRACED = ("superlum.report", "superlum.errors")


class Tracer:
    """Wraps the package's public functions; install() and uninstall()
    swap the wrappers in and out at every binding site."""

    def __init__(self, sl):
        self.layers: list[str] = []
        self.name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        originals = {}
        for val in vars(sl).values():
            if inspect.isfunction(val) and val.__module__ not in UNTRACED:
                originals[id(val)] = val
        for mod, attr in EXTRA:
            fn = getattr(sys.modules[f"superlum.{mod}"], attr)
            originals[id(fn)] = fn
        wrappers = {key: self._wrap(fn) for key, fn in originals.items()}
        self.sites = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "superlum" or modname.startswith("superlum.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self.sites.append((mod, attr, val, wrappers[id(val)]))

    def _wrap(self, fn):
        layer = fn.__module__.split(".")[-1]
        qual = f"{layer}.{fn.__name__}"
        nid = len(self.layers)
        self.layers.append(layer)
        self.name_id[qual] = nid
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self.sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self.sites:
            setattr(mod, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """Span table with durations and self times as numpy arrays."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "parent": parent,
            "dur": dur,
            "self": dur - child,
        }
