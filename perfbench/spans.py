"""In-memory span recorder for the traced run.

The recorder wraps the public functions of the ``lensgenus`` modules at every
module attribute a caller looks them up through (``from .norm import
clamped_graph_norm`` binds a second name in ``cables``), so the program itself
is not edited.  Each call appends one span (name, start, end, parent) to flat
arrays; self time is the span's duration minus the time its children cover.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from types import ModuleType
from typing import Callable

#: The modules of ``src/lensgenus``; each is one layer.  ``errors`` does no work.
LAYERS = ("exactarith", "lens", "norm", "complement", "cables", "stabilization",
          "order2", "twistfamily", "cli")


class Tracer:
    """Records spans from wrapped functions; undo with ``restore``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` recording one span per call; ``name`` may depend on the args."""
        names, stack = self.name, self._stack
        start, end, parent, clock = self.start, self.end, self.parent, time.perf_counter
        fixed = None if callable(name) else self._id(name)
        span_id = self._id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(fixed if fixed is not None else span_id(name(*args, **kwargs)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def count_calls(self, owner: object, attr: str, counter: str) -> None:
        """Count calls to ``owner.attr`` without recording spans."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self.patch(owner, attr, counted)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for nid, s, e, own in zip(self.name, self.start, self.end, self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += e - s
            row["self_s"] += own
        return out

    def count_under(self, name_prefix: str, ancestor_prefix: str) -> int:
        """Spans named ``name_prefix*`` with some ancestor named ``ancestor_prefix*``."""
        names, parent = self.names, self.parent
        hits = 0
        for i, nid in enumerate(self.name):
            if not names[nid].startswith(name_prefix):
                continue
            p = parent[i]
            while p >= 0 and not names[self.name[p]].startswith(ancestor_prefix):
                p = parent[p]
            hits += p >= 0
        return hits

    def write(self, path: str) -> None:
        """Write every span as CSV (index,name,start,end,parent), gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(f"{i},{names[nid]},{s:.9f},{e:.9f},{p}\n")


def _snf_name(matrix, *args, **kwargs) -> str:
    return f"exactarith.snf_{matrix.rows}x{matrix.cols}"


def instrument(tracer: Tracer, modules: dict[str, ModuleType]) -> None:
    """Wrap every public function of each layer wherever a module binds it.

    ``modules`` maps layer name to module.  Smith normal form spans are named
    by matrix shape (``exactarith.snf_5x4``); ``IntMatrix`` constructions are
    counted, not traced.
    """
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = _snf_name if attr == "smith_normal_form" else f"{layer}.{attr}"
            wrapped = tracer.wrap(fn, name)
            for owner in modules.values():
                for bound, value in list(vars(owner).items()):
                    if value is fn:
                        tracer.patch(owner, bound, wrapped)
    tracer.count_calls(modules["exactarith"].IntMatrix, "__post_init__", "exactarith.intmatrix")
