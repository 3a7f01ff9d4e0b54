"""Span tracing of fpsystems from outside the package.

``Tracer.install`` replaces every public function and public method of
the layer modules with a wrapper that records one span per call: name,
start, end, parent span and job id.  References that other fpsystems
modules (and the package namespace) hold to those functions are
replaced too, so ``fpsystems.cli.gamma`` and
``fpsystems.weights.rref_with_pivots`` are traced like the originals.
``Tracer.uninstall`` puts every original back.

A generator function (``enumerate_solutions``) gets one span per
resumption, parented to whoever called ``next``; timing it from creation
to exhaustion would charge the consumer's work to the generator.

Spans live in flat arrays until ``write`` dumps them.  ``analyse``
derives each layer's self time: a span's duration minus the durations
of its direct children.  Calls run on one thread, so children never
overlap and their durations add up to the time they cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("fplinalg", "linsystem", "weights", "slicerank", "sampling",
          "search", "cli")
BENCH = "bench"


class Tracer:
    """In-memory span store plus the counters the wrappers record."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counters: Counter = Counter()
        self.tuples: set = set()
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def span_count(self) -> int:
        return len(self.start)

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """A traced stand-in for ``fn``; ``hook(tracer, args, kwargs,
        result)`` runs after each call, outside the span."""
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if hook is not None:
                    hook(tracer, args, kwargs, None)
                return tracer._resumptions(fn(*args, **kwargs), nid, name)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    def _resumptions(self, gen, nid: int, name: str):
        # one span per resumption; the time until the first yield (or
        # until exhaustion, when nothing is yielded) is the call's set-up
        self.counters[name + ".calls"] += 1
        first = True
        while True:
            idx = self.open(nid)
            try:
                item = next(gen)
            except StopIteration:
                self.close(idx)
                if first:
                    self.counters[name + ".first_ns"] += self.end[idx] - self.start[idx]
                return
            except BaseException:
                self.close(idx)
                raise
            self.close(idx)
            self.counters[name + ".yields"] += 1
            if first:
                self.counters[name + ".first_ns"] += self.end[idx] - self.start[idx]
                first = False
            yield item

    def install(self, package, hooks: dict | None = None, layers=LAYERS) -> None:
        """Wrap the public functions and methods of ``package.<layer>``
        for each layer, and every reference to them inside the package."""
        hooks = hooks or {}
        swapped: dict[int, object] = {}
        prefix = package.__name__ + "."
        for layer in layers:
            mod = sys.modules.get(prefix + layer)
            if mod is None:  # not imported by this workload
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer, hooks)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    swapped[id(obj)] = self.wrap(obj, name, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package.__name__ or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                new = swapped.get(id(obj))
                if new is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def _wrap_class(self, cls: type, layer: str, hooks: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, hooks.get(name)))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, hooks.get(name)))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, hooks.get(name))
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def analyse(self) -> dict:
        """Per-name call counts and inclusive/self nanoseconds, per-layer
        self nanoseconds, and the inclusive time of each layer's spans
        sitting directly under another layer's span."""
        n = len(self.start)
        start, end, parent, name_col = self.start, self.end, self.parent, self.name_col
        child = array("q", bytes(8 * n))
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        names = len(self.names)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        counts = [0] * names
        incl_by_name = [0] * names
        self_by_name = [0] * names
        under: Counter = Counter()
        for i in range(n):
            nid = name_col[i]
            dur = end[i] - start[i]
            counts[nid] += 1
            incl_by_name[nid] += dur
            self_by_name[nid] += dur - child[i]
            par = parent[i]
            if par >= 0:
                under[(layer_of[name_col[par]], layer_of[nid])] += dur
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_by_layer: Counter = Counter()
        for nid, name in enumerate(self.names):
            calls[name] += counts[nid]
            incl[name] += incl_by_name[nid]
            self_by_layer[layer_of[nid]] += self_by_name[nid]
        return {"calls": calls, "incl_ns": incl, "self_ns": self_by_layer,
                "under_ns": under}

    def write(self, stem: Path, meta: dict) -> None:
        """Dump the spans: ``<stem>.bin`` holds the five columns back to
        back (int32 name, int64 start, int64 end, int32 parent, int32
        job) and ``<stem>.json`` the name table and metadata."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as out:
            for col in (self.name_col, self.start, self.end, self.parent, self.job):
                col.tofile(out)
        header = dict(meta, spans=len(self.start), names=self.names,
                      columns=["name:i4", "start_ns:i8", "end_ns:i8",
                               "parent:i4", "job:i4"])
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1))
