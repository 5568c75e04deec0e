"""Span tracer that wraps starflow's layer functions from outside the package.

The tracer replaces each public function of the layer modules with a
wrapper that records a span (name, start, end, parent). It patches every
name a caller module resolves: the defining module's global, the globals
of modules that imported the function by name, module-level dicts that
hold it (the CLI's suite table) and the package namespace. Nothing in
`src/` is edited; `uninstall` puts every original back.

Two more boundaries are traced, because the per-layer metrics need them
and no public function marks them: `flow._attempt` (one RK4 trial step
inside `flow.run`) and the method `TrajectoryRecord.to_csv`. Either is
skipped when the package no longer has it, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
import types

LAYERS = ("symfunc", "geometry", "flow", "verify", "cli")
EXTRA_FUNCTIONS = (("flow", "_attempt"),)
EXTRA_METHODS = (("flow", "TrajectoryRecord", "to_csv"),)


class Span:
    """Aggregate of every call to one traced function."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects spans in memory: per-name aggregates, per (parent, child)
    call counts, and the raw span list (name, parent index, start, end).

    `on_return(name, result)` sees every traced call's return value;
    `clock` returns integer nanoseconds.
    """

    def __init__(self, on_return=None, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, Span] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[tuple[str, int, int, int]] = []
        self.on_return = on_return
        self._stack: list[list] = []  # [name, span index, child time in ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        key = (parent[0] if parent else "", name)
        self.edges[key] = self.edges.get(key, 0) + 1
        self.spans.append((name, parent[1] if parent else -1, self.clock(), 0))
        self._stack.append([name, len(self.spans) - 1, 0])

    def exit(self) -> None:
        end = self.clock()
        name, idx, child_ns = self._stack.pop()
        _, parent_idx, start, _ = self.spans[idx]
        self.spans[idx] = (name, parent_idx, start, end)
        dur = end - start
        span = self.stats.get(name)
        if span is None:
            span = self.stats[name] = Span()
        span.calls += 1
        span.total_s += dur * 1e-9
        span.self_s += (dur - child_ns) * 1e-9
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if tracer.on_return is not None:
                tracer.on_return(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "starflow") -> None:
        pkg = importlib.import_module(package)
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for layer, attr in EXTRA_FUNCTIONS:
            fn = getattr(mods[layer], attr, None)
            if fn is not None:
                wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[id(item)]
        for layer, cls_name, meth in EXTRA_METHODS:
            cls = getattr(mods[layer], cls_name, None)
            if hasattr(cls, meth):
                self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- queries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        span = self.stats.get(name)
        return span.calls if span else 0

    def total_s(self, name: str) -> float:
        span = self.stats.get(name)
        return span.total_s if span else 0.0

    def self_s(self, name: str) -> float:
        span = self.stats.get(name)
        return span.self_s if span else 0.0

    def mean_us(self, name: str) -> float:
        span = self.stats.get(name)
        return 1e6 * span.total_s / span.calls if span and span.calls else 0.0

    def calls_from(self, name: str, exclude_parents=()) -> int:
        return sum(n for (parent, child), n in self.edges.items()
                   if child == name and parent not in exclude_parents)

    def write_spans(self, path) -> None:
        """Raw spans as CSV: index, name, parent index, start and end in ns."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start},{end}\n")
