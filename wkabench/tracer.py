"""Outside-in layer tracing for the wka benchmark.

The tracer replaces each public function of every ``wka`` module by a timing
wrapper, in every ``wka.*`` namespace where the function is looked up (the
defining module, modules that imported it by name, and the package itself).
No file of the package changes.  The benchmark's own steps (a CLI command, an
input build) are recorded through :meth:`Tracer.span`.

Spans are kept in memory as tuples ``(id, parent, op, name, start, end)``,
where ``parent`` is the enclosing span and ``op`` is the top-level span of the
same workload operation; :meth:`Tracer.dump` writes them out when the run ends.
A layer's self time is its duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects spans and per-layer call counts, total and self times.

    Nothing is recorded until ``recording`` is set, and nothing is wrapped
    until :meth:`install`, so untraced runs execute the package unmodified.
    """

    def __init__(self):
        self.recording = False
        self.stats: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        # one frame per open span: [span id, op id, time covered by children]
        self._stack: list[list] = []
        # open spans per layer name, so recursion adds to total_s only once
        self._depth: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self):
        sid = len(self.spans)
        op = self._stack[0][0] if self._stack else sid
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append([sid, op, 0.0])
        return time.perf_counter()

    def _exit(self, name: str, start: float):
        end = time.perf_counter()
        sid, op, child = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[sid] = (sid, parent, op, name, start, end)
        st = self.stats.setdefault(name, LayerStats())
        st.calls += 1
        st.self_s += dur - child
        depth = self._depth.get(name, 0)
        if depth == 1:
            st.total_s += dur
        self._depth[name] = depth - 1

    @contextmanager
    def span(self, name: str):
        """Record a span around a benchmark step (no-op when not recording)."""
        if not self.recording:
            yield
            return
        self._depth[name] = self._depth.get(name, 0) + 1
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def count(self, name: str, amount: float):
        if self.recording:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation ------------------------------------------------------

    def _wrapper(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._depth[name] = self._depth.get(name, 0) + 1
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, listed=(), hooks=None):
        """Wrap every public function of every loaded ``package.*`` module.

        ``listed`` names layers (``module.function``) that the benchmark
        reports even when the function no longer exists; those are recorded
        in ``self.absent`` and report zero calls.  ``hooks`` maps a layer
        name to ``after(tracer, args, kwargs, result)``, run outside the
        timed interval.
        """
        hooks = hooks or {}
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        wrappers = {}  # id(original function) -> (original, wrapper)
        present = set()
        for modname, mod in sorted(modules.items()):
            short = modname[len(package) + 1:]
            if not short:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != modname or id(fn) in wrappers:
                    continue
                layer = f"{short}.{attr}"
                present.add(layer)
                wrappers[id(fn)] = (fn, self._wrapper(layer, fn, hooks.get(layer)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
        self.absent = sorted(name for name in listed if name not in present)

    # -- output ------------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        return self.stats.get(name) or LayerStats()

    def dump(self, path):
        """Write every recorded span as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start", "end"],
                    "spans": [s for s in self.spans if s is not None],
                    "absent": self.absent,
                },
                fh,
            )
