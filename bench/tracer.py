"""Spans and counters recorded around calls between straightnet modules.

The program is not edited: ``Tracer.install`` replaces, in every module of
the package, each name bound to a function defined in *another* straightnet
module with a wrapper that records a span named ``<module>.<function>``.
Calls a module makes to its own functions stay unwrapped, so a span marks a
crossing of a module boundary.  A few wrappers also count work (Dijkstra
sources, pairs, rows, bytes) where it crosses that boundary.

Spans are kept in memory and handed out by ``Tracer.spans`` when the traced
section has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import threading
import time
import types

PACKAGE = "straightnet"

# Modules reported as layers; every traced span belongs to one of them.
LAYERS = (
    "cli",
    "sweeps",
    "generators",
    "model",
    "metrics",
    "shortest_paths",
    "tables",
    "svgplot",
    "analytic",
    "validation",
)


class _Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "calls", "has_children")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.calls = 0
        self.has_children = False


class Tracer:
    """Records spans on the calling thread and counters from any thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._last_child: dict[int | None, _Span] = {}
        self._owner = threading.get_ident()
        self._lock = threading.Lock()
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[object, object] = {}
        self._graphs: dict[int, object] = {}  # strong refs keep ids unique
        self._written_tables: list[str] = []
        self.counts = {
            "shortest_paths.sources": 0,
            "shortest_paths.all_pairs_calls": 0,
            "shortest_paths.matrix_bytes": 0,
            "metrics.pairs": 0,
            "metrics.skipped_pairs": 0,
            "metrics.pair_records": 0,
            "generators.nodes": 0,
            "generators.edges": 0,
            "model.json_bytes": 0,
        }

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> _Span:
        """A new span, or the parent's previous child if that is a leaf of the same name.

        Merging back-to-back leaf calls of one function under one parent
        keeps tens of thousands of tiny calls (closed forms inside
        ``validate``) from becoming as many spans; ``calls`` counts them.
        """
        parent = None
        if self._stack:
            self._stack[-1].has_children = True
            parent = self._stack[-1].id
        span = self._last_child.get(parent)
        if span is None or span.name != name or span.has_children:
            span = _Span(len(self._spans), name, parent, time.perf_counter())
            self._spans.append(span)
            self._last_child[parent] = span
        span.calls += 1
        return span

    def _enter(self, span: _Span) -> float:
        self._stack.append(span)
        return time.perf_counter()

    def _leave(self, span: _Span, resumed_at: float) -> None:
        now = time.perf_counter()
        span.busy += now - resumed_at
        span.end = now
        self._stack.pop()

    def _add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span; a returned generator is wrapped too."""
        if threading.get_ident() != self._owner:
            return func(*args, **kwargs)
        span = self._open(name)
        resumed = self._enter(span)
        try:
            result = func(*args, **kwargs)
        finally:
            self._leave(span, resumed)
        if inspect.isgenerator(result):
            return self._resumed(name, result)
        return result

    def _resumed(self, name: str, generator):
        """Charge time spent producing items to the producer's layer.

        One span, opened at the first resume under whatever span consumes
        the items, covers every resume; a lazy producer read by another
        layer is billed to its own module without a span per item.
        """
        span = None
        while True:
            if span is None:
                span = self._open(name)
            resumed = self._enter(span)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._leave(span, resumed)
            self._on_item(name)
            yield item

    # -- counters at module boundaries ------------------------------------

    def _on_result(self, name: str, args, result) -> None:
        if name == "shortest_paths.all_pairs":
            graph = args[0]
            self._graphs[id(graph)] = graph
            self._add("shortest_paths.all_pairs_calls", 1)
            self._add("shortest_paths.matrix_bytes", 8 * graph.node_count**2)
        elif name == "metrics.summarize":
            self._add("metrics.pairs", result.pair_count)
            self._add("metrics.skipped_pairs", result.skipped_pairs)
        elif name.startswith("generators.generate_"):
            self._add("generators.nodes", result.node_count)
            self._add("generators.edges", result.edge_count)
        elif name == "model.load_graph":
            self._add("model.json_bytes", os.path.getsize(args[0]))
        elif name.startswith("tables.write_"):
            self._written_tables.append(os.fspath(args[0]))

    def _on_item(self, name: str) -> None:
        if name == "metrics.iter_pair_metrics":
            self._add("metrics.pair_records", 1)

    def _wrap(self, layer: str, func):
        """Return ``(spanned, counted)`` versions of ``func``."""
        name = f"{layer}.{func.__name__}"
        counted = func
        if name == "shortest_paths.dijkstra":

            @functools.wraps(func)
            def counted(*args, **kwargs):
                self._add("shortest_paths.sources", 1)
                return func(*args, **kwargs)

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            result = self.call(name, counted, *args, **kwargs)
            self._on_result(name, args, result)
            return result

        return spanned, counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every cross-module function binding inside the package."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                layer = home.rsplit(".", 1)[1]
                if layer not in LAYERS:
                    continue
                if value not in self._wrappers:
                    self._wrappers[value] = self._wrap(layer, value)
                spanned, counted = self._wrappers[value]
                # Inside its own module a function is only counted, never
                # spanned: dijkstra runs on worker threads there.
                replacement = counted if home == module.__name__ else spanned
                if replacement is not value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def entry(self, layer: str, func):
        """Wrap a function the benchmark calls directly, such as ``cli.main``."""
        if func not in self._wrappers:
            self._wrappers[func] = self._wrap(layer, func)
        return self._wrappers[func][0]

    # -- results ------------------------------------------------------------

    def spans(self) -> list[dict]:
        return [
            {
                "run": self.run_id,
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "busy": s.busy,
                "calls": s.calls,
            }
            for s in self._spans
        ]

    def finish_counts(self) -> dict:
        """Counters, completed with the sizes of tables written meanwhile."""
        counts = dict(self.counts)
        rows = size = 0
        for path in self._written_tables:
            with open(path, "rb") as fh:
                data = fh.read()
            size += len(data)
            rows += max(0, data.count(b"\n") - 1)  # minus the header line
        counts["tables.rows"] = rows
        counts["tables.bytes"] = size
        counts["shortest_paths.graphs"] = len(self._graphs)
        return counts


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer busy and self seconds from spans.

    ``<layer>.self_s`` is a span's busy time minus the busy time of its
    direct children, summed per layer.  ``<layer>.busy_s`` sums the spans
    of a layer that no span of the same layer encloses.
    """
    by_id = {s["id"]: s for s in spans}
    child_busy: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] = child_busy.get(s["parent"], 0.0) + s["busy"]
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "busy_s")}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[f"{layer}.self_s"] += s["busy"] - child_busy.get(s["id"], 0.0)
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"].split(".", 1)[0] != layer:
            parent = by_id[parent]["parent"]
        if parent is None:
            out[f"{layer}.busy_s"] += s["busy"]
    return out
