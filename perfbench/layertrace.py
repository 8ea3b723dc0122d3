"""Per-module span tracer for kvlie, installed from outside the package.

A layer is one ``kvlie`` module.  ``LayerTracer.install`` wraps every public
function of each layer module, and the public methods plus the arithmetic
operators and constructors of every class it defines, then rebinds each
wrapped function wherever a ``kvlie`` module imported it by name.  Nothing
under ``src/`` is edited; ``uninstall`` restores every original binding.

A span is recorded each time a call crosses from one layer into another
(the benchmark's own code counts as the layer ``bench``).  Calls inside a
layer run through the wrapper without a span.  A layer's self time is its
span time minus the time of its child spans in other layers.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "kvlie"
LAYERS = ("words", "lyndon", "lie", "cyclic", "derivations", "automorphisms",
          "solvers", "linalg", "graphs", "weights", "serialize", "cli")
BENCH = "bench"

# Besides public names, these class members are wrapped: the constructor
# and the operators that carry the series arithmetic.
CLASS_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__")

# Spans kept in memory for the span file; aggregates never drop anything.
SPAN_LIMIT = 300_000

# Functions whose every call (inside the layer too) adds the terms of the
# series it returns to ``words.terms_out``.
_TERMS_OUT = {("words", "AssocSeries.__mul__"), ("words", "AssocSeries.substitute"),
              ("words", "AssocSeries.exp"), ("words", "AssocSeries.log")}
# linalg entry points and the positional argument holding their matrix.
_MATRIX_ARG = {"rank": 0, "solve_affine": 0, "nullspace": 0, "solve_unique": 0,
               "min_norm_pick": 1, "in_span": 0, "independent_subset": 0}
_LYNDON_CACHES = ("bracket_expansion", "bracket_structure")
# Bottom of the layer stack between requests: calls pass through untraced.
_PAUSED = -1


def _matrix_cells(rows) -> int:
    rows = list(rows)
    return len(rows) * len(rows[0]) if rows and len(rows[0]) else 0


class LayerTracer:
    """Aggregates calls, self time and layer counts; keeps spans in memory."""

    def __init__(self):
        self.layers = LAYERS + (BENCH,)
        self._bench = len(LAYERS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.counts: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.functions: List[str] = []
        self.request = -1
        self._stack = [_PAUSED]
        self._child = [0.0]
        self._ids = [0]
        self._next_id = [1]
        self._restore: List[Tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _counter_for(self, layer: str, qualname: str) -> Optional[Callable]:
        if (layer, qualname) in _TERMS_OUT:
            return lambda args, result, crossing: self.add(
                "words.terms_out", len(result.coeffs))
        if layer == "linalg" and qualname in _MATRIX_ARG:
            pos = _MATRIX_ARG[qualname]

            def linalg_counter(args, result, crossing):
                if not crossing:
                    return
                self.add("linalg.cells", _matrix_cells(args[pos]))
                if qualname in ("solve_affine", "in_span"):
                    missing = (result[0] if qualname == "solve_affine" else result) is None
                    self.add("linalg.unsolvable", float(missing))
            return linalg_counter
        if layer == "graphs" and qualname.startswith("enumerate_"):
            return lambda args, result, crossing: crossing and self.add(
                "graphs.graphs_out", len(result))
        if layer == "weights" and qualname == "weight_montecarlo":
            def weights_counter(args, result, crossing):
                drawn = round(result.samples / (1.0 - result.rejection_rate))
                self.add("weights.samples_drawn", drawn)
                self.add("weights.samples_rejected", drawn - result.samples)
            return weights_counter
        return None

    # -- wrapping -----------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        idx = self.layers.index(layer)
        self.functions.append(f"{layer}.{qualname}")
        fid = len(self.functions) - 1
        counter = self._counter_for(layer, qualname)
        stack, child, ids, next_id = self._stack, self._child, self._ids, self._next_id
        calls, self_s, spans = self.calls, self.self_s, self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top == idx:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(args, result, False)
                return result
            if top == _PAUSED:
                return fn(*args, **kwargs)
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = ids[-1]
            stack.append(idx)
            child.append(0.0)
            ids.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids.pop()
                dt = t1 - t0
                self_s[idx] += dt - child.pop()
                child[-1] += dt
                calls[idx] += 1
                if len(spans) < SPAN_LIMIT:
                    spans.append((tracer.request, sid, parent, idx, fid, t0, t1))
                else:
                    tracer.spans_dropped += 1
            if counter is not None:
                counter(args, result, True)
            return result

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in CLASS_DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(member, types.FunctionType):
                self._set(cls, name, self._wrap(layer, qualname, member))
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = self._wrap(layer, qualname, member.__func__)
                self._set(cls, name, type(member)(wrapped))

    def install(self) -> "LayerTracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for layer in self.layers[:-1]:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- requests -----------------------------------------------------

    def run_request(self, request_id: int, fn: Callable, *args):
        """Run fn(*args) as one traced request; return (result, wall seconds).

        Layer calls outside run_request are not traced.  The request's time
        outside every layer is self time of ``bench``.
        """
        lyndon = sys.modules[f"{PACKAGE}.lyndon"]
        caches = [getattr(lyndon, name).__wrapped__ for name in _LYNDON_CACHES]
        before = [c.cache_info() for c in caches]
        self.request = request_id
        self._child[0] = 0.0
        self._stack[0] = self._bench
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            self._stack[0] = _PAUSED
            self.self_s[self._bench] += wall - self._child[0]
            self.calls[self._bench] += 1
            for cache, old in zip(caches, before):
                new = cache.cache_info()
                self.add("lyndon.cache_hits", new.hits - old.hits)
                self.add("lyndon.cache_lookups",
                         new.hits - old.hits + new.misses - old.misses)
        return result, wall

    # -- output -------------------------------------------------------

    def layer_table(self) -> Dict[str, Tuple[int, float]]:
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.layers)}

    def write_spans(self, path) -> None:
        """Gzipped JSON lines, one per span: request, id, parent id, layer,
        function, start and end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for req, sid, parent, layer, fid, t0, t1 in self.spans:
                fh.write(json.dumps([req, sid, parent, self.layers[layer],
                                     self.functions[fid], t0, t1]) + "\n")
