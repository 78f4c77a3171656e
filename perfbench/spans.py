"""Per-layer spans recorded from outside the program.

`Tracer.install()` rebinds the public functions listed in `LAYERS` to timing
wrappers in every `hlbench` module that holds them, because the CLI and the
library call each other through module globals (`cli` imports `search_best`
by name, `search.zdensity_band_check` calls `h_set` through its own
globals).  `uninstall()` restores the originals.  Per-node helpers such as
`Coloring.value`, `level_nodes` and `lenlex_key` are not wrapped: they run
millions of times per op.

A span is one call of a wrapped function.  Spans are aggregated as they
close, per layer: total time (nested spans of the same layer count once),
self time (total minus the wrapped spans called inside it) and calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# layer -> (module, attribute path) of every function whose calls are its spans
LAYERS = {
    "cli.main": (("cli", "main"),),
    "treecore.parse": (("treecore", "tree_from_text"),),
    "colorings.parse": (("colorings", "coloring_from_text"),),
    "colorings.build": tuple(("colorings", f) for f in (
        "random_coloring", "zdensity_coloring", "pairing_coloring", "residue_splitting", "levels_coloring")),
    "colorings.h_set": (("colorings", "h_set"),),
    "colorings.pairing_check": (("colorings", "check_pairing_disjointness"),),
    "colorings.levels_check": (("colorings", "check_levels_bichromatic"),),
    "search.search": (("search", "search_best"),),
    "search.verify": (("search", "verify_certificate"),),
    "search.band_check": (("search", "zdensity_band_check"),),
    "ideals.parse": tuple(("ideals", f) for f in ("natset_from_text", "gridset_from_text", "nodeset_from_text")),
    "ideals.density": (("ideals", "density_profile"),),
    "ideals.summable": (("ideals", "summable_weight"),),
    "ideals.interval": (("ideals", "interval_count"),),
    "ideals.column": (("ideals", "column_profile"),),
    "ideals.phi": (("ideals", "phi"), ("ideals", "minimal_elements")),
    "ideals.antichain": (("ideals", "max_antichain_weight"),),
    "ideals.phi_bar": (("ideals", "phi_bar_profile"),),
    "game.play": (("game", "play"),),
    "katetov.parse": (("katetov", "parse_ideal_text"), ("katetov", "parse_morphism_text")),
    "katetov.build": (("katetov", "builtin_witness"), ("katetov", "counterexample_witness")),
    "katetov.check": (("katetov", "check_morphism"),),
    "katetov.accepts": tuple(("katetov", f"{cls}.accepts") for cls in (
        "DensityWindowSurrogate", "ColumnBoundSurrogate", "GeneratorUnionSurrogate", "SummableBoundSurrogate")),
}


class _Frame:
    __slots__ = ("layer", "child_ns")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_ns = 0


class Tracer:
    """Aggregated spans and work counts of the wrapped layers."""

    def __init__(self):
        self.total_ns = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = {"search.explored": 0, "search.bound": 0, "game.rounds": 0, "katetov.generators": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bounds: dict[tuple[int, int], int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        count = self._counter(layer)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            outer = any(f.layer == layer for f in stack)
            frame = _Frame(layer)
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1].child_ns += elapsed
                with self._lock:
                    self.calls[layer] += 1
                    self.self_ns[layer] += elapsed - frame.child_ns
                    if not outer:
                        self.total_ns[layer] += elapsed
            if count is not None:
                count(args, result)
            return result

        return span

    def _counter(self, layer: str):
        if layer == "search.search":
            return self._count_search
        if layer == "game.play":
            return lambda args, transcript: self._add("game.rounds", len(transcript.rounds))
        if layer == "katetov.check":
            return lambda args, report: self._add("katetov.generators", len(report.checks))
        return None

    def _add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def _count_search(self, args, result) -> None:
        from hlbench.search import enumeration_bound

        coloring, budget = args[0], args[1]
        key = (coloring.depth, budget.height)
        if key not in self._bounds:
            self._bounds[key] = enumeration_bound(*key)
        with self._lock:
            self.counts["search.explored"] += result.explored
            self.counts["search.bound"] += self._bounds[key]

    def install(self) -> None:
        """Rebind every binding of every listed function to its span wrapper."""
        modules = [m for name, m in list(sys.modules.items()) if name == "hlbench" or name.startswith("hlbench.")]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(f"hlbench.{module_name}")
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                for holder in [owner] if classes else modules:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, name, original))
                            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer figures over `ops` traced ops: name -> (value, unit).

    `<layer>_ms` is total span time, except that `cli.self_ms` and
    `colorings.pairing_check_ms` are self time (the CLI minus every wrapped
    library call; the pairing check minus its `h_set` calls).
    """
    def ms(ns: int) -> float:
        return ns / 1e6 / ops

    out = {}
    for layer in LAYERS:
        if layer == "cli.main":
            out["cli.self_ms"] = (ms(tracer.self_ns[layer]), "ms")
        elif layer == "colorings.pairing_check":
            out[f"{layer}_ms"] = (ms(tracer.self_ns[layer]), "ms")
        else:
            out[f"{layer}_ms"] = (ms(tracer.total_ns[layer]), "ms")
    explored, bound = tracer.counts["search.explored"], tracer.counts["search.bound"]
    out["search.explored"] = (explored / ops, "count")
    out["search.explored_per_bound"] = (explored / bound if bound else 0.0, "ratio")
    out["search.ns_per_explored"] = (tracer.total_ns["search.search"] / explored if explored else 0.0, "ns")
    out["colorings.h_set_calls"] = (tracer.calls["colorings.h_set"] / ops, "count")
    out["game.rounds"] = (tracer.counts["game.rounds"] / ops, "count")
    out["katetov.generators_checked"] = (tracer.counts["katetov.generators"] / ops, "count")
    return out
