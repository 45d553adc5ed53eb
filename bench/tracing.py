"""Per-layer spans recorded from outside the library.

The tracer wraps the public functions of each layer module in place,
records one span per call (name, start, end, parent) in memory, and
derives per-layer counts and times from the spans once a pass is over.
Nothing inside ``spinscape`` knows it is being traced.

``from .x import y`` binds ``y`` again in every importing module, and
``spinscape.landscape`` resolves to the function rather than to the
module, so modules are fetched from ``sys.modules`` and every module
attribute that *is* the original function is replaced. A wrapped name
that no longer exists is reported as absent instead of failing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Public functions wrapped per layer module (``spinscape.<layer>``).
TARGETS: dict[str, tuple[str, ...]] = {
    "spin": ("build_hamiltonian", "spin_matrices"),
    "eig": ("eigh",),
    "landscape": ("landscape", "critical_points"),
    "separatrix": ("classify_cell_edges", "sweep_crossings"),
    "observables": ("fidelity_map", "heatcap_map", "thermo"),
    "writers": ("write_table",),
    "cli": ("main",),
}


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


# Each hook turns (function, args, kwargs, result) into the derived
# counts of one span. A hook that no longer fits the signature records
# nothing; the counts it feeds then read 0.


def _plane_counts(fn, args, kwargs, result) -> dict[str, float]:
    plane = _bound(fn, args, kwargs)["plane"]
    n1, n2 = plane.shape
    events = sum(len(line) for kind in ("bifurcation", "maxwell_minima", "maxwell_maxima")
                 for line in getattr(result, kind))
    return {"nodes": n1 * n2, "events": events}


def _sweep_counts(fn, args, kwargs, result) -> dict[str, float]:
    samples = int(_bound(fn, args, kwargs)["samples"])
    events = (len(result.bifurcation_values) + len(result.maxwell_values)
              + len(result.maxwell_maxima_values))
    return {"nodes": samples, "events": events}


def _map_counts(fn, args, kwargs, result) -> dict[str, float]:
    bound = _bound(fn, args, kwargs)
    return {"nodes": int(np.size(bound["bz_values"]) * np.size(bound["bx_values"]))}


def _eigh_counts(fn, args, kwargs, result) -> dict[str, float]:
    # called once per spectrum, so it skips the signature binding
    n = int((args[0] if args else kwargs["h"]).shape[0])
    return {"n3": n**3}


def _write_counts(fn, args, kwargs, result) -> dict[str, float]:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


HOOKS: dict[str, Callable] = {
    "separatrix.classify_cell_edges": _plane_counts,
    "separatrix.sweep_crossings": _sweep_counts,
    "observables.fidelity_map": _map_counts,
    "observables.heatcap_map": _map_counts,
    "eig.eigh": _eigh_counts,
    "writers.write_table": _write_counts,
}


class Spans:
    """Spans as parallel lists of plain values.

    Flat lists of floats and ints add no objects for the garbage
    collector to scan, where one list per span would slow the traced
    program down as the trace grows.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.extra: dict[int, dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self.name)

    def clear(self) -> None:
        for column in (self.name, self.start, self.end, self.parent):
            column.clear()
        self.extra.clear()


class Tracer:
    """Wraps the layer functions while installed; keeps spans in memory."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        names, starts, ends, parents = spans.name, spans.start, spans.end, spans.parent
        hook = HOOKS.get(name)
        errors = self.hook_errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    spans.extra[idx] = hook(fn, args, kwargs, result)
                except (TypeError, KeyError, AttributeError, OSError) as exc:
                    errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "spinscape" or key.startswith("spinscape."))]
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"spinscape.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write(self, path: Path) -> None:
        """Write the recorded spans as CSV: index, name, start, end, parent."""
        s = self.spans
        t0 = s.start[0] if len(s) else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(s)):
                fh.write(f"{i},{s.name[i]},{s.start[i] - t0:.9f},{s.end[i] - t0:.9f},{s.parent[i]}\n")


def _ancestor(spans: Spans, idx: int, prefix: str) -> int:
    """Index of the nearest ancestor whose name starts with prefix, or -1."""
    parent = spans.parent[idx]
    while parent >= 0:
        if spans.name[parent].startswith(prefix):
            return parent
        parent = spans.parent[parent]
    return -1


def _root(spans: Spans, idx: int) -> int:
    while spans.parent[idx] >= 0:
        idx = spans.parent[idx]
    return idx


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer counts and times of one pass, derived from its spans."""
    n = len(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child = [0.0] * n
    dur = [spans.end[i] - spans.start[i] for i in range(n)]
    for i in range(n):
        calls[spans.name[i]] += 1
        total[spans.name[i]] += dur[i]
        if spans.parent[i] >= 0:
            child[spans.parent[i]] += dur[i]
    self_time: dict[str, float] = defaultdict(float)
    for i in range(n):
        self_time[spans.name[i]] += dur[i] - child[i]

    def extra_sum(name: str, key: str) -> float:
        return float(sum(e.get(key, 0) for i, e in spans.extra.items() if spans.name[i] == name))

    def under(name: str, prefix: str) -> int:
        return sum(1 for i in range(n) if spans.name[i] == name and _ancestor(spans, i, prefix) >= 0)

    node_evals = extra_sum("separatrix.classify_cell_edges", "nodes") + extra_sum(
        "separatrix.sweep_crossings", "nodes")
    events = extra_sum("separatrix.classify_cell_edges", "events") + extra_sum(
        "separatrix.sweep_crossings", "events")
    refine_evals = under("landscape.landscape", "separatrix.") - node_evals

    # spectra per grid node: eigh calls made under a map call, over the
    # distinct (job, grid size) pairs the maps covered, so a job that
    # diagonalises its grid once per temperature reads above 1.
    grids = {(_root(spans, i), e["nodes"]) for i, e in spans.extra.items()
             if spans.name[i] in ("observables.fidelity_map", "observables.heatcap_map")}
    grid_nodes = sum(nodes for _, nodes in grids)
    map_spectra = under("eig.eigh", "observables.")

    obs_self = sum(v for k, v in self_time.items() if k.startswith("observables."))
    return {
        "spin.build_hamiltonian.calls": calls["spin.build_hamiltonian"],
        "spin.build_hamiltonian.s": total["spin.build_hamiltonian"],
        "spin.spin_matrices.calls": calls["spin.spin_matrices"],
        "eig.eigh.calls": calls["eig.eigh"],
        "eig.eigh.s": total["eig.eigh"],
        "eig.eigh.n3_sum": extra_sum("eig.eigh", "n3"),
        "landscape.landscape.calls": calls["landscape.landscape"],
        "landscape.landscape.s": total["landscape.landscape"],
        "landscape.critical_points.calls": calls["landscape.critical_points"],
        "landscape.critical_points.s": total["landscape.critical_points"],
        "separatrix.classify_cell_edges.self_s": self_time["separatrix.classify_cell_edges"],
        "separatrix.sweep_crossings.self_s": self_time["separatrix.sweep_crossings"],
        "separatrix.node_evals": node_evals,
        "separatrix.refine_evals": refine_evals,
        "separatrix.events": events,
        "separatrix.refine_evals_per_event": refine_evals / events if events else 0.0,
        "observables.fidelity_map.s": total["observables.fidelity_map"],
        "observables.heatcap_map.s": total["observables.heatcap_map"],
        "observables.self_s": obs_self,
        "observables.thermo.calls": calls["observables.thermo"],
        "observables.spectra_per_node": map_spectra / grid_nodes if grid_nodes else 0.0,
        "writers.write_table.calls": calls["writers.write_table"],
        "writers.write_table.s": total["writers.write_table"],
        "writers.bytes": extra_sum("writers.write_table", "bytes"),
        "cli.main.s": total["cli.main"],
        "cli.self_s": self_time["cli.main"],
    }


#: Metrics that count work. They must repeat exactly for one seed.
WORK_COUNTS = tuple(
    key for key in layer_metrics(Spans())
    if key.endswith(".calls") or key in (
        "separatrix.node_evals", "separatrix.refine_evals", "separatrix.events",
        "eig.eigh.n3_sum", "writers.bytes")
)
