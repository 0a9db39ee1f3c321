"""Spans and exact counters for the traced run, recorded from outside the
program.

`Tracer.install` wraps the public functions named in LAYERS and rebinds
every reference to them in every loaded `spannerlab` module, so a call
reaches the wrapper whether the caller looks the function up in its
defining module or in a module that imported it by name. Counters are read
from arguments and return values only; nothing under `src/` changes.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_apsp(fn, args, kwargs, result) -> dict:
    g = _bind(fn, args, kwargs)["g"]
    return {"sources": g.n}


def _count_greedy(fn, args, kwargs, result) -> dict:
    return {"edges_scanned": _bind(fn, args, kwargs)["g"].m, "kept": result.m}


def _count_tables(fn, args, kwargs, result) -> dict:
    cells = sum(len(c) for (s, t), c in result.entries.items() if s != t)
    return {"cells": cells, "levels": result.max_level}


def _count_hanging(fn, args, kwargs, result) -> dict:
    return {"pool_edges": len(_bind(fn, args, kwargs)["pool"])}


def _count_pass(fn, args, kwargs, result) -> dict:
    rounds = result[1].rounds
    return {
        "passes": 1,
        "rounds": len(rounds),
        "ratio1_rounds": sum(r.beta == 1 for r in rounds),
        "gain_rounds": sum(r.beta > 1 for r in rounds),
    }


def _count_oracle(fn, args, kwargs, result) -> dict:
    return {"nodes": result.nodes_explored}


# (module, function, layer, counter). A layer's self time sums over its
# functions; `main` minus its children is the CLI glue.
LAYERS = (
    ("spannerlab.cli", "main", "cli.main", None),
    ("spannerlab.graphs", "read_graph", "graphs.parse", None),
    ("spannerlab.graphs", "write_graph", "graphs.write", None),
    ("spannerlab.graphs", "apsp", "graphs.apsp", _count_apsp),
    ("spannerlab.graphs", "stretch", "graphs.stretch", None),
    ("spannerlab.greedy", "greedy_spanner", "greedy.spanner", _count_greedy),
    ("spannerlab.prune", "iterate_prune", "prune.iterate", None),
    ("spannerlab.prune", "prune", "prune.pass", _count_pass),
    ("spannerlab.prune", "prune_round", "prune.pass", None),
    ("spannerlab.prune", "fill_tables", "prune.fill_tables", _count_tables),
    ("spannerlab.prune", "endpoint_hanging_sets", "prune.hanging", _count_hanging),
    ("spannerlab.prune", "select_best_triple", "prune.select", None),
    ("spannerlab.prune", "reconstruct", "prune.reconstruct", None),
    ("spannerlab.prune", "prune_with_scaling", "prune.scaling", None),
    ("spannerlab.prune", "contract_and_round", "prune.contract", None),
    ("spannerlab.oracle", "exact_opt_spanner", "oracle.search", _count_oracle),
    ("spannerlab.oracle", "sat_brute_force", "oracle.sat", None),
    ("spannerlab.hardness", "reduce_sat", "hardness.reduce", None),
    ("spannerlab.hardness", "assignment_to_spanner", "hardness.convert", None),
    ("spannerlab.instances", "gen_ladder", "instances.gen", None),
    ("spannerlab.instances", "gen_multiladder", "instances.gen", None),
    ("spannerlab.instances", "gen_greedy_hard", "instances.gen", None),
)


def _spannerlab_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "spannerlab" or name.startswith("spannerlab.")]


class Tracer:
    """Keeps spans in memory: name, layer, start, end, self time, parent,
    job id and counts. Single-threaded, like the program it traces."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[list] = []  # [span, seconds covered by children]
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "layer": layer, "job": self.job,
                    "parent": self._stack[-1][0]["id"] if self._stack else None}
            self.spans.append(span)
            frame = [span, 0.0]
            self._stack.append(frame)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = end = time.perf_counter()
                self._stack.pop()
                took = end - span["start"]
                span["self"] = took - frame[1]
                if self._stack:
                    self._stack[-1][1] += took
            span["counts"] = counter(fn, args, kwargs, result) if counter else {}
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function of the currently loaded spannerlab
        modules and rebind each reference to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _spannerlab_modules()
        for modname, fname, layer, counter in LAYERS:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(f"{modname.split('.', 1)[1]}.{fname}", layer, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- per-layer metrics ----------------------------------------------------------

# Layers that run only while inputs are made; reported per set-up, every other
# layer per traced batch.
SETUP_LAYERS = ("instances.gen", "hardness.reduce", "hardness.convert", "oracle.sat")

TIME_LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in LAYERS))

# metric -> (layer, what is summed); "calls" counts spans.
COUNT_METRICS = {
    "prune.fill_tables.calls": ("prune.fill_tables", "calls"),
    "prune.cells": ("prune.fill_tables", "cells"),
    "prune.levels": ("prune.fill_tables", "levels"),
    "prune.hanging.pool_edges": ("prune.hanging", "pool_edges"),
    "prune.passes": ("prune.pass", "passes"),
    "prune.rounds": ("prune.pass", "rounds"),
    "prune.ratio1_rounds": ("prune.pass", "ratio1_rounds"),
    "oracle.calls": ("oracle.search", "calls"),
    "oracle.nodes": ("oracle.search", "nodes"),
    "graphs.apsp.calls": ("graphs.apsp", "calls"),
    "graphs.apsp.sources": ("graphs.apsp", "sources"),
    "graphs.stretch.calls": ("graphs.stretch", "calls"),
    "graphs.parse.calls": ("graphs.parse", "calls"),
    "greedy.calls": ("greedy.spanner", "calls"),
    "greedy.edges_scanned": ("greedy.spanner", "edges_scanned"),
}

# metric -> ((layer, count) numerator, (layer, count) denominator); 0 when nothing ran.
RATIO_METRICS = {
    "prune.cells_per_level": (("prune.fill_tables", "cells"), ("prune.fill_tables", "levels")),
    "prune.gain_round_ratio": (("prune.pass", "gain_rounds"), ("prune.pass", "rounds")),
    "greedy.kept_ratio": (("greedy.spanner", "kept"), ("greedy.spanner", "edges_scanned")),
}


def _sums(spans) -> tuple[dict, dict]:
    """Self seconds per layer, and (layer, count) sums with span counts as
    (layer, "calls")."""
    seconds: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    for span in spans:
        seconds[span["layer"]] += span["self"]
        counts[(span["layer"], "calls")] += 1
        for key, value in span.get("counts", {}).items():
            counts[(span["layer"], key)] += value
    return seconds, counts


def layer_counts(spans) -> dict:
    """Every exact counter in `spans`, keyed "layer.count"; for comparing runs."""
    return {f"{layer}.{key}": value for (layer, key), value in sorted(_sums(spans)[1].items())}


def per_layer_metrics(batch_spans, batches: int, setup_spans, setups: int) -> dict:
    """Per-layer metrics: seconds and counts per traced batch (per set-up for
    SETUP_LAYERS) plus ratios, each as {"value", "unit"}."""
    batch_s, batch_c = _sums(batch_spans)
    setup_s, _ = _sums(setup_spans)
    out = {}
    for layer in TIME_LAYERS:
        value = setup_s[layer] / setups if layer in SETUP_LAYERS else batch_s[layer] / batches
        out[f"{layer}_s"] = {"value": value, "unit": "s"}
    for metric, key in COUNT_METRICS.items():
        out[metric] = {"value": batch_c[key] / batches, "unit": "count"}
    for metric, (num, den) in RATIO_METRICS.items():
        out[metric] = {"value": batch_c[num] / batch_c[den] if batch_c[den] else 0.0, "unit": "ratio"}
    return out
