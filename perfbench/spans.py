"""Span recording around the public functions of rankregret's modules.

The traced run replaces each function named in ``TRACED`` with a wrapper
on every module of the package that binds it, including names bound by
``from .x import y`` in another module, so nested cross-layer calls get
spans without editing the library.  Spans live in memory (name, start,
end, parent span, operation id, counts) and are written out when the run
ends.  A name the library no longer defines is skipped: its span is then
simply absent.  ``oracle`` and ``cli`` are never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict


def _restricted_skyline_counts(args, kwargs, result):
    return {"kept": len(result), "n": args[0].n}


def _sweep_counts(args, kwargs, result):
    return {"events": int(result.solver_params.get("events", 0))}


def _hd_solve_counts(args, kwargs, result):
    calls = result.solver_params.get("cover_calls", [])
    r = result.solver_params.get("r", 0)
    return {"cover_calls": len(calls), "fits": sum(1 for _, size in calls if size <= r)}


def _disc_counts(args, kwargs, result):
    return {"size": int(result.size)}


def _rank_cells(args, kwargs, result):
    return {"cells": int(len(result)) * int(args[0].n)}


# span name -> counts hook (or None); the span name is "<module>.<function>"
TRACED = {
    "datagen.generate": None,
    "datagen.load_csv": None,
    "skyline.restricted_skyline": _restricted_skyline_counts,
    "solver2d.solve_rrm_2d": _sweep_counts,
    "solver2d.solve_rrr_2d": None,
    "solverhd.solve_rrm_hd": _hd_solve_counts,
    "solverhd.solve_rrr_hd": None,
    "solverhd.build_discretization": _disc_counts,
    "solverhd.sample_sphere": None,
    "solverhd.build_cover": None,
    "solverhd.greedy_min_superset": None,
    "solverhd.discrete_rank_regret": None,
    "core.min_ranks_for_vectors": _rank_cells,
    "evaluate.estimate_rank_regret": None,
    "evaluate.max_regret_ratio": None,
}

_BOUND_IN = ("", ".core", ".datagen", ".skyline", ".solver2d", ".solverhd", ".evaluate")


class Tracer:
    """In-memory span recorder; records only while ``recording`` is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.recording = False
        self.op = None      # identifier shared by the spans of one operation
        self.phase = None   # ("setup", i) or ("pass", i)
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [importlib.import_module("rankregret" + suffix) for suffix in _BOUND_IN]
        for name, counts in TRACED.items():
            mod_name, func_name = name.split(".")
            home = importlib.import_module(f"rankregret.{mod_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name, "op": self.op, "phase": self.phase}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the part of it covered by its direct children.

    Children of one span run one after another on a single thread, so
    the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["t1"] - span["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[dict], setup_reps: int, passes: int) -> dict[str, float]:
    """Per-layer values: set-up layers per set-up repetition (median),
    everything else as a per-pass total or a ratio over the traced passes."""
    own = self_times(spans)
    setup = defaultdict(lambda: [0.0] * max(setup_reps, 1))
    total = defaultdict(float)   # inclusive seconds, traced passes
    self_s = defaultdict(float)  # self seconds, traced passes
    counts = defaultdict(float)
    calls = defaultdict(int)
    keep = []
    nested_sweeps = 0
    for span, own_s in zip(spans, own):
        name, dur = span["name"], span["t1"] - span["t0"]
        kind, idx = span["phase"]
        if kind == "setup":
            setup[name][idx] += dur
            continue
        total[name] += dur
        self_s[name] += own_s
        calls[name] += 1
        for key, value in span.get("counts", {}).items():
            counts[f"{name}.{key}"] += value
        if name == "skyline.restricted_skyline" and "counts" in span:
            keep.append(span["counts"]["kept"] / span["counts"]["n"])
        if name == "solver2d.solve_rrm_2d" and span["parent"] is not None \
                and spans[span["parent"]]["name"] == "solver2d.solve_rrr_2d":
            nested_sweeps += 1

    def per_pass(x):
        return x / passes if passes else 0.0

    def setup_median(name):
        return statistics.median(setup[name]) if name in setup else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "datagen.generate_s": setup_median("datagen.generate"),
        "datagen.load_csv_s": setup_median("datagen.load_csv"),
        "skyline.restricted_skyline_s": per_pass(total["skyline.restricted_skyline"]),
        "skyline.keep_ratio": sum(keep) / len(keep) if keep else 0.0,
        "solver2d.sweep_self_s": per_pass(self_s["solver2d.solve_rrm_2d"]),
        "solver2d.events": per_pass(counts["solver2d.solve_rrm_2d.events"]),
        "solver2d.sweeps_per_query": ratio(nested_sweeps, calls["solver2d.solve_rrr_2d"]),
        "solverhd.solve_self_s": per_pass(self_s["solverhd.solve_rrm_hd"]
                                          + self_s["solverhd.solve_rrr_hd"]),
        "solverhd.build_discretization_s": per_pass(total["solverhd.build_discretization"]),
        "solverhd.sample_sphere_s": per_pass(total["solverhd.sample_sphere"]),
        "solverhd.disc_size": ratio(counts["solverhd.build_discretization.size"],
                                    calls["solverhd.build_discretization"]),
        "solverhd.build_cover_s": per_pass(total["solverhd.build_cover"]),
        "solverhd.greedy_self_s": per_pass(self_s["solverhd.greedy_min_superset"]),
        "solverhd.cover_calls": per_pass(counts["solverhd.solve_rrm_hd.cover_calls"]),
        "solverhd.fit_ratio": ratio(counts["solverhd.solve_rrm_hd.fits"],
                                    counts["solverhd.solve_rrm_hd.cover_calls"]),
        "solverhd.verify_s": per_pass(total["solverhd.discrete_rank_regret"]),
        "core.min_ranks_s": per_pass(total["core.min_ranks_for_vectors"]),
        "core.rank_cells": per_pass(counts["core.min_ranks_for_vectors.cells"]),
        "evaluate.estimate_self_s": per_pass(self_s["evaluate.estimate_rank_regret"]),
        "evaluate.max_regret_ratio_self_s": per_pass(self_s["evaluate.max_regret_ratio"]),
    }
