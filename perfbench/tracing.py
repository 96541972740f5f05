"""Spans recorded around calls into the package's public entry points.

Tracing lives entirely in the benchmark: ``patched`` replaces each entry
point, at the name its callers look it up, with a wrapper that records one
span per call, and puts the originals back on exit. The package modules
import these names into their own namespaces (``from .lpcore import
solve_lp``), so the wrapper has to be installed in the caller's module, not
only in the defining one.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<function>"
    start: float
    end: float
    run: str  # which part of the benchmark run issued the call
    info: dict = field(default_factory=dict)  # counts taken at the boundary

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``run`` labels the spans of the current phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[Span] = []

    def wrap(self, name, fn, counts=None):
        """Return ``fn`` recording a span; ``counts(args, kwargs, result)`` adds info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter(), float("nan"), self.run)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.info.update(counts(args, kwargs, result))
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# --------------------------------------------------------------------------
# counts taken at each boundary
# --------------------------------------------------------------------------

def _lp_counts(args, kwargs, sol):
    problem = args[0]
    n_free = int(np.count_nonzero(problem.lower < problem.upper))
    n_slack = sum(1 for s in problem.senses if s != "=")
    return {
        "pivots": int(sol.iterations),
        "infeasible": sol.status == "infeasible",
        # the dense tableau solve_lp allocates: rows x (free + slack columns)
        "tableau_bytes": problem.n_rows * (n_free + n_slack) * 8,
    }


def _solve_counts(args, kwargs, report):
    return {"status": report.status, "nodes": int(report.nodes)}


def _dp_counts(args, kwargs, report):
    prob = args[0]
    resolution = kwargs.get("cost_resolution") or (args[1] if len(args) > 1 else None) or prob.delta
    int_costs = np.rint(prob.costs * resolution).astype(np.int64)
    cap = int(np.floor(prob.budget * resolution + 1e-9))
    cap = min(cap, int(int_costs.max(axis=1).sum()))
    return {"status": report.status, "cells": prob.n * (cap + 1)}


def _fit_counts(args, kwargs, forest):
    return {
        "trees": len(forest.trees),
        "tree_nodes": int(sum(t.feature.shape[0] for t in forest.trees)),
    }


def _predict_counts(args, kwargs, result):
    forest, x_mat = args[0], args[1]
    return {"row_trees": int(np.asarray(x_mat).shape[0]) * len(forest.trees)}


def _binned_counts(args, kwargs, result):
    return {"queries": int(result.size)}


def _targets():
    """(owner, attribute, span name, counts) for every traced entry point."""
    from doseuplift import alloc, datagen, estimators, experiments, forest, metrics

    rf = forest.RandomForestRegressor
    return [
        # datagen: generation and the ground-truth surface behind the oracle
        (datagen, "synth_covariates", "datagen.synth_covariates", None),
        (datagen, "generate_dataset", "datagen.generate_dataset", None),
        (experiments, "synth_covariates", "datagen.synth_covariates", None),
        (experiments, "generate_dataset", "datagen.generate_dataset", None),
        (estimators, "true_cadr_grid", "datagen.true_cadr_grid", None),
        # forest
        (rf, "fit", "forest.fit", _fit_counts),
        (rf, "predict", "forest.predict", _predict_counts),
        # estimators
        (estimators, "cade_matrix", "estimators.cade_matrix", None),
        (experiments, "cade_matrix", "estimators.cade_matrix", None),
        (experiments, "mise", "estimators.mise", None),
        (experiments, "fit_rf_slearner", "estimators.fit_rf_slearner", None),
        (experiments, "fit_binned_slearner", "estimators.fit_binned_slearner", None),
        (estimators.BinnedSLearner, "predict_mu", "estimators.binned_predict", _binned_counts),
        # lpcore, at the one name the B&B looks it up
        (alloc, "solve_lp", "lpcore.solve_lp", _lp_counts),
        # alloc solvers, wherever a caller looks them up
        (alloc, "solve_bnb", "alloc.solve_bnb", _solve_counts),
        (alloc, "solve_dp", "alloc.solve_dp", _dp_counts),
        (alloc, "solve_greedy", "alloc.solve_greedy", _solve_counts),
        (metrics, "solve_bnb", "alloc.solve_bnb", _solve_counts),
        (metrics, "solve_dp", "alloc.solve_dp", _dp_counts),
        (metrics, "solve_greedy", "alloc.solve_greedy", _solve_counts),
        (experiments, "solve_bnb", "alloc.solve_bnb", _solve_counts),
        (experiments, "solve_greedy", "alloc.solve_greedy", _solve_counts),
        # metrics
        (metrics, "solve_exact", "metrics.solve_exact", None),
        (metrics, "value_curve", "metrics.value_curve", None),
        (metrics, "fairness_report", "metrics.fairness_report", None),
        (experiments, "solve_exact", "metrics.solve_exact", None),
        (experiments, "value_curve", "metrics.value_curve", None),
        (experiments, "auuc", "metrics.auuc", None),
        (experiments, "fairness_report", "metrics.fairness_report", None),
        # experiment runners
        (experiments, "run_exp1", "experiments.run_exp1", None),
        (experiments, "run_exp2", "experiments.run_exp2", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers; restore the original objects on exit."""
    saved = []
    try:
        for owner, attr, name, counts in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# per-layer metrics of one traced workload run (set-up spans + one pass)
# --------------------------------------------------------------------------

LAYER_UNITS = {
    "datagen.calls": "count",
    "datagen.busy_s": "s",
    "forest.fit_s": "s",
    "forest.trees": "count",
    "forest.fit_ms_per_tree": "ms/tree",
    "forest.tree_nodes": "count",
    "forest.predict_s": "s",
    "forest.predict_row_trees": "count",
    "forest.predict_ns_per_row_tree": "ns/row-tree",
    "estimators.cade_matrix_calls": "count",
    "estimators.cade_matrix_s": "s",
    "estimators.mise_s": "s",
    "estimators.binned_predict_s": "s",
    "estimators.binned_matrix_s": "s",
    "estimators.binned_queries": "count",
    "estimators.self_s": "s",
    "lpcore.calls": "count",
    "lpcore.busy_s": "s",
    "lpcore.pivots": "count",
    "lpcore.root_pivots": "count",
    "lpcore.pivots_per_call": "pivots/call",
    "lpcore.us_per_pivot": "us/pivot",
    "lpcore.infeasible_ratio": "1",
    "lpcore.tableau_mb": "MB-computed",
    "alloc.bnb_calls": "count",
    "alloc.bnb_s": "s",
    "alloc.bnb_ms.p50": "ms",
    "alloc.bnb_nodes": "count",
    "alloc.bnb_ms_per_node": "ms/node",
    "alloc.bnb_self_s": "s",
    "alloc.bnb_root_s": "s",
    "alloc.bnb_optimal_ratio": "1",
    "alloc.bnb_gap_rel": "1",
    "alloc.dp_calls": "count",
    "alloc.dp_s": "s",
    "alloc.dp_ms.p50": "ms",
    "alloc.dp_ms.p90": "ms",
    "alloc.dp_cells": "count",
    "alloc.dp_ns_per_cell": "ns/cell",
    "alloc.greedy_calls": "count",
    "alloc.greedy_s": "s",
    "metrics.value_curve_calls": "count",
    "metrics.value_curve_s": "s",
    "metrics.exact_curve_s.p50": "s",
    "metrics.curve_solves": "count",
    "metrics.self_s": "s",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def root_lps(spans: list[Span]) -> list[Span]:
    """The first LP span of every B&B call, in call order."""
    first = {}
    for s in spans:
        if s.name == "lpcore.solve_lp":
            first.setdefault(s.parent, s)
    return [first[b.id] for b in spans if b.name == "alloc.solve_bnb" and b.id in first]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every LAYER_UNITS metric except those the caller adds (CSV bytes, gap, overhead).

    A layer the run never called reads 0. ``*_s`` busy times count nested
    calls into the same layer once; ``self_s`` subtracts child spans.
    """
    by_id = {s.id: s for s in spans}
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent in by_id:
            kids.setdefault(s.parent, []).append(s)
    selfs = self_times(spans)

    def ancestors(s):
        while s.parent in by_id:
            s = by_id[s.parent]
            yield s

    def descendants(s):
        for c in kids.get(s.id, []):
            yield c
            yield from descendants(c)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(group, same):
        return sum(s.duration for s in group if not any(same(a) for a in ancestors(s)))

    def layer(name):
        return [s for s in spans if s.layer == name]

    def layer_self(name):
        return sum(selfs[s.id] for s in layer(name))

    def total(group, key):
        return sum(s.info[key] for s in group)

    m: dict[str, float] = {}
    dg = layer("datagen")
    m["datagen.calls"] = len(dg)
    m["datagen.busy_s"] = busy(dg, lambda a: a.layer == "datagen")

    fit, pred = named("forest.fit"), named("forest.predict")
    m["forest.fit_s"] = sum(s.duration for s in fit)
    m["forest.trees"] = total(fit, "trees")
    m["forest.fit_ms_per_tree"] = _ratio(m["forest.fit_s"], m["forest.trees"], 1e3)
    m["forest.tree_nodes"] = total(fit, "tree_nodes")
    m["forest.predict_s"] = sum(s.duration for s in pred)
    m["forest.predict_row_trees"] = total(pred, "row_trees")
    m["forest.predict_ns_per_row_tree"] = _ratio(m["forest.predict_s"], m["forest.predict_row_trees"], 1e9)

    def est_busy(name):
        return busy(named(name), lambda a: a.name == name)

    m["estimators.cade_matrix_calls"] = sum(
        1 for s in named("estimators.cade_matrix") if not any(a.name == s.name for a in ancestors(s))
    )
    m["estimators.cade_matrix_s"] = est_busy("estimators.cade_matrix")
    m["estimators.mise_s"] = est_busy("estimators.mise")
    m["estimators.binned_predict_s"] = est_busy("estimators.binned_predict")
    m["estimators.binned_matrix_s"] = sum(
        s.duration
        for s in named("estimators.cade_matrix")
        if any(c.name == "estimators.binned_predict" for c in kids.get(s.id, []))
    )
    m["estimators.binned_queries"] = total(named("estimators.binned_predict"), "queries")
    m["estimators.self_s"] = layer_self("estimators")

    lp, bnb = named("lpcore.solve_lp"), named("alloc.solve_bnb")
    roots = root_lps(spans)
    m["lpcore.calls"] = len(lp)
    m["lpcore.busy_s"] = sum(s.duration for s in lp)
    m["lpcore.pivots"] = total(lp, "pivots")
    m["lpcore.root_pivots"] = total(roots, "pivots")
    m["lpcore.pivots_per_call"] = _ratio(m["lpcore.pivots"], len(lp))
    m["lpcore.us_per_pivot"] = _ratio(m["lpcore.busy_s"], m["lpcore.pivots"], 1e6)
    m["lpcore.infeasible_ratio"] = _ratio(total(lp, "infeasible"), len(lp))
    m["lpcore.tableau_mb"] = max((s.info["tableau_bytes"] for s in lp), default=0) / 1e6

    m["alloc.bnb_calls"] = len(bnb)
    m["alloc.bnb_s"] = sum(s.duration for s in bnb)
    m["alloc.bnb_ms.p50"] = _pct([s.duration * 1e3 for s in bnb], 50)
    m["alloc.bnb_nodes"] = total(bnb, "nodes")
    m["alloc.bnb_ms_per_node"] = _ratio(m["alloc.bnb_s"], m["alloc.bnb_nodes"], 1e3)
    m["alloc.bnb_self_s"] = sum(
        b.duration - sum(c.duration for c in kids.get(b.id, []) if c.layer == "lpcore") for b in bnb
    )
    m["alloc.bnb_root_s"] = sum(r.end - by_id[r.parent].start for r in roots)
    m["alloc.bnb_optimal_ratio"] = _ratio(sum(s.info["status"] == "optimal" for s in bnb), len(bnb))
    dp = named("alloc.solve_dp")
    dp_ms = [s.duration * 1e3 for s in dp]
    m["alloc.dp_calls"] = len(dp)
    m["alloc.dp_s"] = sum(s.duration for s in dp)
    m["alloc.dp_ms.p50"] = _pct(dp_ms, 50)
    m["alloc.dp_ms.p90"] = _pct(dp_ms, 90)
    m["alloc.dp_cells"] = total(dp, "cells")
    m["alloc.dp_ns_per_cell"] = _ratio(m["alloc.dp_s"], m["alloc.dp_cells"], 1e9)
    greedy = named("alloc.solve_greedy")
    m["alloc.greedy_calls"] = len(greedy)
    m["alloc.greedy_s"] = sum(s.duration for s in greedy)

    curves = named("metrics.value_curve")
    m["metrics.value_curve_calls"] = len(curves)
    m["metrics.value_curve_s"] = sum(s.duration for s in curves)
    m["metrics.exact_curve_s.p50"] = _pct(
        [s.duration for s in curves if any(d.name == "alloc.solve_dp" for d in descendants(s))], 50
    )
    m["metrics.curve_solves"] = sum(
        1
        for s in layer("alloc")
        if not any(a.layer == "alloc" for a in ancestors(s))
        and any(a.name == "metrics.value_curve" for a in ancestors(s))
    )
    m["metrics.self_s"] = layer_self("metrics")

    m["experiments.run_s"] = busy(layer("experiments"), lambda a: a.layer == "experiments")
    m["experiments.self_s"] = layer_self("experiments")
    return m
