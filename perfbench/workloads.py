"""The benchmark's workloads: inputs made from a seed, and one pass over them.

Each workload is a closed loop with one client: this process issues its
calls one after another and waits for each. ``prepare`` is the set-up
(data generation and problem construction); ``run`` is one timed pass and
returns the table it produced plus every policy the output check re-verifies.

Calls go through module attributes (``alloc.solve_bnb``, not a name imported
into this file), so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from doseuplift import alloc, datagen, estimators, experiments

DEFAULT_SEED = 2024  # the seed of the ROADMAP Baseline table
HELD_OUT_SEED = 7919  # not used while tuning; for checking later claims
DELTA = 10


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the self-test shrinks them, the benchmark never does."""

    exp1_n: int = 747
    exp1_trees: int = 50
    exp1_caps: tuple[float, ...] = (140.0, 250.0)
    exp1_step: float = 10.0
    bnb_n: int = 747
    bnb_budget: float = 140.0
    bnb_node_limit: int = 1


@dataclass
class Solve:
    """One allocation solve whose returned policy the output check verifies."""

    label: str
    problem: alloc.AllocationProblem
    report: alloc.SolveReport


@dataclass
class Pass:
    """What one pass produced. ``table`` holds the tabulated numbers."""

    table: dict[str, float]
    solves: list[Solve]
    attempted: int  # estimator fits + allocation solves
    raised: list[str] = field(default_factory=list)
    csv_bytes: int = 0


class Workload:
    name = ""
    why = ""
    allocation_solves = 0  # set by prepare: solves one pass issues

    def prepare(self, seed: int, sizes: Sizes, workdir: Path):
        raise NotImplementedError

    def run(self, inputs) -> Pass:
        raise NotImplementedError


def _attempt(pass_: Pass, label: str, call):
    """Run one operation; a raise is recorded as a failed operation."""
    try:
        return call()
    except Exception as exc:  # the pass goes on and counts the failure
        pass_.raised.append(f"{label}: {exc!r}")
        return None


class Exp1Estimate(Workload):
    """``experiments.run_exp1``: rf, binned and oracle estimators, greedy and DP curves.

    Why: the forest, the estimators and the budget-only DP do all the work
    (at seed 2024: RF fit ~3.4 s, RF predict ~1.7 s, binned kNN ~0.9 s,
    175 DP solves ~9 s). ``lpcore`` is never called.
    Predictions: a forest change (ROADMAP item 3) moves ``forest.fit_s`` and
    ``wall_s`` here; a DP-sweep change (item 2d) moves ``alloc.dp_calls``,
    ``alloc.dp_s``, ``wall_s`` and ``solves_per_s``. A simplex or B&B change
    should leave every number here flat.
    """

    name = "exp1-estimate"
    why = "forest fit/predict, binned kNN and 175 budget-only DP solves; lpcore is never called"

    def prepare(self, seed, sizes, workdir):
        cfg = experiments.ExperimentConfig(
            data=f"synthetic:{sizes.exp1_n}",
            seed=seed,
            delta=DELTA,
            estimators=("rf", "binned", "oracle"),
            rf_trees=(sizes.exp1_trees,),
            auuc_caps=sizes.exp1_caps,
            auuc_step=sizes.exp1_step,
        )
        n_budgets = round(max(cfg.auuc_caps) / cfg.auuc_step)
        # two full-information curves, then per estimator, cap and solver one curve
        curves = 2 + len(cfg.estimators) * len(cfg.auuc_caps) * 2
        self.allocation_solves = n_budgets * curves
        return cfg, workdir

    def run(self, inputs):
        cfg, workdir = inputs
        p = Pass(table={}, solves=[], attempted=len(cfg.estimators) + self.allocation_solves)
        path = _attempt(p, "run_exp1", lambda: experiments.run_exp1(cfg, workdir))
        if path is None:
            return p
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            for row in reader:
                for col, val in zip(header[1:], row[1:]):
                    p.table[f"{row[0]}.{col}"] = float(val)
        p.csv_bytes = path.stat().st_size + Path(str(path) + ".meta").stat().st_size
        return p


class Bnb747(Workload):
    """``alloc.solve_bnb`` at paper scale: n=747, oracle effects, B=140.

    One problem is budget-only, the other has eps_dt = eps_do = 0.25. Both
    stop after one node, so a pass is two root LPs on a dense 752 x 8,222
    tableau (~49 MB, over 10x the 4 MiB L2), plus the rounding heuristic.
    One node keeps the work per pass fixed: with more nodes, whether the
    budget-only root is already integral decides between 1 and N LPs.
    Why: ``lpcore`` and ``alloc`` do all the work, which ``exp1-estimate``
    never calls: pivots are bound by memory traffic and RSS is large.
    Predictions: the structural solver of ROADMAP item 2 moves ``wall_s``,
    ``peak_rss_mb``, ``lpcore.tableau_mb``, ``lpcore.us_per_pivot`` and
    ``alloc.bnb_gap_rel`` here; ``forest.*`` stays 0 and ``setup_s`` flat.
    """

    name = "bnb-747"
    why = "two paper-scale root LPs on a ~49 MB dense tableau; memory-bound pivots, large RSS"

    def prepare(self, seed, sizes, workdir):
        cov = datagen.synth_covariates(sizes.bnb_n, seed)
        ds, gt = datagen.generate_dataset(cov, datagen.GenConfig(seed=seed))
        cade = estimators.cade_matrix(estimators.oracle_estimator(gt), ds, DELTA)
        problems = [
            ("budget-only", alloc.make_problem(cade, budget=sizes.bnb_budget, groups=ds.protected)),
            (
                "eps-0.25",
                alloc.make_problem(
                    cade, budget=sizes.bnb_budget, groups=ds.protected, eps_dt=0.25, eps_do=0.25
                ),
            ),
        ]
        self.allocation_solves = len(problems)
        return problems, sizes.bnb_node_limit

    def run(self, inputs):
        problems, node_limit = inputs
        p = Pass(table={}, solves=[], attempted=self.allocation_solves)
        for label, prob in problems:
            rep = _attempt(p, label, lambda: alloc.solve_bnb(prob, node_limit=node_limit))
            if rep is not None:
                p.solves.append(Solve(label, prob, rep))
                p.table[f"{label}.root_bound"] = rep.root_bound
        return p


WORKLOADS = {w.name: w for w in (Exp1Estimate, Bnb747)}
