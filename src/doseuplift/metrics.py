"""Evaluation of allocation quality: regret, value curves, areas, fairness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# solve_bnb, solve_dp, solve_exact and solve_greedy are not called here; they
# stay in this namespace only because the benchmark's tracer
# (perfbench/tracing.py) patches the solver names here.
from .alloc import (  # noqa: F401
    SOLVERS,
    AllocationProblem,
    Policy,
    fairness_weights,
    group_means,
    policy_value,
    solve_bnb,
    solve_dp,
    solve_exact,
    solve_greedy,
)
from .estimators import CadeMatrix


class MetricError(ValueError):
    """Raised for undefined metric evaluations (e.g. zero-value normalizers)."""


@dataclass(frozen=True)
class ValueCurve:
    """Objective value at each budget of an ascending grid."""

    budgets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        budgets = np.asarray(self.budgets, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if budgets.shape != values.shape or budgets.ndim != 1:
            raise MetricError("budgets and values must be matching 1-d arrays")
        if np.any(np.diff(budgets) <= 0):
            raise MetricError("budget grid must be strictly ascending")
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FairnessReport:
    """Group-level summary of an allocation under a given dose-effect matrix."""

    mean_dose_g0: float
    mean_dose_g1: float
    mean_gain_g0: float
    mean_gain_g1: float


def regret(v_opt: float, v_presc: float) -> float:
    """Shortfall of the prescribed allocation against full information."""
    return v_opt - v_presc


def regret_norm(v_opt: float, v_presc: float) -> float:
    """Regret divided by the optimal value; undefined at zero optimum."""
    if v_opt == 0.0:
        raise MetricError("normalized regret is undefined when the optimal value is 0")
    return (v_opt - v_presc) / v_opt


def value_curve(
    problem: AllocationProblem,
    budgets,
    solver: str = "exact",
    evaluation: CadeMatrix | None = None,
) -> ValueCurve:
    """Solve at each budget with the problem's own matrix; evaluate on another.

    ``solver`` names an ``alloc.SOLVERS`` sweep. ``evaluation=None`` scores
    policies against the problem's own dose-effect matrix (the solved
    objective); the ground-truth matrix instead yields the realized-value
    curve of an estimated policy.
    """
    budgets = np.asarray(budgets, dtype=float)
    eval_cade = evaluation if evaluation is not None else problem.cade
    if solver not in SOLVERS:
        raise MetricError(f"unknown solver {solver!r}")
    reports = SOLVERS[solver](problem, budgets)
    values = [policy_value(r.policy, eval_cade, problem.benefits) for r in reports]
    return ValueCurve(budgets=budgets, values=np.asarray(values))


def _area(curve: ValueCurve) -> float:
    b, v = curve.budgets, curve.values
    if b[0] != 0.0:
        b = np.concatenate([[0.0], b])
        v = np.concatenate([[0.0], v])
    return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(b)))


def auuc(curve: ValueCurve, optimal_curve: ValueCurve) -> float:
    """Area under the curve normalized by the full-information curve's area.

    Curves start from an implicit (0, 0) anchor when the grid omits budget 0.
    """
    if not np.array_equal(curve.budgets, optimal_curve.budgets):
        raise MetricError("curves must share the same budget grid")
    denom = _area(optimal_curve)
    if denom == 0.0:
        raise MetricError("optimal curve has zero area; normalization undefined")
    return _area(curve) / denom


def fairness_report(policy: Policy, cade: CadeMatrix, groups: np.ndarray) -> FairnessReport:
    """Mean assigned dose and mean selected dose effect per protected group."""
    groups = np.asarray(groups, dtype=int)
    if policy.shape != cade.values.shape:
        raise MetricError("policy and dose-effect matrix shapes differ")
    if not (np.any(groups == 0) and np.any(groups == 1)):
        raise MetricError("both protected groups must be non-empty")
    weights = fairness_weights(cade)
    dose, gain = (group_means(policy, weights[kind], groups) for kind in ("dose", "outcome"))
    return FairnessReport(*dose, *gain)
