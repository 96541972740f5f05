"""Tests for regret, value curves, normalized areas, and fairness reports."""

import numpy as np
import pytest

from doseuplift.alloc import (
    SOLVERS,
    AllocError,
    Policy,
    make_problem,
    policy_value,
    solve_bnb,
    solve_exact,
    solve_greedy,
)
from doseuplift.cli import build_parser
from doseuplift.datagen import GenConfig, generate_dataset, synth_covariates
from doseuplift.estimators import (
    CadeMatrix,
    RfConfig,
    cade_matrix,
    fit_rf_slearner,
    oracle_estimator,
)
from doseuplift.metrics import (
    MetricError,
    ValueCurve,
    auuc,
    fairness_report,
    regret,
    regret_norm,
    value_curve,
)

from .oracles import brute_force


@pytest.fixture(scope="module")
def pipeline():
    cov = synth_covariates(120, seed=33)
    ds, gt = generate_dataset(cov, GenConfig(seed=33))
    true_cade = cade_matrix(oracle_estimator(gt), ds, delta=10)
    return ds, gt, true_cade


def _curve(budgets, values):
    return ValueCurve(np.asarray(budgets, float), np.asarray(values, float))


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------

def test_regret_arithmetic():
    assert regret(1.0, 0.8) == pytest.approx(0.2, abs=1e-12)
    assert regret(1.0, 1.0) == 0.0


def test_regret_norm_arithmetic():
    assert regret_norm(2.0, 1.5) == pytest.approx(0.25, abs=1e-12)
    assert regret_norm(2.0, 2.0) == 0.0


def test_regret_norm_zero_optimum_is_error():
    with pytest.raises(MetricError):
        regret_norm(0.0, 0.0)


def test_oracle_pipeline_regret_zero(pipeline):
    ds, gt, true_cade = pipeline
    prob = make_problem(true_cade, budget=8.0, groups=ds.protected)
    opt = solve_bnb(prob)
    presc = solve_bnb(prob)  # identical inputs: deterministic solver
    assert regret(opt.objective, presc.objective) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# value curves
# ---------------------------------------------------------------------------

def test_value_curve_monotone_with_oracle(pipeline):
    ds, gt, true_cade = pipeline
    prob = make_problem(true_cade, budget=0.0, groups=ds.protected)
    budgets = np.arange(2.0, 22.0, 2.0)
    curve = value_curve(prob, budgets, solver="exact")
    assert np.all(np.diff(curve.values) >= -1e-9)


def test_value_curve_grid_matches_request(pipeline):
    ds, gt, true_cade = pipeline
    prob = make_problem(true_cade, budget=0.0, groups=ds.protected)
    budgets = np.arange(25.0, 251.0, 25.0)
    curve = value_curve(prob, budgets, solver="greedy")
    assert curve.budgets.shape == (10,)
    assert np.array_equal(curve.budgets, budgets)


def test_prescribed_curve_below_optimal(pipeline):
    ds, gt, true_cade = pipeline
    est = fit_rf_slearner(ds, RfConfig(n_trees=15, seed=5))
    est_cade = cade_matrix(est, ds, delta=10)
    budgets = np.arange(2.0, 14.0, 2.0)
    presc = value_curve(
        make_problem(est_cade, budget=0.0, groups=ds.protected),
        budgets,
        solver="exact",
        evaluation=true_cade,
    )
    opt = value_curve(
        make_problem(true_cade, budget=0.0, groups=ds.protected), budgets, solver="exact"
    )
    assert np.all(presc.values <= opt.values + 1e-9)


def _per_budget_curve(prob, budgets, evaluation):
    """The exact curve as one solve_exact per budget: the reference for the sweep."""
    return np.asarray([
        policy_value(solve_exact(prob.with_budget(float(b))).policy, evaluation, prob.benefits)
        for b in budgets
    ])


def test_exact_curve_equals_per_budget_solves(pipeline):
    ds, gt, true_cade = pipeline
    rng = np.random.default_rng(4)
    noisy = CadeMatrix(  # an estimate-like matrix, scored against the truth
        values=np.clip(true_cade.values + rng.normal(0, 0.05, true_cade.values.shape), -1, 1)
        * (np.arange(11) > 0),
        doses=true_cade.doses,
    )
    prob = make_problem(noisy, budget=0.0, groups=ds.protected, benefits=rng.uniform(0.5, 1.5, 120))
    budgets = np.arange(2.0, 62.0, 4.0)
    curve = value_curve(prob, budgets, solver="exact", evaluation=true_cade)
    assert np.array_equal(curve.values, _per_budget_curve(prob, budgets, true_cade))


def test_exact_fairness_curve_equals_per_budget_bnb(pipeline):
    ds, gt, true_cade = pipeline
    small = CadeMatrix(values=true_cade.values[:10, :5], doses=true_cade.doses[:5] * 2.5)
    prob = make_problem(small, budget=0.0, groups=ds.protected[:10], eps_dt=0.25)
    assert prob.active_fairness()
    budgets = [0.5, 1.0, 2.0, 3.0]
    curve = value_curve(prob, budgets, solver="exact")
    assert np.array_equal(curve.values, _per_budget_curve(prob, budgets, small))


@pytest.mark.parametrize("solver", ["greedy", "exact"])
def test_value_curve_empty_and_invalid_budgets(pipeline, solver):
    ds, gt, true_cade = pipeline
    prob = make_problem(true_cade, budget=0.0, groups=ds.protected)
    curve = value_curve(prob, [], solver=solver)
    assert curve.budgets.shape == (0,) and curve.values.shape == (0,)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(AllocError, match="budget"):
            value_curve(prob, [1.0, bad], solver=solver)


def _allocate_solver_choices():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a.choices for a in commands.choices["allocate"]._actions if a.dest == "solver")


@pytest.mark.parametrize("solver", [*SOLVERS, "simplex"])
def test_value_curve_takes_every_name_of_the_solver_table(pipeline, solver):
    assert list(SOLVERS) == _allocate_solver_choices() == ["greedy", "dp", "bnb", "exact"]
    ds, gt, true_cade = pipeline
    # budget-only, and the proportional costs are integral at the grid resolution
    small = CadeMatrix(values=true_cade.values[:8, :5], doses=true_cade.doses[:5] * 2.5)
    prob = make_problem(small, budget=0.0, groups=ds.protected[:8])
    budgets = [0.5, 1.0, 2.0, 3.0]
    if solver not in SOLVERS:
        with pytest.raises(MetricError, match="unknown solver 'simplex'"):
            value_curve(prob, budgets, solver=solver)
        return
    curve = value_curve(prob, budgets, solver=solver)
    if solver == "greedy":
        expected = [solve_greedy(prob.with_budget(b)).objective for b in budgets]
        assert np.array_equal(curve.values, expected)
    else:
        expected = [brute_force(prob.with_budget(b)).objective for b in budgets]
        assert curve.values == pytest.approx(expected, abs=1e-9)


def test_value_curve_rejects_unsorted_budgets():
    with pytest.raises(MetricError):
        _curve([1.0, 1.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# AUUC
# ---------------------------------------------------------------------------

def test_auuc_identity():
    c = _curve([1, 2, 3], [0.5, 0.8, 0.9])
    assert auuc(c, c) == pytest.approx(1.0, abs=1e-12)


def test_auuc_zero_curve():
    opt = _curve([1, 2, 3], [0.5, 0.8, 0.9])
    zero = _curve([1, 2, 3], [0.0, 0.0, 0.0])
    assert auuc(zero, opt) == 0.0


def test_auuc_linear_scaling():
    opt = _curve([1, 2, 3], [0.5, 0.8, 0.9])
    half = _curve([1, 2, 3], [0.25, 0.4, 0.45])
    assert auuc(half, opt) == pytest.approx(0.5, abs=1e-12)


def test_auuc_mismatched_grids_error():
    with pytest.raises(MetricError):
        auuc(_curve([1, 2], [0.1, 0.2]), _curve([1, 3], [0.1, 0.2]))


def test_auuc_zero_optimal_area_error():
    with pytest.raises(MetricError):
        auuc(_curve([1, 2], [0.1, 0.2]), _curve([1, 2], [0.0, 0.0]))


def test_auuc_prepends_zero_anchor():
    # areas include the segment from (0, 0) up to the first grid point
    opt = _curve([2.0], [1.0])  # area = 1.0 (triangle)
    flat = _curve([2.0], [0.5])  # area = 0.5
    assert auuc(flat, opt) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# fairness reports
# ---------------------------------------------------------------------------

def test_fairness_report_equal_doses():
    cade = CadeMatrix(
        values=np.asarray([[0.0, 0.2], [0.0, 0.1]]),
        doses=np.asarray([0.0, 1.0]),
    )
    p = Policy(np.asarray([1, 1]), 2)
    rep = fairness_report(p, cade, np.asarray([0, 1]))
    assert rep.mean_dose_g0 / rep.mean_dose_g1 == pytest.approx(1.0, abs=1e-12)
    assert rep.mean_gain_g0 == pytest.approx(0.2, abs=1e-12)
    assert rep.mean_gain_g1 == pytest.approx(0.1, abs=1e-12)


def test_fairness_report_all_zero_policy():
    cade = CadeMatrix(
        values=np.asarray([[0.0, 0.2], [0.0, 0.1]]),
        doses=np.asarray([0.0, 1.0]),
    )
    p = Policy(np.asarray([0, 0]), 2)
    rep = fairness_report(p, cade, np.asarray([0, 1]))
    assert rep.mean_gain_g0 == 0.0 and rep.mean_gain_g1 == 0.0


def test_fairness_report_empty_group_error():
    cade = CadeMatrix(values=np.asarray([[0.0, 0.2]]), doses=np.asarray([0.0, 1.0]))
    p = Policy(np.asarray([1]), 2)
    with pytest.raises(MetricError):
        fairness_report(p, cade, np.asarray([0]))


def test_fairness_report_replays_solver_constraint(pipeline):
    ds, gt, true_cade = pipeline
    prob = make_problem(
        true_cade, budget=10.0, groups=ds.protected, eps_dt=0.1
    )
    report = solve_bnb(prob)
    rep = fairness_report(report.policy, true_cade, ds.protected)
    ratio = rep.mean_dose_g0 / rep.mean_dose_g1
    assert 0.9 - 1e-7 <= ratio <= 1.1 + 1e-7
