"""Acceptance gate: one test per exit criterion, each at its stated tolerance.

Every test prints a ``CRITERION <n> PASS`` line (visible with ``pytest -s``).
The regenerated benchmark data uses the synthetic covariate fallback at the
original cohort size (747 rows), since the real covariate file is not
shipped; the generator pipeline is identical either way.
"""

import csv
import time

import numpy as np
import pytest

from doseuplift.alloc import (
    AllocationProblem,
    fairness_violation,
    flattening_budget,
    make_problem,
    policy_cost,
    policy_value,
    proportional_costs,
    solve_bnb,
    solve_dp,
    solve_greedy,
)
from doseuplift.datagen import Dataset, GenConfig, generate_dataset, synth_covariates
from doseuplift.estimators import (
    CadeMatrix,
    RfConfig,
    cade_matrix,
    fit_binned_slearner,
    fit_rf_slearner,
    mise,
    oracle_estimator,
)
from doseuplift.experiments import (
    ExperimentConfig,
    oversample_covariates,
    run_exp2,
    run_exp3,
)
from doseuplift.lpcore import LpProblem, constraint_violation, solve_lp
from doseuplift.metrics import ValueCurve, auuc, regret, solve_exact, value_curve

from .oracles import brute_force, simplex_oracle

SEED = 2024
N_BENCH = 747
DELTA = 10


@pytest.fixture(scope="module")
def bench():
    cov = synth_covariates(N_BENCH, seed=SEED)
    ds, gt = generate_dataset(cov, GenConfig(seed=SEED))
    true_cade = cade_matrix(oracle_estimator(gt), ds, DELTA)
    return ds, gt, true_cade


def _random_instance(rng, n_max, delta_max, proportional, with_eps):
    n = int(rng.integers(1, n_max + 1))
    delta = int(rng.integers(1, delta_max + 1))
    vals = rng.uniform(-0.6, 0.9, size=(n, delta + 1))
    vals[:, 0] = 0.0
    cade = CadeMatrix(values=vals, doses=np.arange(delta + 1) / delta, provenance="estimated")
    if proportional:
        costs = proportional_costs(cade)
    else:
        costs = rng.uniform(0.0, 1.0, size=(n, delta + 1))
        costs[:, 0] = 0.0
    eps_dt = eps_do = None
    if with_eps:
        eps_dt = rng.choice([None, 0.0, 0.25, 0.5, 1.0])
        eps_do = rng.choice([None, 0.0, 0.25, 0.5, 1.0])
        eps_dt = None if eps_dt is None else float(eps_dt)
        eps_do = None if eps_do is None else float(eps_do)
    return AllocationProblem(
        cade=cade,
        costs=costs,
        benefits=np.ones(n),
        budget=float(rng.uniform(0.0, costs.max(axis=1).sum())),
        groups=rng.integers(0, 2, size=n),
        eps_dt=eps_dt,
        eps_do=eps_do,
    )


def test_criterion_1_oracle_closure(bench):
    """Oracle estimator: MISE 0, zero regret on the budget grid, areas 1.000."""
    t0 = time.time()
    ds, gt, true_cade = bench
    est = oracle_estimator(gt)
    assert mise(est, gt, ds) == 0.0

    est_cade = cade_matrix(est, ds, DELTA)
    budgets = np.arange(25.0, 251.0, 25.0)
    worst = 0.0
    for b in budgets:
        opt = solve_exact(make_problem(true_cade, budget=float(b), groups=ds.protected))
        presc_rep = solve_exact(make_problem(est_cade, budget=float(b), groups=ds.protected))
        v_opt = policy_value(opt.policy, true_cade)
        v_presc = policy_value(presc_rep.policy, true_cade)
        worst = max(worst, abs(regret(v_opt, v_presc)))
    assert worst <= 1e-9

    grid = np.arange(10.0, 251.0, 10.0)
    presc_curve = value_curve(
        make_problem(est_cade, budget=0.0, groups=ds.protected),
        grid,
        solver="exact",
        evaluation=true_cade,
    )
    opt_curve = value_curve(
        make_problem(true_cade, budget=0.0, groups=ds.protected), grid, solver="exact"
    )
    areas = {}
    for cap in (140.0, 250.0):
        mask = grid <= cap + 1e-9
        a = auuc(
            ValueCurve(grid[mask], presc_curve.values[mask], "presc"),
            ValueCurve(grid[mask], opt_curve.values[mask], "opt"),
        )
        areas[cap] = a
        assert a == pytest.approx(1.0, abs=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(
        f"\nCRITERION 1 PASS: MISE=0, max |regret|={worst:.2e}, "
        f"AUUC@140={areas[140.0]:.3f}, AUUC@250={areas[250.0]:.3f} ({elapsed:.0f}s)"
    )


def test_criterion_2_solver_cross_validation():
    """Exact solvers agree with the enumeration oracle and with each other."""
    t0 = time.time()
    rng = np.random.default_rng([SEED, 2])
    worst_bf = 0.0
    for _ in range(200):
        prob = _random_instance(rng, n_max=6, delta_max=3, proportional=False, with_eps=True)
        bb = solve_bnb(prob)
        bf = brute_force(prob)
        assert bb.status == "optimal" and bf.status == "optimal"
        worst_bf = max(worst_bf, abs(bb.objective - bf.objective))
    assert worst_bf <= 1e-9

    worst_dp = 0.0
    for _ in range(100):
        prob = _random_instance(rng, n_max=50, delta_max=5, proportional=True, with_eps=False)
        dp = solve_dp(prob)
        bb = solve_bnb(prob)
        worst_dp = max(worst_dp, abs(dp.objective - bb.objective))
    assert worst_dp <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(
        f"\nCRITERION 2 PASS: max |bnb-brute|={worst_bf:.2e} over 200, "
        f"max |dp-bnb|={worst_dp:.2e} over 100 ({elapsed:.0f}s)"
    )


def test_criterion_3_feasibility_suite():
    """Every solver-returned policy satisfies all constraints within tolerance."""
    rng = np.random.default_rng([SEED, 3])
    checked = 0
    for trial in range(500):
        kind = trial % 4
        if kind == 0:
            prob = _random_instance(rng, 8, 4, proportional=True, with_eps=False)
            report = solve_greedy(prob)
        elif kind == 1:
            prob = _random_instance(rng, 12, 5, proportional=True, with_eps=False)
            report = solve_dp(prob)
        elif kind == 2:
            prob = _random_instance(rng, 10, 4, proportional=False, with_eps=True)
            report = solve_bnb(prob)
        else:
            prob = _random_instance(rng, 5, 3, proportional=False, with_eps=True)
            report = brute_force(prob)
        policy = report.policy
        assert policy is not None
        assert np.all(policy.matrix.sum(axis=1) == 1)
        assert set(np.unique(policy.matrix)) <= {0, 1}
        assert policy_cost(policy, prob.costs) <= prob.budget + 1e-9
        assert fairness_violation(prob, policy) <= 1e-7
        checked += 1
    print(f"\nCRITERION 3 PASS: {checked} fuzzed policies satisfied all constraints")


def test_criterion_4_curve_structure(bench):
    """Exact ground-truth curve is non-decreasing and flat beyond saturation.

    The sweep endpoint is the full-treatment budget N (cost of dose 1 for all
    entities under proportional costs); the saturation budget must lie
    strictly below it.
    """
    ds, gt, true_cade = bench
    prob = make_problem(true_cade, budget=0.0, groups=ds.protected)
    b_star = flattening_budget(prob)
    endpoint = float(N_BENCH)
    assert b_star < endpoint

    grid = np.arange(25.0, endpoint + 1e-9, 25.0)
    curve = value_curve(prob, grid, solver="exact")
    assert np.all(np.diff(curve.values) >= -1e-9)

    v_star = solve_exact(prob.with_budget(b_star)).objective
    beyond = grid[grid >= b_star - 1e-9]
    for b in np.concatenate([beyond, [endpoint]]):
        v = solve_exact(prob.with_budget(float(b))).objective
        assert v == pytest.approx(v_star, abs=1e-9)
    print(
        f"\nCRITERION 4 PASS: curve non-decreasing on 25..{endpoint:.0f}; "
        f"flat beyond B*={b_star:.1f} < {endpoint:.0f}"
    )


def test_criterion_5_fairness_tradeoff(tmp_path):
    """Slack sweep: exact monotone trade-off, plus a real estimation gap."""
    base = dict(
        data="synthetic:60",
        seed=SEED,
        delta=DELTA,
        budgets=(2.4, 4.8, 9.6, 19.2),
        gammas=(0.0,),
        bnb_node_limit=20_000,
    )
    cfg = ExperimentConfig(
        estimator="oracle",
        eps_dt_grid=(0.25, 0.5, 1.0),
        eps_do_grid=(0.25, 0.5, 1.0),
        **base,
    )
    (path,) = run_exp2(cfg, tmp_path / "oracle")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    obj = {(float(r[0]), float(r[1])): float(r[8]) for r in rows}
    for eps_do in cfg.eps_do_grid:
        seq = [obj[(e, eps_do)] for e in cfg.eps_dt_grid]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))
    for eps_dt in cfg.eps_dt_grid:
        seq = [obj[(eps_dt, e)] for e in cfg.eps_do_grid]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))

    rf_cfg = ExperimentConfig(
        estimator="rf",
        rf_trees=(40,),
        eps_dt_grid=(1.0,),
        eps_do_grid=(0.5, 1.0),
        **base,
    )
    (rf_path,) = run_exp2(rf_cfg, tmp_path / "rf")
    with open(rf_path, newline="") as fh:
        rf_rows = list(csv.reader(fh))[1:]
    gaps = [
        abs((float(r[4]) - float(r[5])) - (float(r[6]) - float(r[7])))
        for r in rf_rows
    ]
    assert max(gaps) > 1e-12
    print(
        f"\nCRITERION 5 PASS: objective monotone on the slack grid; "
        f"max est-vs-true disparity gap {max(gaps):.4f} (rf)"
    )


def test_criterion_6_cost_sensitivity(tmp_path, bench):
    """Each objective's own optimum dominates on its own scale, strictly once."""
    cfg = ExperimentConfig(
        data=f"synthetic:{N_BENCH}",
        seed=SEED,
        delta=DELTA,
        estimator="oracle",
        budgets=tuple(float(b) for b in range(25, 251, 25)),
        benefits="uniform:0.5:1.5",
    )
    path = run_exp3(cfg, tmp_path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    strict = 0
    for r in rows:
        u_u, v_u, u_v, v_v = (float(x) for x in r[1:])
        assert v_v >= v_u - 1e-9
        assert u_u >= u_v - 1e-9
        if v_v > v_u + 1e-9:
            strict += 1
    assert strict >= 1
    print(f"\nCRITERION 6 PASS: dominance at all {len(rows)} budgets, strict at {strict}")


def test_criterion_7_learned_estimator_sanity():
    """The learners recover known targets; no claim to the source's numbers."""
    cov = synth_covariates(2000, seed=SEED)
    rng = np.random.default_rng([SEED, 7])
    doses = rng.uniform(0.0, 1.0, size=2000)
    ds = Dataset(
        covariates=cov, doses=doses, outcomes=doses.copy(),
        protected=cov.features[:, 6].astype(int),
    )
    est = fit_rf_slearner(ds, RfConfig(n_trees=10, feature_subsample="all", seed=SEED))
    grid = np.linspace(0.05, 0.95, 19)
    mae = float(np.abs(est.predict_mu(grid, cov.features[:50]) - grid[None, :]).mean())
    assert mae < 0.05

    from doseuplift.datagen import FeatureScaling, _outcome_base, empirical_constants

    n = 20_000
    cov2 = synth_covariates(n, seed=SEED + 1)
    rng2 = np.random.default_rng([SEED, 8])
    doses2 = rng2.uniform(0.0, 1.0, size=n)
    c1, _ = empirical_constants(cov2)
    scaling = FeatureScaling.fit(cov2.features)
    base, _ = _outcome_base(scaling.unit_features(cov2.features), doses2, c1, pairwise=True)
    raw = base + rng2.normal(0.0, 0.5, size=n)
    y = (raw - raw.min()) / (raw.max() - raw.min())
    ds2 = Dataset(
        covariates=cov2, doses=doses2, outcomes=y,
        protected=cov2.features[:, 6].astype(int),
    )
    binned = fit_binned_slearner(ds2, dose_bins=10, k=n)
    mu_all = np.clip((base - raw.min()) / (raw.max() - raw.min()), 0.0, 1.0)
    assign = np.minimum((doses2 * 10).astype(int), 9)
    worst = max(
        abs(float(binned.stratum_means[b]) - float(mu_all[assign == b].mean()))
        for b in range(10)
    )
    assert worst < 0.05
    print(
        f"\nCRITERION 7 PASS: rf dose-identity MAE={mae:.4f} (<0.05); "
        f"binned randomized-assignment max stratum error={worst:.4f} (<0.05)"
    )


def test_criterion_8_scalability(bench):
    """Heuristic handles 8x data in seconds; exact solver bounded at 1x."""
    ds, gt, _ = bench
    cov8 = oversample_covariates(ds.covariates, 8, seed=SEED)
    ds8, gt8 = generate_dataset(cov8, GenConfig(seed=SEED))
    cade8 = cade_matrix(oracle_estimator(gt8), ds8, DELTA)
    prob8 = make_problem(cade8, budget=140.0 * 8, groups=ds8.protected)
    greedy8 = solve_greedy(prob8)
    assert greedy8.wall_ms < 5000.0

    _, _, true_cade = bench
    prob1 = make_problem(true_cade, budget=140.0, groups=ds.protected)
    t0 = time.time()
    exact1 = solve_bnb(prob1, node_limit=200)
    elapsed = time.time() - t0
    if exact1.status == "optimal":
        assert elapsed < 300.0
        outcome = f"optimal in {elapsed:.0f}s ({exact1.nodes} nodes)"
    else:
        assert exact1.status == "limit"
        assert np.isfinite(exact1.best_bound)
        assert exact1.best_bound >= exact1.objective - 1e-9
        gap = exact1.best_bound - exact1.objective
        outcome = f"bounded gap {gap:.4f} after {exact1.nodes} nodes"
    print(
        f"\nCRITERION 8 PASS: greedy 8x (n={ds8.n}) {greedy8.wall_ms:.0f} ms; "
        f"exact 1x {outcome}"
    )


def test_criterion_9_lp_engine():
    """The simplex agrees with an independent textbook oracle; optima feasible."""
    rng = np.random.default_rng([SEED, 9])
    worst_gap = 0.0
    worst_viol = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 21))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        ub = rng.uniform(0.5, 2.0, size=n)
        p = LpProblem(
            objective=c, a_matrix=a, rhs=b, lower=np.zeros(n), upper=ub,
        )
        sol = solve_lp(p)
        assert sol.status == "optimal"
        _, obj = simplex_oracle(c, np.vstack([a, np.eye(n)]), np.concatenate([b, ub]))
        worst_gap = max(worst_gap, abs(sol.objective - obj))
        worst_viol = max(worst_viol, constraint_violation(p, sol.x))
    assert worst_gap <= 1e-6
    assert worst_viol <= 1e-7
    print(
        f"\nCRITERION 9 PASS: max oracle gap {worst_gap:.2e} (<=1e-6), "
        f"max violation {worst_viol:.2e} (<=1e-7) over 50 LPs"
    )
