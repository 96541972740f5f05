"""Tests for the dose-allocation solvers and their shared contracts."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doseuplift import alloc, datagen, estimators
from doseuplift.alloc import (
    REPORT_CSV_HEADER,
    AllocError,
    AllocationProblem,
    Policy,
    _build_lp,
    dp_applicable,
    fairness_violation,
    flattening_budget,
    load_problem,
    make_problem,
    policy_cost,
    policy_value,
    proportional_costs,
    save_problem,
    solve_bnb,
    solve_dp,
    solve_dp_sweep,
    solve_exact,
    solve_exact_sweep,
    solve_greedy,
)
from doseuplift.estimators import CadeMatrix
from doseuplift.metrics import value_curve

from .oracles import brute_force


def _cade(values):
    values = np.asarray(values, dtype=float)
    delta = values.shape[1] - 1
    return CadeMatrix(
        values=values, doses=np.arange(delta + 1) / delta, provenance="estimated"
    )


def _two_entity_problem(budget, **kw):
    # doses {0, 0.5, 1.0} with proportional costs
    cade = _cade([[0.0, 0.4, 0.3], [0.0, 0.1, 0.5]])
    return make_problem(cade, budget=budget, groups=np.asarray([0, 1]), **kw)


def _random_problem(rng, n_max=6, delta_max=3, proportional=True, with_eps=False):
    n = int(rng.integers(1, n_max + 1))
    delta = int(rng.integers(1, delta_max + 1))
    vals = rng.uniform(-0.6, 0.9, size=(n, delta + 1))
    vals[:, 0] = 0.0
    cade = _cade(vals)
    if proportional:
        costs = proportional_costs(cade)
    else:
        costs = rng.uniform(0.0, 1.0, size=(n, delta + 1))
        costs[:, 0] = 0.0
    groups = rng.integers(0, 2, size=n)
    budget = float(rng.uniform(0.0, costs.max(axis=1).sum()))
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
        budget=budget,
        groups=groups,
        eps_dt=eps_dt,
        eps_do=eps_do,
    )


def _assert_policy_contract(prob, report):
    policy = report.policy
    assert np.all(policy.matrix.sum(axis=1) == 1)
    assert set(np.unique(policy.matrix)) <= {0, 1}
    assert policy_cost(policy, prob.costs) <= prob.budget + 1e-9
    assert fairness_violation(prob, policy) <= 1e-7


# ---------------------------------------------------------------------------
# policy cost / value
# ---------------------------------------------------------------------------

def test_policy_cost_zero_for_all_dose_zero():
    prob = _two_entity_problem(budget=1.0)
    p = Policy(np.asarray([0, 0]), 3)
    assert policy_cost(p, prob.costs) == 0.0


def test_policy_cost_proportional_arithmetic():
    prob = _two_entity_problem(budget=2.0)
    p = Policy(np.asarray([1, 2]), 3)  # doses 0.5, 1.0
    assert policy_cost(p, prob.costs) == pytest.approx(1.5, abs=1e-12)


def test_policy_value_zero_for_all_dose_zero():
    prob = _two_entity_problem(budget=1.0)
    p = Policy(np.asarray([0, 0]), 3)
    assert policy_value(p, prob.cade, prob.benefits) == 0.0


def test_policy_value_linear_in_benefits():
    prob = _two_entity_problem(budget=2.0)
    p = Policy(np.asarray([1, 2]), 3)
    v1 = policy_value(p, prob.cade, np.ones(2))
    v2 = policy_value(p, prob.cade, 2.0 * np.ones(2))
    assert v2 == pytest.approx(2.0 * v1, abs=1e-12)


def test_policy_aggregates_match_double_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        prob = _random_problem(rng, proportional=False)
        idx = rng.integers(0, prob.delta + 1, size=prob.n)
        p = Policy(idx, prob.delta + 1)
        cost_oracle = sum(
            float(p.matrix[i, d]) * float(prob.costs[i, d])
            for i in range(prob.n)
            for d in range(prob.delta + 1)
        )
        value_oracle = sum(
            float(p.matrix[i, d]) * float(prob.cade.values[i, d]) * float(prob.benefits[i])
            for i in range(prob.n)
            for d in range(prob.delta + 1)
        )
        assert policy_cost(p, prob.costs) == pytest.approx(cost_oracle, abs=1e-12)
        assert policy_value(p, prob.cade, prob.benefits) == pytest.approx(value_oracle, abs=1e-12)


def test_policy_holds_compact_dose_indices_and_rejects_bad_ones():
    m = np.asarray([[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1]])
    p = Policy([1, 0, 2, 2], 3)
    assert np.array_equal(p.matrix, m) and p.matrix.dtype == np.int8
    assert p.shape == m.shape
    assert np.array_equal(p.dose_indices, [1, 0, 2, 2]) and p.dose_indices.nbytes <= 2 * len(m)
    assert not p.dose_indices.flags.writeable
    assert np.array_equal(p.doses(np.asarray([0.0, 0.5, 1.0])), [0.5, 0.0, 1.0, 1.0])
    table = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(p.picked(table), np.sum(m * table, axis=1))
    for bad in ([-1, 0], [3], [0.5], [[1]]):
        with pytest.raises(AllocError):
            Policy(np.asarray(bad), 3)
    with pytest.raises(AllocError, match="32768"):
        Policy([0], 40_000)


def test_policy_equality_and_hash_follow_the_doses():
    p = Policy([0, 1], 2)
    assert p == Policy(np.asarray([0, 1], dtype=np.int64), 2) and hash(p) == hash(Policy([0, 1], 2))
    for other in (Policy([1, 0], 2), Policy([0, 1], 3), Policy([0, 1, 0], 2)):
        assert p != other
    assert Policy([], 2) != Policy([], 3)
    assert p != [0, 1] and p != "policy"
    table = {p: "a", Policy([1, 1], 2): "b"}
    assert table[Policy([0, 1], 2)] == "a" and len(table) == 2

    def report(policy):
        return alloc.SolveReport("optimal", 1.0, policy, 1, None, 1.0, 0.5)

    assert report(p) == report(Policy([0, 1], 2))
    assert report(p) != report(Policy([1, 1], 2))
    assert report(p) != report(None)


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------

def test_greedy_two_entity_full_budget():
    report = solve_greedy(_two_entity_problem(budget=1.5))
    # brute force over all 9 combinations confirms (0.5, 1.0) is optimal here
    assert report.status == "heuristic"
    assert np.array_equal(report.policy.dose_indices, [1, 2])
    assert report.objective == pytest.approx(0.9, abs=1e-12)
    oracle = brute_force(_two_entity_problem(budget=1.5))
    assert report.objective == pytest.approx(oracle.objective, abs=1e-12)


def test_greedy_two_entity_tight_budget():
    # entity 2 ranks first (0.5 > 0.4); after it takes dose 1.0 at cost 1.0,
    # entity 1 cannot afford dose 0.5 anymore
    report = solve_greedy(_two_entity_problem(budget=1.0))
    assert np.array_equal(report.policy.dose_indices, [0, 2])
    assert report.objective == pytest.approx(0.5, abs=1e-12)


def test_greedy_zero_budget():
    report = solve_greedy(_two_entity_problem(budget=0.0))
    assert np.array_equal(report.policy.dose_indices, [0, 0])
    assert report.objective == 0.0


def test_greedy_skips_nonpositive_doses():
    cade = _cade([[0.0, -0.2, -0.1]])
    prob = make_problem(cade, budget=5.0, groups=np.asarray([0]))
    report = solve_greedy(prob)
    assert np.array_equal(report.policy.dose_indices, [0])


def test_greedy_matches_the_plain_rank_loop_on_ties():
    """Greedy's vectorized ranking against the loop it replaced: every entity
    sorted by (-best value, index) and skipped when its best dose is 0."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, delta = int(rng.integers(1, 30)), int(rng.integers(1, 4))
        vals = rng.integers(-2, 4, size=(n, delta + 1)) / 4  # ties and zero rows are common
        vals[:, 0] = 0.0
        prob = make_problem(_cade(vals), budget=float(rng.uniform(0, n)), groups=np.zeros(n, dtype=int))
        best_dose, best_val = alloc._best_nonnegative_dose(prob)
        remaining, want = prob.budget, np.zeros(n, dtype=int)
        for i in sorted(range(n), key=lambda i: (-best_val[i], i)):
            d = int(best_dose[i])
            if d and best_val[i] > 0.0 and prob.costs[i, d] <= remaining + alloc.BUDGET_TOL:
                want[i] = d
                remaining -= prob.costs[i, d]
        assert np.array_equal(solve_greedy(prob).policy.dose_indices, want)


def test_greedy_rejects_fairness():
    prob = _two_entity_problem(budget=1.0, eps_dt=0.5)
    with pytest.raises(AllocError, match="fairness"):
        solve_greedy(prob)


def test_greedy_allows_disabled_fairness_slack():
    prob = _two_entity_problem(budget=1.5, eps_dt=1.0)  # slack 1 drops the pair
    report = solve_greedy(prob)
    assert report.objective == pytest.approx(0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# exact DP
# ---------------------------------------------------------------------------

def test_dp_two_entity_matches_brute_force():
    report = solve_dp(_two_entity_problem(budget=1.5))
    assert report.status == "optimal"
    assert report.objective == pytest.approx(0.9, abs=1e-12)


def test_dp_budget_slack_hits_row_max_sum():
    prob = _two_entity_problem(budget=100.0)
    report = solve_dp(prob)
    expected = sum(max(row.max(), 0.0) for row in prob.cade.values)
    assert report.objective == pytest.approx(expected, abs=1e-12)


def test_dp_rejects_unscalable_costs():
    cade = _cade([[0.0, 0.3, 0.6]])
    costs = np.asarray([[0.0, 0.123456789, 0.5]])
    prob = AllocationProblem(
        cade=cade, costs=costs, benefits=np.ones(1), budget=1.0,
        groups=np.asarray([0]),
    )
    with pytest.raises(AllocError, match="solve_bnb"):
        solve_dp(prob)


def test_dp_rejects_fairness():
    with pytest.raises(AllocError):
        solve_dp(_two_entity_problem(budget=1.0, eps_do=0.2))


def test_dp_matches_bnb_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(25):
        prob = _random_problem(rng, n_max=12, delta_max=5, proportional=True)
        dp = solve_dp(prob)
        bb = solve_bnb(prob)
        assert dp.objective == pytest.approx(bb.objective, abs=1e-9), f"trial {trial}"
        _assert_policy_contract(prob, dp)
        _assert_policy_contract(prob, bb)


# values from a short list, so exact ties and 1e-12 near-ties are common
_TIE_VALUES = [-0.3, 0.0, 0.1, 0.1 + 1e-12, 0.2, 0.2 - 1e-12, 0.5]


@st.composite
def _sweep_instances(draw):
    """Budget-only problems with integral costs, repeated entities and a budget grid."""
    delta = draw(st.integers(1, 4))
    n_unique = draw(st.integers(1, 5))
    rows = [
        [0.0] + draw(st.lists(st.sampled_from(_TIE_VALUES), min_size=delta, max_size=delta))
        for _ in range(n_unique)
    ]
    order = draw(st.lists(st.integers(0, n_unique - 1), min_size=1, max_size=9))
    cade = _cade([rows[k] for k in order])  # repeated indices are duplicate entities
    if draw(st.booleans()):
        costs = proportional_costs(cade)
    else:  # integral at resolution delta, zero-cost doses above 0 included
        units = [[0] + draw(st.lists(st.integers(0, 2 * delta), min_size=delta, max_size=delta))
                 for _ in order]
        costs = np.asarray(units, dtype=float) / delta
    benefits = np.asarray(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]),
                                        min_size=len(order), max_size=len(order))))
    prob = AllocationProblem(cade=cade, costs=costs, benefits=benefits, budget=0.0,
                             groups=np.zeros(len(order), dtype=int))
    flat = flattening_budget(prob)
    extra = draw(st.lists(st.floats(0.0, 1.5 * float(costs.max(axis=1).sum()) + 1.0), max_size=6))
    return prob, [0.0, flat, flat + 1.0] + extra


@settings(max_examples=150, deadline=None)
@given(_sweep_instances())
def test_dp_sweep_matches_per_budget_dp(instance):
    prob, budgets = instance
    sweep = solve_dp_sweep(prob, budgets)
    assert len(sweep) == len(budgets)
    for b, rep in zip(budgets, sweep):
        one = solve_dp(prob.with_budget(b))
        assert np.array_equal(rep.policy.matrix, one.policy.matrix), b
        assert rep.objective == one.objective
        assert rep.status == "optimal" and rep.best_bound == rep.objective
        _assert_policy_contract(prob.with_budget(b), rep)


def test_dp_sweep_matches_per_budget_dp_at_scale():
    # a wide table: 120 entities, 11 doses, budgets up to the slack point
    rng = np.random.default_rng(8)
    vals = np.round(rng.uniform(-0.4, 0.9, size=(120, 11)), 2)  # rounding makes ties
    vals[:, 0] = 0.0
    prob = make_problem(_cade(vals), budget=0.0, groups=np.zeros(120, dtype=int))
    budgets = [37.5, 0.0, 5.0, 12.3, flattening_budget(prob) + 2.0, 25.0]
    for b, rep in zip(budgets, solve_dp_sweep(prob, budgets)):
        one = solve_dp(prob.with_budget(b))
        assert np.array_equal(rep.policy.matrix, one.policy.matrix), b
        assert rep.objective == one.objective


def test_dp_sweep_empty_and_invalid_budgets():
    prob = _two_entity_problem(budget=1.0)
    assert solve_dp_sweep(prob, []) == []
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(AllocError, match="budget"):
            solve_dp_sweep(prob, [1.0, bad])


def test_dp_sweep_refuses_what_solve_dp_refuses():
    with pytest.raises(AllocError, match="fairness"):
        solve_dp_sweep(_two_entity_problem(budget=1.0, eps_do=0.2), [1.0])
    cade = _cade([[0.0, 0.3, 0.6]])
    prob = AllocationProblem(
        cade=cade, costs=np.asarray([[0.0, 0.123456789, 0.5]]), benefits=np.ones(1),
        budget=1.0, groups=np.asarray([0]),
    )
    with pytest.raises(AllocError, match="solve_bnb"):
        solve_dp_sweep(prob, [1.0])


def test_exact_sweep_dispatch_matches_solve_exact():
    rng = np.random.default_rng(5)
    paths = set()
    for trial in range(6):
        # with fairness or non-integral costs the sweep falls back to one B&B per budget
        prob = _random_problem(rng, n_max=6, delta_max=3, proportional=trial % 2 == 0,
                               with_eps=trial >= 3)
        paths.add(dp_applicable(prob))
        budgets = [0.0, 0.4, 1.0, 2.5]
        for b, rep in zip(budgets, solve_exact_sweep(prob, budgets)):
            one = solve_exact(prob.with_budget(b))
            assert np.array_equal(rep.policy.matrix, one.policy.matrix), (trial, b)
            assert rep.objective == one.objective
    assert paths == {True, False}


def test_active_fairness_resolved_at_construction():
    prob = _two_entity_problem(budget=1.0, eps_dt=0.25, eps_do=0.5)
    (dose_kind, dose_eps, dose_w), (out_kind, out_eps, out_w) = prob.active_fairness()
    assert (dose_kind, dose_eps, out_kind, out_eps) == ("dose", 0.25, "outcome", 0.5)
    assert np.array_equal(dose_w, np.tile(prob.cade.doses, (prob.n, 1)))
    assert out_w is prob.cade.values
    assert prob.with_budget(0.5).active_fairness() is prob.active_fairness()
    # a changed slack is a new problem whose pairs are resolved again
    assert [k for k, _, _ in replace(prob, eps_dt=1.0).active_fairness()] == ["outcome"]


def test_empty_group_fairness_warns_once_at_construction():
    cade = _cade([[0.0, 0.4, 0.3], [0.0, 0.1, 0.5]])
    with warnings.catch_warnings(record=True) as built:
        warnings.simplefilter("always")
        prob = make_problem(cade, budget=1.0, groups=np.zeros(2, dtype=int), eps_dt=0.2)
    assert [w.category for w in built] == [UserWarning]
    assert "protected group is empty" in str(built[0].message)
    assert built[0].filename == __file__  # blames the caller, not the package
    assert prob.active_fairness() == ()
    with warnings.catch_warnings(record=True) as solved:
        warnings.simplefilter("always")
        solve_exact(prob)
        solve_exact_sweep(prob, [0.5, 1.0])
        solve_bnb(prob)
        value_curve(prob, [0.5, 1.0])
    assert solved == []


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

def test_bnb_two_entity_unconstrained():
    report = solve_bnb(_two_entity_problem(budget=1.5))
    assert report.status == "optimal"
    assert report.objective == pytest.approx(0.9, abs=1e-12)
    assert report.root_bound is not None and report.root_bound >= 0.9 - 1e-9


def test_bnb_equal_dose_fairness():
    # eps_dt = 0 forces equal mean doses; with groups (0, 1) and budget 1.5
    # the only improving equal-dose option is both at 0.5: U = 0.4 + 0.1
    prob = _two_entity_problem(budget=1.5, eps_dt=0.0)
    report = solve_bnb(prob)
    assert report.status == "optimal"
    assert np.array_equal(report.policy.dose_indices, [1, 1])
    assert report.objective == pytest.approx(0.5, abs=1e-9)
    oracle = brute_force(prob)
    assert oracle.objective == pytest.approx(report.objective, abs=1e-9)


def test_bnb_matches_brute_force_with_random_fairness():
    rng = np.random.default_rng(2025)
    for trial in range(40):
        prob = _random_problem(rng, proportional=False, with_eps=True)
        bb = solve_bnb(prob)
        bf = brute_force(prob)
        assert bb.status == "optimal" and bf.status == "optimal"
        assert bb.objective == pytest.approx(bf.objective, abs=1e-9), f"trial {trial}"
        _assert_policy_contract(prob, bb)


def test_bnb_dominates_greedy():
    rng = np.random.default_rng(8)
    for _ in range(15):
        prob = _random_problem(rng, n_max=10, delta_max=4, proportional=True)
        g = solve_greedy(prob)
        b = solve_bnb(prob)
        assert b.objective >= g.objective - 1e-9
        assert g.objective >= -1e-12


def test_bnb_bound_sandwich():
    # root LP relaxation bound >= exact optimum >= initial greedy incumbent
    rng = np.random.default_rng(77)
    for _ in range(10):
        prob = _random_problem(rng, n_max=10, delta_max=4, proportional=True)
        g = solve_greedy(prob)
        b = solve_bnb(prob)
        assert b.root_bound >= b.objective - 1e-9
        assert b.objective >= g.objective - 1e-9
        assert b.best_bound == pytest.approx(b.objective, abs=1e-9)


def test_bnb_budget_monotonicity():
    rng = np.random.default_rng(9)
    prob = _random_problem(rng, n_max=8, delta_max=3, proportional=True)
    budgets = np.linspace(0.0, prob.costs.max(axis=1).sum(), 6)
    objs = [solve_bnb(prob.with_budget(float(b))).objective for b in budgets]
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_bnb_flattens_beyond_saturation_budget():
    rng = np.random.default_rng(10)
    prob = _random_problem(rng, n_max=8, delta_max=3, proportional=True)
    b_star = flattening_budget(prob)
    obj_star = solve_bnb(prob.with_budget(b_star)).objective
    for extra in (0.5, 2.0, 10.0):
        assert solve_bnb(prob.with_budget(b_star + extra)).objective == pytest.approx(
            obj_star, abs=1e-9
        )


def test_bnb_eps_monotonicity():
    rng = np.random.default_rng(11)
    cade = _cade(rng.uniform(-0.3, 0.9, size=(6, 4)) * [[0, 1, 1, 1]])
    prob = make_problem(cade, budget=1.2, groups=np.asarray([0, 0, 0, 1, 1, 1]))
    objs = []
    for eps in (0.0, 0.2, 0.5, 1.0):
        objs.append(solve_bnb(
            AllocationProblem(
                cade=prob.cade, costs=prob.costs, benefits=prob.benefits,
                budget=prob.budget, groups=prob.groups, eps_dt=eps, eps_do=eps,
            )
        ).objective)
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_bnb_cost_sensitive_dominance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        prob_u = _random_problem(rng, n_max=7, delta_max=3, proportional=True)
        benefits = rng.uniform(0.5, 1.5, size=prob_u.n)
        prob_v = AllocationProblem(
            cade=prob_u.cade, costs=prob_u.costs, benefits=benefits,
            budget=prob_u.budget, groups=prob_u.groups,
        )
        pol_u = solve_bnb(prob_u).policy
        pol_v = solve_bnb(prob_v).policy
        u_of_u = policy_value(pol_u, prob_u.cade)
        u_of_v = policy_value(pol_v, prob_u.cade)
        v_of_u = policy_value(pol_u, prob_u.cade, benefits)
        v_of_v = policy_value(pol_v, prob_u.cade, benefits)
        assert v_of_v >= v_of_u - 1e-9
        assert u_of_u >= u_of_v - 1e-9


def test_bnb_node_limit_reports_gap():
    rng = np.random.default_rng(13)
    prob = _random_problem(rng, n_max=6, delta_max=3, proportional=False, with_eps=True)
    report = solve_bnb(prob, node_limit=1)
    assert report.status in ("optimal", "limit")
    if report.status == "limit":
        assert report.best_bound is not None
        assert report.best_bound >= report.objective - 1e-9
        _assert_policy_contract(prob, report)


def test_bnb_strict_eps_one_keeps_constraint():
    # strict mode at slack 1: group-0 mean dose <= 2 * group-1 mean dose binds
    cade = _cade([[0.0, 0.8], [0.0, 0.0]])
    prob = AllocationProblem(
        cade=cade, costs=proportional_costs(cade), benefits=np.ones(2),
        budget=2.0, groups=np.asarray([0, 1]), eps_dt=1.0, strict_eps_one=True,
    )
    strict = solve_bnb(prob)
    # entity 0 alone at dose 1 would give mean0 = 1 > 2 * mean1 = 0; the
    # solver must also treat entity 1 (worthless) to unlock entity 0
    assert np.array_equal(strict.policy.dose_indices, [1, 1])
    relaxed = solve_bnb(
        AllocationProblem(
            cade=cade, costs=prob.costs, benefits=prob.benefits, budget=2.0,
            groups=prob.groups, eps_dt=1.0,
        )
    )
    assert np.array_equal(relaxed.policy.dose_indices, [1, 0])


def test_build_lp_keeps_one_dose_rows_implicit_at_paper_scale():
    rng = np.random.default_rng(747)
    vals = rng.uniform(-0.2, 0.9, size=(747, 11))
    vals[:, 0] = 0.0
    prob = make_problem(
        _cade(vals), budget=140.0, groups=rng.integers(0, 2, size=747), eps_dt=0.25, eps_do=0.25
    )
    lp = _build_lp(prob)
    # the budget row and two rows per fairness pair; no row per entity
    assert lp.n_rows == 5 and lp.a_matrix.shape == (5, 747 * 10)
    assert np.array_equal(lp.sets, np.repeat(np.arange(747), 10))


def test_bnb_stats_count_node_lps_and_stay_out_of_the_csv_row(monkeypatch):
    prob = _random_problem(np.random.default_rng(13), n_max=6, delta_max=3, with_eps=True)
    counts = []
    real_solve_lp = alloc.solve_lp

    def counted(lp):
        sol = real_solve_lp(lp)
        work = sol.stats.get("inversions", 0), sol.stats.get("pricings", 0)
        counts.append((sol.iterations, *work))
        return sol

    monkeypatch.setattr(alloc, "solve_lp", counted)
    report = solve_bnb(prob)
    its, inversions, pricings = (sum(col) for col in zip(*counts))
    assert report.stats == {
        "lp_calls": len(counts), "lp_pivots": its, "lp_inversions": inversions, "lp_pricings": pricings
    }
    # each LP prices once per phase and after every pivot that is not a bound flip
    assert inversions <= pricings <= its + 2 * len(counts)
    assert len(counts) >= report.nodes >= 1
    assert len(report.csv_row(prob.costs)) == len(REPORT_CSV_HEADER)
    plain = _two_entity_problem(budget=1.0)
    assert solve_greedy(plain).stats == {} and solve_dp(plain).stats == {}


def test_bnb_certificate_refuses_an_over_budget_incumbent(monkeypatch):
    prob = _two_entity_problem(budget=0.5)  # the best feasible policy is worth 0.4
    over = Policy(np.asarray([1, 2]), 3)  # cost 1.5, worth 0.9

    def over_budget_greedy(p):
        return replace(solve_greedy(p), objective=0.9, policy=over)

    monkeypatch.setattr(alloc, "solve_greedy", over_budget_greedy)
    with pytest.raises(RuntimeError, match="exceeds the budget"):
        solve_bnb(prob)


def test_bnb_paper_scale_root_lps():
    """The two n=747 seed-2024 problems of the bnb-747 benchmark workload.

    The pivot counts pin the simplex's pivot rule, and the inversion and
    pricing counts what it recomputes per pivot: a change to either updates
    them here.
    """
    cov = datagen.synth_covariates(747, 2024)
    ds, gt = datagen.generate_dataset(cov, datagen.GenConfig(seed=2024))
    cade = estimators.cade_matrix(estimators.oracle_estimator(gt), ds, 10)
    for eps, pivots, inversions, pricings, bound in (
        (None, 816, 71, 426, 59.18265927317723),
        (0.25, 1102, 392, 901, 58.23984991872032),
    ):
        prob = make_problem(cade, budget=140.0, groups=ds.protected, eps_dt=eps, eps_do=eps)
        report = solve_bnb(prob, node_limit=1)
        assert report.stats == {
            "lp_calls": 1, "lp_pivots": pivots, "lp_inversions": inversions, "lp_pricings": pricings
        }
        assert report.root_bound == pytest.approx(bound, abs=1e-9)


# ---------------------------------------------------------------------------
# brute force endpoints
# ---------------------------------------------------------------------------

def test_brute_force_single_entity_no_budget():
    cade = _cade([[0.0, 0.2]])
    prob = AllocationProblem(
        cade=cade, costs=np.asarray([[0.0, 1.0]]), benefits=np.ones(1),
        budget=0.0, groups=np.asarray([0]),
    )
    report = brute_force(prob)
    assert np.array_equal(report.policy.dose_indices, [0])
    assert report.objective == 0.0


def test_brute_force_single_entity_with_budget():
    cade = _cade([[0.0, 0.2]])
    prob = AllocationProblem(
        cade=cade, costs=np.asarray([[0.0, 1.0]]), benefits=np.ones(1),
        budget=1.0, groups=np.asarray([0]),
    )
    report = brute_force(prob)
    assert np.array_equal(report.policy.dose_indices, [1])
    assert report.objective == pytest.approx(0.2, abs=1e-12)


def test_brute_force_rejects_huge_instances():
    cade = _cade(np.zeros((30, 11)))
    prob = make_problem(cade, budget=1.0, groups=np.zeros(30, dtype=int))
    with pytest.raises(AllocError):
        brute_force(prob)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def test_problem_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    prob = _random_problem(rng, proportional=False, with_eps=True)
    for strict in (False, True):
        prob = replace(prob, strict_eps_one=strict)
        save_problem(prob, tmp_path)
        back = load_problem(tmp_path)
        assert np.array_equal(back.cade.values, prob.cade.values)
        assert np.array_equal(back.costs, prob.costs)
        assert np.array_equal(back.benefits, prob.benefits)
        assert np.array_equal(back.groups, prob.groups)
        assert back.budget == prob.budget
        assert back.eps_dt == prob.eps_dt and back.eps_do == prob.eps_do
        assert back.strict_eps_one is strict


def _saved_problem(tmp_path):
    prob = _two_entity_problem(budget=1.5, eps_dt=1.0, strict_eps_one=True)
    save_problem(prob, tmp_path)
    return prob


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_load_problem_reads_six_column_meta_as_not_strict(tmp_path):
    _saved_problem(tmp_path)
    meta = tmp_path / "meta.csv"
    lines = meta.read_text().splitlines()
    meta.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    assert meta.read_text().startswith("entity,benefit,group,budget,eps_dt,eps_do\n")
    back = load_problem(tmp_path)
    assert back.strict_eps_one is False and back.eps_dt == 1.0


def test_load_problem_rejects_cost_header_unlike_cade(tmp_path):
    _saved_problem(tmp_path)
    _edit(tmp_path / "cost.csv", "dose_0.5", "dose_0.25")
    with pytest.raises(AllocError, match=r"cost\.csv:1: dose columns"):
        load_problem(tmp_path)


def test_load_problem_rejects_inconsistent_meta_rows(tmp_path):
    _saved_problem(tmp_path)
    _edit(tmp_path / "meta.csv", "1,1.0,1,1.5,", "1,1.0,1,2.5,")  # entity 1's budget
    with pytest.raises(AllocError, match=r"meta\.csv:3: budget/eps"):
        load_problem(tmp_path)


@pytest.mark.parametrize("name", ["cade.csv", "cost.csv", "meta.csv"])
def test_load_problem_rejects_out_of_order_entity_ids(tmp_path, name):
    _saved_problem(tmp_path)
    _edit(tmp_path / name, "\n1,", "\n2,")
    with pytest.raises(ValueError, match=rf"{name}:3: entity id '2', expected 1"):
        load_problem(tmp_path)


def test_report_csv_row():
    prob = _two_entity_problem(budget=1.5)
    report = solve_dp(prob)
    row = report.csv_row(prob.costs)
    assert row[0] == "optimal"
    assert float(row[1]) == pytest.approx(0.9, abs=1e-12)
    assert float(row[2]) == pytest.approx(1.5, abs=1e-12)
