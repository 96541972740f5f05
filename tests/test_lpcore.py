"""Tests for the bounded-variable simplex engine."""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doseuplift import lpcore
from doseuplift.alloc import make_problem, solve_bnb
from doseuplift.estimators import CadeMatrix
from doseuplift.lpcore import FEAS_TOL, LpError, LpProblem, constraint_violation, solve_lp

from .oracles import simplex_oracle


def _problem(c, a, b, lo, hi):
    return LpProblem(
        objective=np.asarray(c, dtype=float),
        a_matrix=np.asarray(a, dtype=float),
        rhs=np.asarray(b, dtype=float),
        lower=np.asarray(lo, dtype=float),
        upper=np.asarray(hi, dtype=float),
    )


def test_single_variable_row_bound():
    p = _problem([1.0], [[1.0]], [3.0], [0.0], [10.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_pair():
    # x >= 2 (negated) and x <= 1
    p = _problem([1.0], [[-1.0], [1.0]], [-2.0, 1.0], [0.0], [10.0])
    sol = solve_lp(p)
    assert sol.status == "infeasible"


def _ge_and_eq_rows():
    """max x + y s.t. x + y <= 4, x >= 1, y = 2 -> x = 2, y = 2; the >= row
    is negated and the = row is two <= rows, so the start needs Phase I."""
    return _problem(
        [1.0, 1.0],
        [[1.0, 1.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [4.0, -1.0, 2.0, -2.0],
        [0.0, 0.0],
        [10.0, 10.0],
    )


def _redundant_equal_rows():
    """x + y = 2 twice, each as two <= rows."""
    return _problem(
        [1.0, 0.0],
        [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]],
        [2.0, -2.0, 2.0, -2.0],
        [0.0, 0.0],
        [5.0, 5.0],
    )


def test_equality_and_ge_rows():
    p = _ge_and_eq_rows()
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.x == pytest.approx([2.0, 2.0], abs=1e-8)


def test_redundant_equality_rows():
    p = _redundant_equal_rows()
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_no_rows_box_only():
    p = _problem([1.0, -1.0], np.zeros((0, 2)), [], [0.0, 0.0], [1.0, 1.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-12)


def test_fixed_variables_are_substituted():
    p = _problem(
        [3.0, 1.0],
        [[1.0, 1.0]],
        [5.0],
        [2.0, 0.0],
        [2.0, 10.0],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([2.0, 3.0], abs=1e-8)
    assert sol.objective == pytest.approx(9.0, abs=1e-9)


def test_negative_upper_bound_region():
    # variable forced negative: -3 <= x <= -1, max x -> -1
    p = _problem([1.0], np.zeros((0, 1)), [], [-3.0], [-1.0])
    sol = solve_lp(p)
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(LpError):
        _problem([1.0, 2.0], [[1.0]], [1.0], [0.0], [1.0])


def test_nonfinite_bound_rejected():
    with pytest.raises(LpError):
        _problem([1.0], [[1.0]], [1.0], [0.0], [np.inf])


def test_with_bounds_checks_only_bounds_and_shares_the_rest():
    p = _problem([1.0, 2.0], [[1.0, 1.0]], [3.0], [0.0, 0.0], [2.0, 2.0])
    q = p.with_bounds(np.asarray([0.0, 0.0]), [2.0, 0.5])
    assert q.a_matrix is p.a_matrix and q.objective is p.objective and q.rhs is p.rhs
    assert np.array_equal(p.upper, [2.0, 2.0])  # the original keeps its bounds
    fresh = _problem([1.0, 2.0], [[1.0, 1.0]], [3.0], [0.0, 0.0], [2.0, 0.5])
    got, want = solve_lp(q), solve_lp(fresh)
    assert got.objective == want.objective and np.array_equal(got.x, want.x)
    for lo, hi in (
        ([0.0], [1.0]),  # wrong shape
        ([0.0, 0.0], [1.0, np.inf]),
        ([0.0, np.nan], [1.0, 1.0]),
        ([0.0, 2.0], [1.0, 1.0]),  # lower above upper
    ):
        with pytest.raises(LpError):
            p.with_bounds(lo, hi)


def test_iteration_limit_is_reported(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(10, 15))
    p = _problem(
        rng.uniform(0.1, 1, 15), a, rng.uniform(0.5, 2.0, 10),
        np.zeros(15), np.full(15, 2.0),
    )
    monkeypatch.setattr(lpcore, "ITERATIONS_PER_DIMENSION", 0)
    sol = solve_lp(p)
    assert sol.status == "iteration_limit"
    assert sol.x is None


def test_determinism():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, size=(8, 12))
    p = _problem(
        rng.uniform(-1, 1, 12), a, rng.uniform(0.5, 2.0, 8),
        np.zeros(12), np.full(12, 1.5),
    )
    s1 = solve_lp(p)
    s2 = solve_lp(p)
    assert s1.status == s2.status == "optimal"
    assert np.array_equal(s1.x, s2.x)


def test_random_lps_match_independent_oracle():
    """50 random dense LPs agree with the textbook tableau oracle."""
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 21))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        ub = rng.uniform(0.5, 2.0, size=n)

        p = _problem(c, a, b, np.zeros(n), ub)
        sol = solve_lp(p)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        # the oracle sees the variable boxes as ordinary rows
        a_oracle = np.vstack([a, np.eye(n)])
        b_oracle = np.concatenate([b, ub])
        status, obj = simplex_oracle(c, a_oracle, b_oracle)
        assert status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-6), f"trial {trial}"
        assert constraint_violation(p, sol.x) <= 1e-7
        assert np.all(sol.x >= p.lower - 1e-9) and np.all(sol.x <= p.upper + 1e-9)


def test_weak_duality_against_feasible_points():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 8))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        ub = rng.uniform(0.5, 2.0, size=n)
        p = _problem(c, a, b, np.zeros(n), ub)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        # sample feasible points by accept/reject inside the box
        found = 0
        for _ in range(200):
            x = rng.uniform(0.0, ub)
            if np.all(a @ x <= b):
                found += 1
                assert sol.objective >= float(c @ x) - 1e-7
        assert found > 0  # origin is feasible so sampling near it succeeds


def test_mixed_sense_random_agreement():
    # a redundant >= row, stated negated, leaves the geometry the oracle sees unchanged
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 6))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        ub = rng.uniform(0.5, 2.0, size=n)
        # sum of nonnegative vars >= 0, as -sum <= 0
        a2 = np.vstack([a, -np.ones(n)])
        p = _problem(c, a2, np.concatenate([b, [0.0]]), np.zeros(n), ub)
        sol = solve_lp(p)
        a_oracle = np.vstack([a, np.eye(n)])
        b_oracle = np.concatenate([b, ub])
        _, obj = simplex_oracle(c, a_oracle, b_oracle)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-6)


# ---------------------------------------------------------------------------
# one-of sets (the one-dose-per-entity rows, kept implicit)
# ---------------------------------------------------------------------------

def _set_rows(sets: np.ndarray) -> np.ndarray:
    """Each set written as an explicit row of ones over its columns."""
    n_sets = int(sets.max(initial=-1)) + 1
    return (sets[None, :] == np.arange(n_sets)[:, None]).astype(float)


@st.composite
def _allocation_lps(draw):
    """Allocation-shaped LPs: entities x doses, budget and fairness rows, fixings.

    Values and costs come from short lists, so tied and duplicate columns and
    zero-cost doses are common; eps = 0 fairness rows are degenerate.
    """
    n = draw(st.integers(1, 6))
    delta = draw(st.integers(1, 4))
    nv = n * delta
    quarters = st.integers(-2, 6).map(lambda k: k / 4)
    values = np.asarray(draw(st.lists(quarters, min_size=nv, max_size=nv)))
    costs = np.asarray(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))) / 4
    dose = np.tile(np.arange(1, delta + 1) / delta, n)
    groups = np.repeat(np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))), delta)
    rows, rhs = [], []
    if draw(st.booleans()):
        rows.append(costs)
        rhs.append(draw(st.integers(0, 2 * n)) / 2)
    for weights in draw(st.lists(st.sampled_from([dose, values]), max_size=2)):
        eps = draw(st.sampled_from([0.0, 0.25, 1.0]))
        coef0 = np.where(groups == 0, weights, 0.0) / max(1, int((groups == 0).sum()) // delta)
        coef1 = np.where(groups == 1, weights, 0.0) / max(1, int((groups == 1).sum()) // delta)
        rows += [(1.0 - eps) * coef1 - coef0, coef0 - (1.0 + eps) * coef1]
        rhs += [0.0, 0.0]
    lower, upper = np.zeros(nv), np.ones(nv)
    for ent in range(n):
        fix = draw(st.integers(-1, delta))  # -1 free, 0 one dose fixed to 0, d>=1 dose d to 1
        if fix == 0:
            upper[ent * delta + draw(st.integers(0, delta - 1))] = 0.0
        elif fix > 0:
            upper[ent * delta:(ent + 1) * delta] = 0.0  # branch-and-bound style: siblings to 0
            lower[ent * delta + fix - 1] = upper[ent * delta + fix - 1] = 1.0
    return LpProblem(
        objective=values,
        a_matrix=np.asarray(rows).reshape(len(rows), nv),
        rhs=np.asarray(rhs),
        lower=lower,
        upper=upper,
        sets=np.repeat(np.arange(n), delta),
    )


@settings(max_examples=300, deadline=None)
@given(_allocation_lps())
def test_implicit_sets_match_explicit_rows_and_oracle(p):
    got = solve_lp(p)
    explicit = LpProblem(
        objective=p.objective,
        a_matrix=np.vstack([p.a_matrix, _set_rows(p.sets)]),
        rhs=np.concatenate([p.rhs, np.ones(int(p.sets.max()) + 1)]),
        lower=p.lower,
        upper=p.upper,
    )
    ref = solve_lp(explicit)
    assert got.status == ref.status
    if p.n_rows and p.a_matrix[0].min() >= 0 and p.a_matrix[0] @ p.lower > p.rhs[0] + FEAS_TOL:
        assert got.status == "infeasible"  # the fixings alone break a budget-like row
    if got.status == "optimal":
        assert got.objective == pytest.approx(ref.objective, abs=1e-7)
        assert constraint_violation(p, got.x) <= FEAS_TOL
        assert np.all(got.x >= p.lower) and np.all(got.x <= p.upper)

    # the oracle needs x >= 0 and b >= 0: shift the fixings out, boxes and sets as rows
    a_all = np.vstack([p.a_matrix, _set_rows(p.sets), np.eye(p.n_cols)])
    b_all = np.concatenate([p.rhs, np.ones(int(p.sets.max()) + 1), p.upper]) - a_all @ p.lower
    if np.all(b_all >= 0):
        status, obj = simplex_oracle(p.objective, a_all, b_all)
        assert got.status == status == "optimal"
        assert got.objective == pytest.approx(obj + p.objective @ p.lower, abs=1e-7)

    # a function-scoped monkeypatch does not mix with @given
    lpcore.ITERATIONS_PER_DIMENSION, per_dimension = 0, lpcore.ITERATIONS_PER_DIMENSION
    try:
        capped = solve_lp(p)
    finally:
        lpcore.ITERATIONS_PER_DIMENSION = per_dimension
    assert capped.iterations == 0
    if capped.status != "iteration_limit":
        assert capped.status == got.status
        if got.status == "optimal":
            assert capped.objective == pytest.approx(got.objective, abs=1e-7)


def test_fixed_lower_bounds_overfilling_a_set_are_infeasible_without_pivots():
    p = LpProblem(
        [1.0, 1.0, 1.0], np.zeros((0, 3)), [], [1.0, 0.5, 0.0], [1.0, 1.0, 1.0], sets=[0, 0, 1]
    )
    sol = solve_lp(p)
    assert sol.status == "infeasible" and sol.iterations == 0
    assert constraint_violation(p, p.lower) == pytest.approx(0.5)


def test_sets_validated():
    for sets in ([0], [0.0, 1.0], [-2, 0], [0, 2]):
        with pytest.raises(LpError):
            LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0], sets=sets)


def test_optimal_point_is_certified(monkeypatch):
    """A drifted point is refused instead of being reported optimal."""
    from doseuplift import lpcore

    p = _problem([1.0, 1.0], [[1.0, 2.0]], [2.0], [0.0, 0.0], [1.0, 1.0])
    real_run = lpcore._Simplex.run

    def drifting_run(self, max_iterations):
        status = real_run(self, max_iterations)
        self.x[0] += 1e-3  # the row and the bound of column 0 now fail
        return status

    monkeypatch.setattr(lpcore._Simplex, "run", drifting_run)
    with pytest.raises(RuntimeError, match="violates"):
        solve_lp(p)


def test_infinite_step_is_a_numerical_failure(monkeypatch):
    """Every column is bounded, so a step with no blocking bound is round-off,
    not an unbounded LP: it raises instead of returning a status."""
    p = _problem([1.0, 1.0], [[1.0, 2.0]], [2.0], [0.0, 0.0], [1.0, 1.0])
    real_ratio_test = lpcore._Simplex._ratio_test

    def unblocked(self, *args):
        _, at, rate, _ = real_ratio_test(self, *args)
        return np.inf, at, rate, -1

    monkeypatch.setattr(lpcore._Simplex, "_ratio_test", unblocked)
    with pytest.raises(RuntimeError, match="infinite simplex step"):
        solve_lp(p)


def test_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, doseuplift; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_leaving_key_hands_over_to_a_basic_sibling():
    # x0 enters the budget slot first; then y frees budget, x0 keeps rising,
    # and the set's slack (its key) reaches 0 while x0 is still inside its
    # box, so x0 must take over as key and y takes x0's slot
    p = LpProblem(
        objective=[1.0, 0.5, 0.1],
        a_matrix=[[2.0, 1.0, -1.0]],
        rhs=[1.0],
        lower=[0.0, 0.2, 0.0],
        upper=[1.0, 1.0, 2.0],
        sets=[0, 0, -1],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    a_all = np.vstack([p.a_matrix, [[1.0, 1.0, 0.0]], np.eye(3)])
    b_all = np.concatenate([p.rhs, [1.0], p.upper]) - a_all @ p.lower
    _, obj = simplex_oracle(p.objective, a_all, b_all)
    assert sol.objective == pytest.approx(obj + p.objective @ p.lower, abs=1e-9)
    assert constraint_violation(p, sol.x) <= FEAS_TOL


# ---------------------------------------------------------------------------
# state the simplex keeps between pivots
# ---------------------------------------------------------------------------

def _fresh_state(state, a):
    """Key-reduced columns and objective, and entering signs, from scratch;
    ``a`` holds the plain coupling rows over all columns."""
    keys = state.key[state.sets]
    basic = np.zeros(a.shape[1], dtype=bool)
    basic[state.basis] = basic[state.key] = True
    sign = np.where(basic | (state.lo >= state.hi), 0.0, np.where(state.at_upper, -1.0, 1.0))
    return a - np.take(a, keys, axis=1), state.c - state.c[keys], sign


def _assert_fresh_prices(state):
    """The basis inverse, row prices and reduced costs in use equal a rebuild."""
    b_inv = np.linalg.inv(state.ar[:, state.basis])
    pi = state.cr[state.basis] @ b_inv
    assert np.array_equal(state.b_inv, b_inv)
    assert np.array_equal(state.pi, pi)
    assert np.array_equal(state.d, state.cr - pi @ state.ar)


@contextmanager
def _checked_runs(bland: bool):
    """Check the maintained state after every simplex run and the cached
    prices at every pivot, optionally in Bland mode from the first stalled
    pivot; yields coverage counts."""
    seen = {"phase_one": 0, "structural_keys": 0, "reprice_only": 0}
    real_init, real_run = lpcore._Simplex.__init__, lpcore._Simplex.run
    real_entering, real_ratio_test = lpcore._Simplex._entering, lpcore._Simplex._ratio_test

    def recording_init(self, a, ar, *args):
        assert np.array_equal(ar[:, :a.shape[1]], a)
        self.plain_rows = ar.copy()  # the start keys are all-zero columns
        real_init(self, a, ar, *args)

    def checked_entering(self, *args):
        _assert_fresh_prices(self)
        return real_entering(self, *args)

    def checked_ratio_test(self, *args):
        _assert_fresh_prices(self)
        return real_ratio_test(self, *args)

    def checked_run(self, max_iterations):
        reprice_only = self.pricings - self.inversions
        status = real_run(self, max_iterations)
        # every pricing without an inversion followed a key hand-over to q
        seen["reprice_only"] += self.pricings - self.inversions - reprice_only
        ar, cr, sign = _fresh_state(self, self.plain_rows)
        assert self.ar.flags.c_contiguous
        assert np.array_equal(self.ar, ar)
        assert np.array_equal(self.cr, cr)
        assert np.array_equal(self.sign, sign)
        # a state that runs twice ran Phase I first
        self.checked_runs = getattr(self, "checked_runs", 0) + 1
        seen["phase_one"] += self.checked_runs == 2
        # set slacks are the only members with an infinite upper bound
        seen["structural_keys"] += int(np.isfinite(self.hi[self.key[:-1]]).sum())
        return status

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpcore._Simplex, "__init__", recording_init)
        mp.setattr(lpcore._Simplex, "run", checked_run)
        mp.setattr(lpcore._Simplex, "_entering", checked_entering)
        mp.setattr(lpcore._Simplex, "_ratio_test", checked_ratio_test)
        if bland:
            mp.setattr(lpcore, "STALL_LIMIT", 1)
        yield seen


@settings(max_examples=150, deadline=None)
@given(_allocation_lps(), st.booleans())
def test_maintained_state_matches_fresh_state_on_allocation_lps(p, bland):
    with _checked_runs(bland):
        solve_lp(p)


@pytest.mark.parametrize("bland", [False, True])
def test_maintained_state_through_key_handovers_phase_one_and_bnb(bland):
    handover = LpProblem(
        [1.0, 0.5, 0.1], [[2.0, 1.0, -1.0]], [1.0], [0.0, 0.2, 0.0], [1.0, 1.0, 2.0],
        sets=[0, 0, -1],
    )
    rng = np.random.default_rng(29)
    with _checked_runs(bland) as seen:
        assert solve_lp(handover).status == "optimal"
        for p in (_ge_and_eq_rows(), _redundant_equal_rows()):
            assert solve_lp(p).status == "optimal"
        for _ in range(6):
            n, delta = 6, 3
            values = rng.uniform(-0.3, 0.9, size=(n, delta + 1))
            values[:, 0] = 0.0
            cade = CadeMatrix(values=values, doses=np.arange(delta + 1) / delta)
            prob = make_problem(
                cade, budget=float(rng.uniform(0.5, 3.0)), groups=np.arange(n) % 2,
                eps_dt=0.25, eps_do=0.5,
            )
            assert solve_bnb(prob).status == "optimal"
    assert seen["phase_one"] > 0 and seen["structural_keys"] > 0 and seen["reprice_only"] > 0
