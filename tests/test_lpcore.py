"""Tests for the bounded-variable simplex engine."""

import numpy as np
import pytest

from doseuplift.lpcore import LpError, LpProblem, constraint_violation, solve_lp

from .oracles import simplex_oracle


def _problem(c, a, senses, b, lo, hi):
    return LpProblem(
        objective=np.asarray(c, dtype=float),
        a_matrix=np.asarray(a, dtype=float),
        senses=senses,
        rhs=np.asarray(b, dtype=float),
        lower=np.asarray(lo, dtype=float),
        upper=np.asarray(hi, dtype=float),
    )


def test_single_variable_row_bound():
    p = _problem([1.0], [[1.0]], ["<="], [3.0], [0.0], [10.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_pair():
    p = _problem([1.0], [[1.0], [1.0]], [">=", "<="], [2.0, 1.0], [0.0], [10.0])
    sol = solve_lp(p)
    assert sol.status == "infeasible"


def test_equality_and_ge_rows():
    # max x + y s.t. x + y <= 4, x >= 1, y = 2 -> x = 2, y = 2
    p = _problem(
        [1.0, 1.0],
        [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
        ["<=", ">=", "="],
        [4.0, 1.0, 2.0],
        [0.0, 0.0],
        [10.0, 10.0],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.x == pytest.approx([2.0, 2.0], abs=1e-8)


def test_redundant_equality_rows():
    p = _problem(
        [1.0, 0.0],
        [[1.0, 1.0], [1.0, 1.0]],
        ["=", "="],
        [2.0, 2.0],
        [0.0, 0.0],
        [5.0, 5.0],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_no_rows_box_only():
    p = _problem([1.0, -1.0], np.zeros((0, 2)), [], [], [0.0, 0.0], [1.0, 1.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-12)


def test_fixed_variables_are_substituted():
    p = _problem(
        [3.0, 1.0],
        [[1.0, 1.0]],
        ["<="],
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
    p = _problem([1.0], np.zeros((0, 1)), [], [], [-3.0], [-1.0])
    sol = solve_lp(p)
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(LpError):
        _problem([1.0, 2.0], [[1.0]], ["<="], [1.0], [0.0], [1.0])


def test_nonfinite_bound_rejected():
    with pytest.raises(LpError):
        _problem([1.0], [[1.0]], ["<="], [1.0], [0.0], [np.inf])


def test_with_bounds_checks_only_bounds_and_shares_the_rest():
    p = _problem([1.0, 2.0], [[1.0, 1.0]], ["<="], [3.0], [0.0, 0.0], [2.0, 2.0])
    q = p.with_bounds(np.asarray([0.0, 0.0]), [2.0, 0.5])
    assert q.a_matrix is p.a_matrix and q.objective is p.objective and q.rhs is p.rhs
    assert q.senses == p.senses
    assert np.array_equal(p.upper, [2.0, 2.0])  # the original keeps its bounds
    fresh = _problem([1.0, 2.0], [[1.0, 1.0]], ["<="], [3.0], [0.0, 0.0], [2.0, 0.5])
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


def test_iteration_limit_is_reported():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(10, 15))
    p = _problem(
        rng.uniform(0.1, 1, 15), a, ["<="] * 10, rng.uniform(0.5, 2.0, 10),
        np.zeros(15), np.full(15, 2.0),
    )
    sol = solve_lp(p, max_iterations=1)
    assert sol.status == "iteration_limit"
    assert sol.x is None


def test_determinism():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, size=(8, 12))
    p = _problem(
        rng.uniform(-1, 1, 12), a, ["<="] * 8, rng.uniform(0.5, 2.0, 8),
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

        p = _problem(c, a, ["<="] * m, b, np.zeros(n), ub)
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
        p = _problem(c, a, ["<="] * m, b, np.zeros(n), ub)
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
    # problems with >= and = rows built so both routes see the same geometry
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 6))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        ub = rng.uniform(0.5, 2.0, size=n)
        # add a redundant >= 0-sum row: sum of nonnegative vars >= 0
        a2 = np.vstack([a, np.ones(n)])
        p = _problem(c, a2, ["<="] * m + [">="], np.concatenate([b, [0.0]]),
                     np.zeros(n), ub)
        sol = solve_lp(p)
        a_oracle = np.vstack([a, np.eye(n)])
        b_oracle = np.concatenate([b, ub])
        _, obj = simplex_oracle(c, a_oracle, b_oracle)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-6)
