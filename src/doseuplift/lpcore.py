"""Dense bounded-variable primal simplex for the allocation LP relaxations.

Maximization with row senses <=, >=, =, and finite variable bounds. Dense
tableau arithmetic is deliberate: relaxations here have at most a few
thousand rows, and rank-1 tableau updates vectorize well at that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dger

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
# iterations without objective improvement before switching to Bland's rule
STALL_LIMIT = 500

LE, GE, EQ = "<=", ">=", "="
_SENSES = (LE, GE, EQ)


class LpError(ValueError):
    """Raised for malformed problems (dimension or bound violations)."""


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  subject to row constraints and variable bounds."""

    objective: np.ndarray
    a_matrix: np.ndarray
    senses: Sequence[str]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if a.size == 0:
            a = a.reshape(0, c.shape[0])
        m, n = a.shape
        if c.shape != (n,) or b.shape != (m,) or lo.shape != (n,) or hi.shape != (n,):
            raise LpError(
                f"dimension mismatch: A is {m}x{n}, c {c.shape}, b {b.shape}, "
                f"bounds {lo.shape}/{hi.shape}"
            )
        if len(self.senses) != m:
            raise LpError(f"expected {m} senses, got {len(self.senses)}")
        for s in self.senses:
            if s not in _SENSES:
                raise LpError(f"unknown row sense {s!r}")
        for arr, name in ((c, "objective"), (a, "matrix"), (b, "rhs"), (lo, "lower"), (hi, "upper")):
            if not np.all(np.isfinite(arr)):
                raise LpError(f"{name} contains non-finite values")
        if np.any(lo > hi):
            raise LpError("lower bound exceeds upper bound")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "senses", tuple(self.senses))

    @property
    def n_rows(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a_matrix.shape[1]


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective: float
    x: np.ndarray | None
    iterations: int


class _Tableau:
    """Mutable simplex state over the slack-extended equality system."""

    def __init__(self, a_ext, lo, hi, x, at_upper, basis):
        # Fortran order: ratio tests read columns, and the BLAS rank-1
        # update in _pivot requires it
        self.tab = np.asfortranarray(a_ext)
        self.lo = lo
        self.hi = hi
        self.x = x
        self.at_upper = at_upper
        self.basis = basis
        self.in_basis = np.zeros(a_ext.shape[1], dtype=bool)
        self.in_basis[basis] = True
        self.obj_row = None
        self.obj_val = 0.0
        self.iterations = 0

    def set_objective(self, c_ext: np.ndarray) -> None:
        self.c_ext = c_ext
        if len(self.basis):
            self.obj_row = c_ext - self.c_ext[self.basis] @ self.tab
        else:
            self.obj_row = c_ext.copy()
        self.obj_row[self.in_basis] = 0.0
        self.obj_val = float(self.c_ext @ self.x)

    def _entering(self, bland: bool, allowed: np.ndarray) -> int:
        r = self.obj_row
        eligible = allowed & ~self.in_basis & (self.lo < self.hi)
        improving = eligible & (
            (~self.at_upper & (r > PIVOT_TOL)) | (self.at_upper & (r < -PIVOT_TOL))
        )
        idx = np.nonzero(improving)[0]
        if idx.size == 0:
            return -1
        if bland:
            return int(idx[0])
        return int(idx[np.argmax(np.abs(r[idx]))])

    def _ratio_test(self, q: int, direction: float, bland: bool):
        """Max step for the entering variable; returns (t, blocking_row)."""
        col = self.tab[:, q]
        coef = -col * direction  # per-unit change of each basic variable
        xb = self.x[self.basis]
        limits = np.full(len(self.basis), np.inf)
        up = coef > PIVOT_TOL
        dn = coef < -PIVOT_TOL
        if np.any(up):
            room = self.hi[self.basis[up]] - xb[up]
            limits[up] = np.maximum(room, 0.0) / coef[up]
        if np.any(dn):
            room = xb[dn] - self.lo[self.basis[dn]]
            limits[dn] = np.maximum(room, 0.0) / (-coef[dn])
        t_own = self.hi[q] - self.lo[q]
        t_rows = limits.min() if limits.size else np.inf
        if t_own <= t_rows:
            return t_own, -1
        if not np.isfinite(t_rows):
            return np.inf, -1
        near = np.nonzero(limits <= t_rows + 1e-12)[0]
        if bland:
            row = int(near[np.argmin(self.basis[near])])
        else:
            row = int(near[np.argmax(np.abs(col[near]))])
        return max(t_rows, 0.0), row

    def _pivot(self, row: int, q: int) -> None:
        piv = self.tab[row, q]
        self.tab[row, :] /= piv
        col = self.tab[:, q].copy()
        col[row] = 0.0
        pivot_row = np.ascontiguousarray(self.tab[row, :])
        self.tab = dger(-1.0, col, pivot_row, a=self.tab, overwrite_a=1)
        self.obj_row -= self.obj_row[q] * pivot_row
        # force the entering column to an exact unit vector
        self.tab[:, q] = 0.0
        self.tab[row, q] = 1.0
        self.obj_row[q] = 0.0

    def run(self, max_iterations: int, allowed: np.ndarray) -> str:
        """Iterate to optimality; returns optimal | unbounded | iteration_limit."""
        bland = False
        stall = 0
        last_obj = self.obj_val
        while True:
            q = self._entering(bland, allowed)
            if q < 0:
                return "optimal"
            if self.iterations >= max_iterations:
                return "iteration_limit"
            self.iterations += 1
            direction = -1.0 if self.at_upper[q] else 1.0
            t, row = self._ratio_test(q, direction, bland)
            if not np.isfinite(t):
                return "unbounded"
            delta = direction * t
            if t > 0.0:
                self.x[self.basis] -= self.tab[:, q] * delta
                self.x[q] += delta
                self.obj_val += float(self.obj_row[q] * delta)
            if row < 0:
                # entering variable moved across to its other bound
                self.x[q] = self.lo[q] if self.at_upper[q] else self.hi[q]
                self.at_upper[q] = not self.at_upper[q]
            else:
                leaving = self.basis[row]
                hit_upper = (-self.tab[row, q] * direction) > 0
                self.x[leaving] = self.hi[leaving] if hit_upper else self.lo[leaving]
                self.at_upper[leaving] = bool(hit_upper)
                self.in_basis[leaving] = False
                self.in_basis[q] = True
                self.basis[row] = q
                self._pivot(row, q)
            if self.obj_val > last_obj + 1e-12:
                last_obj = self.obj_val
                stall = 0
                bland = False
            else:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True


def solve_lp(problem: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Solve the LP; never returns a silently wrong answer.

    Phase I introduces artificial variables only for rows whose slack cannot
    absorb the initial residual, so formulations with an all-slack feasible
    origin skip straight to Phase II.
    """
    m, n = problem.n_rows, problem.n_cols
    if max_iterations is None:
        max_iterations = 100 * (m + n)

    lo_s = problem.lower.copy()
    hi_s = problem.upper.copy()
    free = lo_s < hi_s
    fixed_idx = np.nonzero(~free)[0]
    free_idx = np.nonzero(free)[0]
    x_fixed = lo_s[fixed_idx]
    obj_const = float(problem.objective[fixed_idx] @ x_fixed) if fixed_idx.size else 0.0
    b_eff = problem.rhs - problem.a_matrix[:, fixed_idx] @ x_fixed if fixed_idx.size else problem.rhs.copy()

    a_f = problem.a_matrix[:, free_idx]
    c_f = problem.objective[free_idx]
    lo_f = lo_s[free_idx]
    hi_f = hi_s[free_idx]
    nf = free_idx.size

    if nf == 0:
        # everything fixed: feasibility check only
        viol = constraint_violation(problem, lo_s)
        if viol > FEAS_TOL:
            return LpSolution("infeasible", float("nan"), None, 0)
        return LpSolution("optimal", obj_const, lo_s.copy(), 0)

    # slack-extended equality system
    n_slack = sum(1 for s in problem.senses if s != EQ)
    slack_of_row = np.full(m, -1, dtype=int)
    slo = np.empty(n_slack)
    shi = np.empty(n_slack)
    k = 0
    for i, s in enumerate(problem.senses):
        if s == EQ:
            continue
        slack_of_row[i] = nf + k
        slo[k], shi[k] = (0.0, np.inf) if s == LE else (-np.inf, 0.0)
        k += 1

    n_t = nf + n_slack
    a_ext = np.zeros((m, n_t))
    a_ext[:, :nf] = a_f
    for i in range(m):
        if slack_of_row[i] >= 0:
            a_ext[i, slack_of_row[i]] = 1.0
    lo = np.concatenate([lo_f, slo])
    hi = np.concatenate([hi_f, shi])

    # initial point: structurals at their lower bound, slacks absorbing what they can
    x = np.zeros(n_t)
    x[:nf] = lo_f
    at_upper = np.zeros(n_t, dtype=bool)
    resid = b_eff - a_ext[:, :nf] @ lo_f

    basis = np.empty(m, dtype=int)
    art_rows = []
    for i in range(m):
        j = slack_of_row[i]
        if j >= 0 and lo[j] - 1e-12 <= resid[i] <= hi[j] + 1e-12:
            val = min(max(resid[i], lo[j]), hi[j])
            x[j] = val
            basis[i] = j
        else:
            if j >= 0:
                x[j] = 0.0 if lo[j] == 0.0 else hi[j]
                at_upper[j] = lo[j] != 0.0
            art_rows.append(i)
            basis[i] = -1

    n_art = len(art_rows)
    if n_art:
        cols = np.zeros((m, n_art))
        art_lo = np.zeros(n_art)
        art_hi = np.full(n_art, np.inf)
        for k2, i in enumerate(art_rows):
            # slacks of artificial rows sit at zero, so the residual is intact
            if resid[i] < 0:
                a_ext[i] *= -1.0
                b_eff[i] *= -1.0
            cols[i, k2] = 1.0
            basis[i] = n_t + k2
        a_ext = np.hstack([a_ext, cols])
        lo = np.concatenate([lo, art_lo])
        hi = np.concatenate([hi, art_hi])
        x = np.concatenate([x, np.zeros(n_art)])
        at_upper = np.concatenate([at_upper, np.zeros(n_art, dtype=bool)])
        # recompute artificial values from the (possibly sign-flipped) rows
        x[n_t:] = b_eff[art_rows] - a_ext[art_rows, :n_t] @ x[:n_t]

    state = _Tableau(a_ext, lo, hi, x, at_upper, basis)
    total_cols = a_ext.shape[1]

    if n_art:
        c1 = np.zeros(total_cols)
        c1[n_t:] = -1.0
        state.set_objective(c1)
        status = state.run(max_iterations, allowed=np.ones(total_cols, dtype=bool))
        if status == "iteration_limit":
            return LpSolution("iteration_limit", float("nan"), None, state.iterations)
        if status == "unbounded":  # phase I is bounded above by zero
            raise RuntimeError("phase I reported unbounded; numerical failure")
        if state.obj_val < -FEAS_TOL:
            return LpSolution("infeasible", float("nan"), None, state.iterations)
        _drive_out_artificials(state, n_t)
        # freeze artificials at zero; they never re-enter
        state.lo[n_t:] = 0.0
        state.hi[n_t:] = 0.0
        state.x[n_t:] = 0.0

    c2 = np.zeros(total_cols)
    c2[:nf] = c_f
    state.set_objective(c2)
    allowed = np.ones(total_cols, dtype=bool)
    allowed[n_t:] = False
    status = state.run(max_iterations, allowed=allowed)
    if status == "unbounded":
        return LpSolution("unbounded", float("inf"), None, state.iterations)
    if status == "iteration_limit":
        return LpSolution("iteration_limit", float("nan"), None, state.iterations)

    x_full = np.empty(n)
    x_full[free_idx] = state.x[:nf]
    x_full[fixed_idx] = x_fixed
    # snap tiny bound violations introduced by float drift
    x_full = np.minimum(np.maximum(x_full, problem.lower), problem.upper)
    objective = float(problem.objective @ x_full)
    return LpSolution("optimal", objective, x_full, state.iterations)


def _drive_out_artificials(state: _Tableau, n_t: int) -> None:
    """Pivot basic artificials out on any usable column; drop redundant rows."""
    drop = []
    for row in range(len(state.basis)):
        if state.basis[row] < n_t:
            continue
        usable = np.nonzero(
            (np.abs(state.tab[row, :n_t]) > FEAS_TOL) & ~state.in_basis[:n_t]
        )[0]
        if usable.size:
            q = int(usable[0])
            leaving = state.basis[row]
            state.in_basis[leaving] = False
            state.in_basis[q] = True
            state.basis[row] = q
            # degenerate pivot: the artificial is at zero, values do not move
            state._pivot(row, q)
        else:
            drop.append(row)
    if drop:
        keep = np.setdiff1d(np.arange(len(state.basis)), drop)
        state.tab = np.asfortranarray(state.tab[keep])
        state.basis = state.basis[keep]


def constraint_violation(problem: LpProblem, x: np.ndarray) -> float:
    """Largest signed violation of any row of the problem at point x."""
    ax = problem.a_matrix @ x
    worst = 0.0
    for i, s in enumerate(problem.senses):
        if s == LE:
            worst = max(worst, ax[i] - problem.rhs[i])
        elif s == GE:
            worst = max(worst, problem.rhs[i] - ax[i])
        else:
            worst = max(worst, abs(ax[i] - problem.rhs[i]))
    return worst
