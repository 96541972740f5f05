"""Bounded primal revised simplex for the allocation LP relaxations.

Maximization under ``<=`` rows, finite variable bounds, and optional
one-of sets: disjoint groups of columns whose values sum to at most 1, such
as the one-dose-per-entity rows of the allocation LP. A ``>=`` row is stated
negated and an ``=`` row as two ``<=`` rows. A set is
never written as a row. It keeps one basic "key" variable that absorbs the
set's equation (generalized upper bounds, Dantzig & Van Slyke 1967), so the
working basis spans only the coupling rows. The allocation LP has at most
five of those however many entities it has. What is full-width is kept
between iterations instead of rebuilt: every column minus its set's key
column (refreshed for one set's members when that set's key changes), the
same reduction of the objective, a sign vector that folds bound status and
eligibility into pricing, and the reduced costs. The small basis is
inverted densely and the reduced costs recomputed only when a pivot changes
what they depend on: a bound flip changes neither, and a key hand-over to
the entering column changes only the reduced costs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
# iterations without objective improvement before switching to Bland's rule
STALL_LIMIT = 500

# what a pivot leaves stale
_NOTHING, _PRICES, _BASIS = 0, 1, 2


class LpError(ValueError):
    """Raised for malformed problems (dimension or bound violations)."""


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  subject to a_matrix @ x <= rhs, lower <= x <= upper
    and the sets.

    ``sets[j]`` is the one-of set of column j, or -1 for none; the columns
    of a set sum to at most 1. Set ids lie in -1..n_cols-1. ``None`` means
    no sets.
    """

    objective: np.ndarray
    a_matrix: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sets: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if a.size == 0:
            a = a.reshape(0, c.shape[0])
        m, n = a.shape
        if c.shape != (n,) or b.shape != (m,):
            raise LpError(f"dimension mismatch: A is {m}x{n}, c {c.shape}, b {b.shape}")
        for arr, name in ((c, "objective"), (a, "matrix"), (b, "rhs")):
            if not np.all(np.isfinite(arr)):
                raise LpError(f"{name} contains non-finite values")
        sets = np.full(n, -1, dtype=np.intp) if self.sets is None else np.asarray(self.sets)
        if sets.shape != (n,) or not np.issubdtype(sets.dtype, np.integer):
            raise LpError(f"sets must be {n} integer set ids, got {sets.dtype} {sets.shape}")
        if n and (sets.min() < -1 or sets.max() >= n):
            raise LpError(f"set ids must lie in -1..{n - 1}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "sets", sets.astype(np.intp, copy=False))
        self._set_bounds(self.lower, self.upper)

    def _set_bounds(self, lower, upper) -> None:
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        n = self.a_matrix.shape[1]
        if lo.shape != (n,) or hi.shape != (n,):
            raise LpError(f"dimension mismatch: {n} columns, bounds {lo.shape}/{hi.shape}")
        for arr, name in ((lo, "lower"), (hi, "upper")):
            if not np.all(np.isfinite(arr)):
                raise LpError(f"{name} contains non-finite values")
        if np.any(lo > hi):
            raise LpError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def with_bounds(self, lower, upper) -> "LpProblem":
        """The same problem under other variable bounds. Only the new bounds
        are checked; the validated objective, matrix, rhs and sets are shared."""
        problem = copy.copy(self)
        problem._set_bounds(lower, upper)
        return problem

    @property
    def n_rows(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a_matrix.shape[1]

    # read by the benchmark's tracer (perfbench/tracing.py), which counts a
    # slack for every row that is not "="
    @property
    def senses(self) -> tuple[str, ...]:
        return ("<=",) * self.n_rows


@dataclass(frozen=True)
class LpSolution:
    """An LP's result; ``x`` is None unless ``status`` is ``optimal``."""

    status: str  # optimal | infeasible | iteration_limit
    objective: float
    x: np.ndarray | None
    iterations: int
    # work counters (inversions, pricings); empty when refused before any pivot
    stats: dict[str, int] = field(default_factory=dict)


class _Simplex:
    """Simplex state over the columns [structurals | row slacks | set slacks |
    artificials | null].

    Only the coupling rows are held. Every set has one key variable
    (``key``) among its basic members; the other basic variables fill one
    slot per coupling row (``basis``). The null column is all zeros and the
    key of set -1, so "column minus its set's key column" needs no branch.
    ``ar`` and ``cr`` hold every column of the rows and of the phase
    objective minus its set's key column. ``ar`` starts as the plain rows,
    taken over, not copied: every start key is a set slack, an all-zero
    column. A key change re-reduces its set's members from ``a``, the
    problem's matrix; ``by_set[set_start[s]:set_start[s + 1]]`` lists the
    members of set s in column order, its slack last. ``sign`` is +1 for a
    nonbasic variable at its lower bound, -1 at its upper bound, and 0 for a
    basic or fixed one, so ``d * sign`` is the gain of letting a column
    enter. ``b_inv`` (the inverse of ``ar[:, basis]``), the row prices
    ``pi = cr[basis] @ b_inv`` and the reduced costs ``d = cr - pi @ ar``
    are recomputed only when a pivot makes them stale, by the same
    operations on the same inputs as a rebuild, so they match one bit for
    bit.
    """

    def __init__(self, a, ar, sets, lo, hi, x, at_upper, basis, key):
        self.a = a
        self.ar = ar
        self.sets = sets
        self.lo = lo
        self.hi = hi
        self.x = x
        self.at_upper = at_upper
        self.basis = basis
        self.key = np.append(key, ar.shape[1] - 1)
        self.by_set = np.argsort(sets, kind="stable")
        self.set_start = np.searchsorted(sets[self.by_set], np.arange(len(key) + 1))
        self.d = np.empty(ar.shape[1])
        self.score = np.empty(ar.shape[1])
        self.iterations = 0
        self.inversions = 0
        self.pricings = 0

    def set_phase(self, c: np.ndarray) -> None:
        self.c = c
        self.cr = c - c[self.key[self.sets]]
        self.obj_val = float(c @ self.x)
        # +1 at lower, -1 at upper; basic and fixed columns (the null column,
        # frozen artificials) never enter
        self.sign = 1.0 - 2.0 * self.at_upper
        self.sign[self.lo >= self.hi] = 0.0
        self.sign[self.basis] = 0.0
        self.sign[self.key] = 0.0

    def stats(self) -> dict[str, int]:
        return {"inversions": self.inversions, "pricings": self.pricings}

    def _invert(self) -> None:
        """Inverse of the working basis and the row prices."""
        try:
            self.b_inv = np.linalg.inv(self.ar[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("singular working basis; numerical failure") from exc
        self.pi = self.cr[self.basis] @ self.b_inv
        self.inversions += 1

    def _price(self) -> None:
        """Reduced costs of every column."""
        np.matmul(self.pi, self.ar, out=self.d)
        np.subtract(self.cr, self.d, out=self.d)
        self.pricings += 1

    def _entering(self, bland: bool) -> int:
        score = np.multiply(self.d, self.sign, out=self.score)
        if bland:
            idx = np.flatnonzero(score > PIVOT_TOL)
            return int(idx[0]) if idx.size else -1
        q = int(score.argmax())
        return q if score[q] > PIVOT_TOL else -1

    def _ratio_test(self, q: int, direction: float, bland: bool):
        """Max step of q; returns (t, moved variables as an index array, their
        rates, blocking position or -1 when q reaches its own other bound first).

        Only the slot variables and the keys of the sets they or q belong to
        move, at most 2 * rows + 1 variables, so plain lists beat arrays for
        the per-variable work here.
        """
        s_q = int(self.sets[q])
        alpha = self.b_inv @ self.ar[:, q]
        moved = self.basis.tolist()
        rate = (alpha * -direction).tolist()
        # a set's key absorbs what its other members gain
        key_rate = {} if s_q < 0 else {s_q: -direction}
        for s, r in zip(self.sets[self.basis].tolist(), rate):
            if s >= 0:
                key_rate[s] = key_rate.get(s, 0.0) - r
        moved += map(self.key.item, key_rate)
        rate += key_rate.values()

        at = np.array(moved, dtype=np.intp)
        limits = []
        for r, x, lo, hi in zip(
            rate, self.x[at].tolist(), self.lo[at].tolist(), self.hi[at].tolist()
        ):
            if r > PIVOT_TOL:
                limits.append(max(hi - x, 0.0) / r)
            elif r < -PIVOT_TOL:
                limits.append(max(x - lo, 0.0) / -r)
            else:
                limits.append(np.inf)
        t_own = float(self.hi[q] - self.lo[q])
        t_rows = min(limits, default=np.inf)
        if t_own <= t_rows:
            return t_own, at, rate, -1
        near = [i for i, lim in enumerate(limits) if lim <= t_rows + 1e-12]
        if bland:
            pos = min(near, key=moved.__getitem__)
        else:
            pos = max(near, key=lambda i: abs(rate[i]))
        return max(t_rows, 0.0), at, rate, pos

    def _exchange(self, q: int, leaving: int, pos: int) -> int:
        """Basis change: q enters, the basic variable ``leaving`` exits.
        Returns what the change leaves stale: _BASIS or _PRICES."""
        self.sign[q] = 0.0
        if self.lo[leaving] < self.hi[leaving]:
            self.sign[leaving] = -1.0 if self.at_upper[leaving] else 1.0
        if pos < len(self.basis):
            self.basis[pos] = q
            return _BASIS
        s = int(self.sets[leaving])
        # a key leaves: a slot member of its set takes over, else q does
        slot_sets = self.sets[self.basis].tolist()
        if s in slot_sets:
            slot = slot_sets.index(s)
            self._set_key(s, self.basis[slot])
            self.basis[slot] = q
            return _BASIS
        if self.sets[q] == s:
            # no slot holds a member of s, so the working basis, its inverse
            # and the row prices are unchanged
            self._set_key(s, q)
            return _PRICES
        raise RuntimeError("leaving key has no successor; numerical failure")

    def _set_key(self, s: int, k: int) -> None:
        """Make k the key of set s and re-reduce the set's member columns."""
        self.key[s] = k
        members = self.by_set[self.set_start[s]:self.set_start[s + 1]]
        # structural columns, then the set's slack, an all-zero column
        cols = np.zeros((self.ar.shape[0], members.size))
        cols[:, :-1] = self.a[:, members[:-1]]
        self.ar[:, members] = cols - cols[:, members == k]
        self.cr[members] = self.c[members] - self.c[k]

    def run(self, max_iterations: int) -> str:
        """Iterate to optimality; returns optimal | iteration_limit."""
        bland = False
        stall = 0
        last_obj = self.obj_val
        stale = _BASIS  # each phase starts from its own objective
        while True:
            if stale == _BASIS:
                self._invert()
            if stale != _NOTHING:
                self._price()
            q = self._entering(bland)
            if q < 0:
                return "optimal"
            if self.iterations >= max_iterations:
                return "iteration_limit"
            self.iterations += 1
            direction = -1.0 if self.at_upper[q] else 1.0
            t, moved, rate, pos = self._ratio_test(q, direction, bland)
            if t == np.inf:  # bounded columns bound the objective: only round-off gets here
                raise RuntimeError("infinite simplex step; numerical failure")
            if t > 0.0:
                self.x[moved] += np.multiply(rate, t)
                self.x[q] += direction * t
                self.obj_val += float(self.d[q] * direction * t)
            if pos < 0:
                # entering variable moved across to its other bound
                self.x[q] = self.lo[q] if self.at_upper[q] else self.hi[q]
                self.at_upper[q] = not self.at_upper[q]
                self.sign[q] = -self.sign[q]
                stale = _NOTHING
            else:
                leaving = moved[pos]
                hit_upper = rate[pos] > 0
                self.x[leaving] = self.hi[leaving] if hit_upper else self.lo[leaving]
                self.at_upper[leaving] = bool(hit_upper)
                stale = self._exchange(q, leaving, pos)
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

    The start puts every column at its lower bound, each set's slack in its
    key and each row's slack in its slot. Phase I adds artificial variables
    only for rows whose slack cannot absorb the residual, so formulations
    with an all-slack feasible origin skip straight to Phase II. An
    ``optimal`` point is re-checked against every row, set and bound, and a
    failed check raises ``RuntimeError``.
    """
    m, n = problem.n_rows, problem.n_cols
    if max_iterations is None:
        max_iterations = 100 * (m + n)
    lower, upper = problem.lower, problem.upper
    member = np.flatnonzero(problem.sets >= 0)
    n_sets = int(problem.sets.max(initial=-1)) + 1
    set_lower = np.bincount(problem.sets[member], lower[member], minlength=n_sets)
    if np.any(set_lower > 1.0 + FEAS_TOL):
        return LpSolution("infeasible", float("nan"), None, 0)

    # row slacks with every column at its lower bound; a negative one needs an artificial
    resid = problem.rhs - problem.a_matrix @ lower
    art_rows = np.flatnonzero(resid < -1e-12)
    n_art = art_rows.size

    # columns: structurals | row slacks | set slacks | artificials | null
    first_slack, first_set, first_art = n, n + m, n + m + n_sets
    n_ext = first_art + n_art + 1
    a = np.zeros((m, n_ext))
    a[:, :n] = problem.a_matrix
    a[np.arange(m), first_slack + np.arange(m)] = 1.0
    a[art_rows, first_art + np.arange(n_art)] = -1.0
    sets = np.concatenate([
        problem.sets, np.full(m, -1), np.arange(n_sets), np.full(n_art + 1, -1)
    ]).astype(np.intp)
    lo = np.concatenate([lower, np.zeros(m + n_sets + n_art + 1)])
    hi = np.concatenate([upper, np.full(m + n_sets + n_art, np.inf), [0.0]])

    x = np.zeros(n_ext)
    x[:n] = lower
    x[first_slack:first_set] = np.maximum(resid, 0.0)
    x[first_set:first_art] = np.maximum(1.0 - set_lower, 0.0)
    x[first_art:-1] = -resid[art_rows]
    at_upper = np.zeros(n_ext, dtype=bool)
    basis = first_slack + np.arange(m)
    basis[art_rows] = first_art + np.arange(n_art)
    state = _Simplex(
        problem.a_matrix, a, sets, lo, hi, x, at_upper, basis, first_set + np.arange(n_sets)
    )

    if n_art:
        c1 = np.zeros(n_ext)
        c1[first_art:-1] = -1.0
        state.set_phase(c1)
        status = state.run(max_iterations)
        if status == "iteration_limit":
            return LpSolution("iteration_limit", float("nan"), None, state.iterations, state.stats())
        if state.x[first_art:-1].sum() > FEAS_TOL:
            return LpSolution("infeasible", float("nan"), None, state.iterations, state.stats())
        # freeze artificials at zero; basic ones leave at the first pivot
        # that moves them, and redundant rows keep theirs
        state.hi[first_art:-1] = 0.0
        state.x[first_art:-1] = 0.0

    c2 = np.zeros(n_ext)
    c2[:n] = problem.objective
    state.set_phase(c2)
    status = state.run(max_iterations)
    if status == "iteration_limit":
        return LpSolution("iteration_limit", float("nan"), None, state.iterations, state.stats())

    x_out = state.x[:n]
    off_bounds = max(float(np.max(lower - x_out, initial=0.0)), float(np.max(x_out - upper, initial=0.0)))
    # snap tiny bound violations introduced by float drift
    x_out = np.minimum(np.maximum(x_out, lower), upper)
    worst = max(off_bounds, constraint_violation(problem, x_out))
    if worst > FEAS_TOL:
        raise RuntimeError(f"optimal point violates a row, set or bound by {worst:.3e}")
    objective = float(problem.objective @ x_out)
    return LpSolution("optimal", objective, x_out, state.iterations, state.stats())


def constraint_violation(problem: LpProblem, x: np.ndarray) -> float:
    """Largest signed violation of any row or set of the problem at point x."""
    worst = float(np.max(problem.a_matrix @ x - problem.rhs, initial=0.0))
    member = problem.sets >= 0
    set_sums = np.bincount(problem.sets[member], x[member])
    return max(worst, float(np.max(set_sums - 1.0, initial=0.0)))
