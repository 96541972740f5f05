"""Constrained dose allocation: greedy, exact DP, branch-and-bound.

The problem: pick exactly one grid dose per entity, maximizing the sum of
benefit-weighted dose effects, subject to a total-cost budget and optional
group-fairness bounds on mean assigned dose and mean estimated outcome gain.
Dose 0 has zero cost and zero effect, so the all-zeros policy is always
feasible and infeasibility can never arise from the budget alone.
"""

from __future__ import annotations

import copy
import heapq
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._csvio import CsvFormatError, naming, parse_cell, read_table, write_rows
from .estimators import (
    CadeMatrix,
    load_cade_csv,
    read_dose_csv,
    save_cade_csv,
    write_dose_csv,
)
from .lpcore import LpProblem, LpStart, solve_lp

BUDGET_TOL = 1e-9
FAIRNESS_TOL = 1e-7
INT_TOL = 1e-6


class AllocError(ValueError):
    """Raised for malformed allocation problems or unsupported solver inputs."""


def _check_budget(budget) -> None:
    if not np.isfinite(budget) or budget < 0:
        raise AllocError(f"budget must be finite and >= 0, got {budget!r}")


def _stacklevel_outside_package() -> int:
    """``warnings.warn`` stacklevel of the innermost caller outside this package."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith(
        __package__ + "."
    ):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class AllocationProblem:
    """Dose-effect matrix plus costs, benefits, budget, and fairness slacks.

    ``eps_dt`` bounds the relative gap in mean assigned dose between the two
    groups; ``eps_do`` does the same for mean estimated outcome gain. ``None``
    disables a constraint; a slack >= 1 also disables it unless
    ``strict_eps_one`` keeps the literal inequality pair active. Which pairs
    apply is decided once, at construction (see ``active_fairness``).
    """

    cade: CadeMatrix
    costs: np.ndarray
    benefits: np.ndarray
    budget: float
    groups: np.ndarray
    eps_dt: float | None = None
    eps_do: float | None = None
    strict_eps_one: bool = False
    _fairness: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        benefits = np.asarray(self.benefits, dtype=float)
        groups = np.asarray(self.groups, dtype=int)
        if costs.shape != self.cade.values.shape:
            raise AllocError("cost matrix must match the dose-effect matrix shape")
        if np.any(costs[:, 0] != 0.0):
            raise AllocError("dose-0 costs must be zero")
        if not np.all(np.isfinite(costs) & (costs >= 0.0)):
            raise AllocError("costs must be finite and nonnegative")
        if benefits.shape != (self.cade.n,):
            raise AllocError("benefit vector must have one entry per entity")
        if not np.all(np.isfinite(benefits)):
            raise AllocError("benefits must be finite")
        if groups.shape != (self.cade.n,) or not np.all((groups == 0) | (groups == 1)):
            raise AllocError("groups must be 0/1 with one entry per entity")
        _check_budget(self.budget)
        for eps in (self.eps_dt, self.eps_do):
            if eps is not None and not (0.0 <= eps <= 1.0):
                raise AllocError("fairness slacks must lie in [0, 1] or be None")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "benefits", benefits)
        object.__setattr__(self, "groups", groups)

        weights = fairness_weights(self.cade)
        pairs = [
            (kind, float(eps), weights[kind])
            for kind, eps in (("dose", self.eps_dt), ("outcome", self.eps_do))
            if eps is not None and (eps < 1.0 or self.strict_eps_one)
        ]
        if pairs and not (np.any(groups == 0) and np.any(groups == 1)):
            warnings.warn(
                "one protected group is empty; fairness constraints skipped",
                stacklevel=_stacklevel_outside_package(),
            )
            pairs = []
        object.__setattr__(self, "_fairness", tuple(pairs))

    @property
    def n(self) -> int:
        return self.cade.n

    @property
    def delta(self) -> int:
        return self.cade.delta

    def value_matrix(self) -> np.ndarray:
        return self.cade.values * self.benefits[:, None]

    def with_budget(self, budget: float) -> "AllocationProblem":
        """The same problem at another budget; fairness is not resolved again."""
        _check_budget(budget)
        other = copy.copy(self)
        object.__setattr__(other, "budget", budget)
        return other

    def active_fairness(self) -> tuple[tuple[str, float, np.ndarray], ...]:
        """``(kind, eps, weights)`` for each constraint pair that applies, after
        slack and group checks; ``weights`` is the kind's ``fairness_weights`` table."""
        return self._fairness


def fairness_weights(cade: CadeMatrix) -> dict[str, np.ndarray]:
    """Per kind of fairness pair, the (n, delta+1) table whose group means it bounds."""
    return {"dose": np.broadcast_to(cade.doses, cade.values.shape), "outcome": cade.values}


def proportional_costs(cade: CadeMatrix) -> np.ndarray:
    """Cost equal to the dose value itself, for every entity."""
    return np.tile(cade.doses, (cade.n, 1))


def make_problem(
    cade: CadeMatrix,
    budget: float,
    groups: np.ndarray,
    costs: np.ndarray | None = None,
    benefits: np.ndarray | None = None,
    eps_dt: float | None = None,
    eps_do: float | None = None,
    strict_eps_one: bool = False,
) -> AllocationProblem:
    if costs is None:
        costs = proportional_costs(cade)
    if benefits is None:
        benefits = np.ones(cade.n)
    return AllocationProblem(
        cade=cade,
        costs=costs,
        benefits=benefits,
        budget=budget,
        groups=groups,
        eps_dt=eps_dt,
        eps_do=eps_do,
        strict_eps_one=strict_eps_one,
    )


@dataclass(frozen=True, eq=False)
class Policy:
    """Exactly one dose per entity, held as dose indices of the smallest
    unsigned type that fits the grid (uint8 up to 256 doses); ``matrix``,
    the binary entity x dose assignment, is built on demand. Two policies
    are equal when they assign the same doses on the same grid size."""

    dose_indices: np.ndarray
    n_doses: int

    def __post_init__(self):
        idx = np.asarray(self.dose_indices)
        if idx.ndim != 1 or not (idx.size == 0 or np.issubdtype(idx.dtype, np.integer)):
            raise AllocError("dose indices must be a vector of integers")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_doses):
            raise AllocError(f"dose indices must lie in 0..{self.n_doses - 1}")
        if self.n_doses > np.iinfo(np.int16).max + 1:
            raise AllocError(f"at most 32768 doses, got {self.n_doses}")
        idx = idx.astype(np.min_scalar_type(self.n_doses - 1))
        idx.flags.writeable = False
        object.__setattr__(self, "dose_indices", idx)
        object.__setattr__(self, "n_doses", int(self.n_doses))

    def _key(self) -> tuple[int, bytes]:
        return self.n_doses, self.dose_indices.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def shape(self) -> tuple[int, int]:
        """The (entities, doses) shape of ``matrix`` and of the tables it picks from."""
        return self.dose_indices.size, self.n_doses

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=np.int8)
        m[np.arange(self.dose_indices.size), self.dose_indices] = 1
        return m

    def doses(self, grid: np.ndarray) -> np.ndarray:
        return grid[self.dose_indices]

    def picked(self, table: np.ndarray) -> np.ndarray:
        """Each entity's entry of an (entities, doses) ``table`` at its dose."""
        return table[np.arange(self.dose_indices.size), self.dose_indices]


@dataclass(frozen=True)
class SolveReport:
    status: str  # optimal | infeasible | heuristic | limit
    objective: float
    policy: Policy | None
    nodes: int
    root_bound: float | None
    best_bound: float | None
    wall_ms: float
    # work counters (B&B: lp_calls, lp_pivots, lp_inversions, lp_pricings);
    # kept out of csv_row and files
    stats: dict[str, int] = field(default_factory=dict)

    def csv_row(self, costs: np.ndarray) -> list[str]:
        cost = float("nan") if self.policy is None else policy_cost(self.policy, costs)
        return [
            self.status,
            repr(float(self.objective)),
            repr(float(cost)),
            str(self.nodes),
            "" if self.best_bound is None else repr(float(self.best_bound)),
            repr(float(self.wall_ms)),
        ]


REPORT_CSV_HEADER = ["status", "objective", "cost", "nodes", "bound", "wall_ms"]


def policy_cost(policy: Policy, costs: np.ndarray) -> float:
    """Total cost of the assigned doses."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape != policy.shape:
        raise AllocError("cost matrix shape does not match the policy")
    return float(np.sum(policy.matrix * costs))


def policy_value(policy: Policy, cade: CadeMatrix, benefits: np.ndarray | None = None) -> float:
    """Benefit-weighted sum of the dose effects picked by the policy."""
    if cade.values.shape != policy.shape:
        raise AllocError("dose-effect matrix shape does not match the policy")
    if benefits is None:
        benefits = np.ones(cade.n)
    benefits = np.asarray(benefits, dtype=float)
    if benefits.shape != (cade.n,):
        raise AllocError("benefit vector shape does not match the policy")
    return float((policy.picked(cade.values) * benefits).sum())


def group_means(policy: Policy, weights: np.ndarray, groups: np.ndarray) -> tuple[float, float]:
    """Per-group means of the policy-selected entries of ``weights``."""
    picked = policy.picked(weights)
    return float(picked[groups == 0].mean()), float(picked[groups == 1].mean())


def fairness_violation(prob: AllocationProblem, policy: Policy) -> float:
    """Largest violation of the active fairness inequalities (0 when none)."""
    worst = 0.0
    for _, eps, weights in prob.active_fairness():
        m0, m1 = group_means(policy, weights, prob.groups)
        worst = max(worst, (1.0 - eps) * m1 - m0, m0 - (1.0 + eps) * m1)
    return worst


def _finish(status, objective, policy, nodes, root_bound, best_bound, t0, **stats) -> SolveReport:
    return SolveReport(
        status=status,
        objective=objective,
        policy=policy,
        nodes=nodes,
        root_bound=root_bound,
        best_bound=best_bound,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        stats=stats,
    )


def _best_nonnegative_dose(prob: AllocationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Each entity's best dose index (the lowest on ties) and its value, with
    dose 0 and value 0 where no dose has a positive value."""
    values = prob.value_matrix()
    best_dose = np.argmax(values, axis=1)  # first max: lowest dose index
    best_val = values[np.arange(prob.n), best_dose]
    positive = best_val > 0.0
    return np.where(positive, best_dose, 0), np.where(positive, best_val, 0.0)


def solve_greedy(prob: AllocationProblem) -> SolveReport:
    """Rank entities by their best dose effect; assign while budget remains.

    Ignores fairness, so it refuses problems that require it. An entity whose
    best dose has non-positive value keeps dose 0.
    """
    t0 = time.perf_counter()
    if prob.active_fairness():
        raise AllocError("greedy heuristic does not support fairness constraints")
    best_dose, best_val = _best_nonnegative_dose(prob)
    order = np.argsort(-best_val, kind="stable")  # ties: lowest entity first
    remaining = prob.budget
    assign = np.zeros(prob.n, dtype=int)
    for i in order[best_dose[order] > 0].tolist():
        d = int(best_dose[i])
        c = prob.costs[i, d]
        if c <= remaining + BUDGET_TOL:
            assign[i] = d
            remaining -= c
    policy = Policy(assign, prob.delta + 1)
    objective = policy_value(policy, prob.cade, prob.benefits)
    return _finish("heuristic", objective, policy, 0, None, None, t0)


def _integral_costs(prob: AllocationProblem) -> np.ndarray | None:
    """Costs scaled to exact integers at the grid resolution (``delta`` units
    per unit of cost); None when they are not."""
    scaled = prob.costs * prob.delta
    int_costs = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - int_costs)) > 1e-9:
        return None
    return int_costs


def solve_dp(prob: AllocationProblem) -> SolveReport:
    """Exact multi-choice knapsack DP for budget-only problems.

    Costs must scale to exact integers at the grid resolution; anything
    else is refused rather than silently rounded.
    """
    return solve_dp_sweep(prob, [prob.budget])[0]


def solve_dp_sweep(prob: AllocationProblem, budgets) -> list[SolveReport]:
    """``solve_dp`` at every budget of a sweep, from one DP table.

    The table is built once, up to the largest budget's capacity, and each
    budget backtracks from its own column. Column w depends only on columns
    <= w, so every policy is the one a table built at that budget alone
    gives, bit for bit. Reports come in the order of ``budgets``; each
    ``wall_ms`` is the shared table build plus that report's backtrack.
    """
    t0 = time.perf_counter()
    if prob.active_fairness():
        raise AllocError("DP solver does not support fairness constraints")
    int_costs = _integral_costs(prob)
    if int_costs is None:
        raise AllocError(
            "costs are not integral at the grid resolution; use solve_bnb instead"
        )
    slack_cap = int(int_costs.max(axis=1).sum())  # beyond this, budget is slack
    budgets = [prob.with_budget(float(b)).budget for b in budgets]  # validates each
    caps = [min(int(np.floor(b * prob.delta + BUDGET_TOL)), slack_cap) for b in budgets]
    if not caps:
        return []
    cap = max(caps)
    if (cap + 1) * prob.n > 200_000_000:
        raise AllocError("DP table too large; use solve_bnb instead")

    values = prob.value_matrix()
    dp = np.zeros(cap + 1)
    choice = np.zeros((prob.n, cap + 1), dtype=np.int16)
    for i in range(prob.n):
        cand = dp.copy()
        for d in range(1, prob.delta + 1):
            c = int(int_costs[i, d])
            v = values[i, d]
            if c > cap:
                continue
            shifted = dp[: dp.size - c] + v
            seg = cand[c:]
            better = shifted > seg
            seg[better] = shifted[better]
            choice[i, c:][better] = d
        dp = cand
    build_s = time.perf_counter() - t0

    reports = []
    for col in caps:
        # each report's clock starts as if the shared build ran just before it
        t_report = time.perf_counter() - build_s
        assign = np.zeros(prob.n, dtype=int)
        w = col
        for i in range(prob.n - 1, -1, -1):
            d = int(choice[i, w])
            assign[i] = d
            w -= int(int_costs[i, d])
        policy = Policy(assign, prob.delta + 1)
        objective = policy_value(policy, prob.cade, prob.benefits)
        reports.append(_finish("optimal", objective, policy, 0, None, objective, t_report))
    return reports


def dp_applicable(prob: AllocationProblem) -> bool:
    """Budget-only problems whose costs are integral at the grid resolution."""
    return not prob.active_fairness() and _integral_costs(prob) is not None


def solve_exact(prob: AllocationProblem, **bnb_kwargs) -> SolveReport:
    """Exact solve, dispatching to the knapsack DP when it applies."""
    return solve_exact_sweep(prob, [prob.budget], **bnb_kwargs)[0]


def solve_exact_sweep(prob: AllocationProblem, budgets, **bnb_kwargs) -> list[SolveReport]:
    """``solve_exact`` at every budget: one DP table when the DP applies,
    otherwise one branch-and-bound per budget."""
    if dp_applicable(prob):
        return solve_dp_sweep(prob, budgets)
    return SOLVERS["bnb"](prob, budgets, **bnb_kwargs)


def _build_lp(prob: AllocationProblem) -> LpProblem:
    """LP relaxation over the dose>=1 variables; dose 0 is the implicit slack.

    Dose 0 contributes nothing to the objective, the budget, or either
    fairness sum, so eliminating its column turns each entity's
    one-dose equality into a one-of set (its doses sum to at most 1), which
    the simplex keeps implicit. The rows are the budget and two per active
    fairness pair, and the all-zeros origin is feasible, which lets the
    simplex skip its artificial phase entirely.
    """
    n, delta = prob.n, prob.delta
    nv = n * delta
    values = prob.value_matrix()
    obj = values[:, 1:].ravel()

    fair = prob.active_fairness()
    m = 1 + 2 * len(fair)
    a = np.zeros((m, nv))
    rhs = np.zeros(m)
    a[0] = prob.costs[:, 1:].ravel()
    rhs[0] = prob.budget

    row = 1
    g0 = prob.groups == 0
    g1 = prob.groups == 1
    n0, n1 = int(g0.sum()), int(g1.sum())
    for _, eps, weights in fair:
        w = weights[:, 1:]
        coef0 = np.where(g0[:, None], w / n0, 0.0).ravel()
        coef1 = np.where(g1[:, None], w / n1, 0.0).ravel()
        # group-0 mean >= (1-eps) * group-1 mean, written as a <= row
        a[row] = (1.0 - eps) * coef1 - coef0
        # group-0 mean <= (1+eps) * group-1 mean
        a[row + 1] = coef0 - (1.0 + eps) * coef1
        row += 2

    return LpProblem(
        objective=obj,
        a_matrix=a,
        rhs=rhs,
        lower=np.zeros(nv),
        upper=np.ones(nv),
        sets=np.repeat(np.arange(n), delta),
    )


def _knapsack_start(
    values: np.ndarray, costs: np.ndarray, budget: float, lower: np.ndarray, upper: np.ndarray
) -> LpStart | None:
    """The optimum of a budget-only node LP (``_build_lp`` under the node's
    bounds), as a start for ``solve_lp``; None when the node is infeasible.

    Without fairness rows the node LP is the LP relaxation of a
    multiple-choice knapsack, whose optimum is a greedy (Sinha & Zoltners
    1979). Each free entity starts at its best zero-cost dose and climbs the
    concave hull of its (cost, value) points, leaving out doses fixed to 0.
    The hull segments of all entities are taken in falling slope order while
    the budget lasts, the first that does not fit in part. Entities fixed to
    a dose pay for it first; when that alone exceeds the budget, the node LP
    is infeasible. The fractional segment's upper end fills the budget row's
    slot, so its slope is the row price, and each entity's vertex maximizes
    value minus that price times cost: the start is optimal.
    """
    n, n_doses = values.shape
    delta = n_doses - 1
    rows = np.arange(n)
    fixed = lower.reshape(n, delta) > 0.0
    budget = budget - float(costs[:, 1:][fixed].sum())
    if budget < 0.0:
        return None
    open_ = np.ones((n, n_doses), dtype=bool)
    open_[:, 1:] = (upper.reshape(n, delta) > 0.0) & ~fixed.any(axis=1, keepdims=True)

    # path[:, k] is each entity's hull vertex after k segments
    path = [np.argmax(np.where(open_ & (costs == 0.0), values, -np.inf), axis=1)]
    slopes, gains = [], []
    slope = np.empty((n, n_doses))
    for _ in range(delta):
        cur = path[-1]
        dc = costs - costs[rows, cur][:, None]
        slope.fill(-np.inf)
        np.divide(values - values[rows, cur][:, None], dc, out=slope, where=open_ & (dc > 0.0))
        nxt = slope.argmax(axis=1)
        s = slope[rows, nxt]
        climb = s > 0.0
        if not climb.any():
            break
        path.append(np.where(climb, nxt, cur))
        slopes.append(np.where(climb, s, -np.inf))
        gains.append(dc[rows, nxt])
    path = np.stack(path, axis=1)

    vertex, slot = path[:, 0], n * delta  # no fractional segment: the row's slack
    frac = None
    if slopes:
        # float round-off must not let a later segment of an entity overtake an earlier one
        slope_seg = np.minimum.accumulate(np.stack(slopes, axis=1), axis=1)
        ent, step = np.nonzero(slope_seg > 0.0)  # entity-major, so ties keep hull order
        order = np.argsort(-slope_seg[ent, step], kind="stable")
        ent, step = ent[order], step[order]
        cum = np.cumsum(np.stack(gains, axis=1)[ent, step])
        n_full = int(np.searchsorted(cum, budget, side="right"))
        # an entity's segments are taken as a prefix, so counting them finds its vertex
        vertex = path[rows, np.bincount(ent[:n_full], minlength=n)]
        if n_full < ent.size:
            e, k = int(ent[n_full]), int(step[n_full])
            used = float(cum[n_full - 1]) if n_full else 0.0
            t = min(max((budget - used) / (cum[n_full] - used), 0.0), 1.0)
            frac = e, int(path[e, k + 1]), t
    x = np.zeros((n, n_doses))
    x[rows, vertex] = 1.0
    # a vertex at dose 0 leaves its set's slack as the key
    keys = np.where(vertex > 0, rows * delta + vertex - 1, n * delta + 1 + rows)
    if frac is not None:
        e, to, t = frac
        x[e, vertex[e]] = 1.0 - t
        x[e, to] = t
        slot = e * delta + to - 1
    x_lp = np.maximum(x[:, 1:].ravel(), lower)
    return LpStart(x=x_lp, keys=keys, basis=np.array([slot]))


def _policy_from_lp_x(x: np.ndarray, n: int, delta: int) -> Policy:
    mat = x.reshape(n, delta)
    best = np.argmax(mat, axis=1)
    assign = np.where(mat[np.arange(n), best] > 0.5, best + 1, 0)
    return Policy(assign, delta + 1)


def _infeasibility(prob: AllocationProblem, policy: Policy) -> str | None:
    """How ``policy`` fails ``prob`` (budget first, then fairness), or None when it is feasible."""
    if policy_cost(policy, prob.costs) > prob.budget + BUDGET_TOL:
        return "exceeds the budget"
    if fairness_violation(prob, policy) > FAIRNESS_TOL:
        return "violates a fairness bound"
    return None


def solve_bnb(prob: AllocationProblem, node_limit: int = 1_000_000) -> SolveReport:
    """Exact branch-and-bound over the LP relaxation.

    Best-bound node order, branching on the most fractional variable (fixed
    to 1 versus 0). The incumbent starts from the greedy policy when no
    fairness constraint is active, otherwise from the always-feasible
    all-zeros policy. Reaching the node limit reports the incumbent with
    its proven bound instead of failing. Before either is reported, the
    incumbent is re-checked against budget and fairness and the bound
    against the objective, with arithmetic that does not go through the LP;
    a failed check raises ``RuntimeError``. Without fairness rows, every
    node LP starts at its optimum from ``_knapsack_start``, so it takes no
    pivot; the node LPs of fairness problems start from all-lower. ``stats``
    counts the node LPs (``lp_calls``) and their pivots, basis inversions
    and pricing passes (``lp_pivots``, ``lp_inversions``, ``lp_pricings``).
    """
    t0 = time.perf_counter()
    n, delta = prob.n, prob.delta
    base = _build_lp(prob)
    values = prob.value_matrix()
    budget_only = not prob.active_fairness()

    if budget_only:
        incumbent = solve_greedy(prob).policy
    else:
        incumbent = Policy(np.zeros(n, dtype=int), delta + 1)
    inc_obj = policy_value(incumbent, prob.cade, prob.benefits)

    # a node: (-parent bound, seq, variables fixed to 0, variables fixed to 1)
    seq = 0
    heap: list[tuple[float, int, tuple, tuple]] = [(-np.inf, seq, (), ())]
    nodes = 0
    root_bound = None
    status = "optimal"
    stats = {"lp_calls": 0, "lp_pivots": 0, "lp_inversions": 0, "lp_pricings": 0}

    # best-bound order: once the best open bound cannot improve, nothing can
    while heap and -heap[0][0] > inc_obj + BUDGET_TOL:
        if nodes >= node_limit:
            status = "limit"
            break
        _, _, zeros, ones = heapq.heappop(heap)
        nodes += 1

        fixed0 = np.array(zeros, dtype=np.intp)
        fixed1 = np.array(ones, dtype=np.intp)
        lower = base.lower.copy()
        upper = base.upper.copy()
        upper.reshape(n, delta)[fixed1 // delta] = 0.0  # one dose per entity: siblings drop to zero
        upper[fixed0] = 0.0
        lower[fixed1] = upper[fixed1] = 1.0
        start = None
        if budget_only:
            start = _knapsack_start(values, prob.costs, prob.budget, lower, upper)
        sol = solve_lp(base.with_bounds(lower, upper), start=start)
        stats["lp_calls"] += 1
        stats["lp_pivots"] += sol.iterations
        stats["lp_inversions"] += sol.stats.get("inversions", 0)
        stats["lp_pricings"] += sol.stats.get("pricings", 0)
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise RuntimeError(f"node LP ended with status {sol.status}")
        if root_bound is None:
            root_bound = sol.objective
        if sol.objective <= inc_obj + BUDGET_TOL:
            continue

        # rounding the LP point often yields a feasible policy; a better
        # incumbent prunes siblings long before the tree closes by itself
        candidate = _policy_from_lp_x(sol.x, n, delta)
        feasible = _infeasibility(prob, candidate) is None
        if feasible:
            cand_obj = policy_value(candidate, prob.cade, prob.benefits)
            if cand_obj > inc_obj + 1e-12:
                incumbent, inc_obj = candidate, cand_obj

        frac = np.minimum(sol.x - np.floor(sol.x), np.ceil(sol.x) - sol.x)
        max_frac = float(frac.max(initial=0.0))
        if max_frac <= INT_TOL:
            if feasible:
                continue  # node solved exactly by its integral LP optimum
            if max_frac <= 1e-12:
                raise RuntimeError("integral LP point fails exact feasibility")
        # most fractional variable; ties resolved toward low dose then entity
        target = frac.max() - 1e-12
        cands = np.nonzero(frac >= target)[0]
        d_idx = cands % delta
        e_idx = cands // delta
        pick = np.lexsort((e_idx, d_idx))[0]
        var = int(cands[pick])
        for child in ((zeros, ones + (var,)), (zeros + (var,), ones)):
            seq += 1
            heapq.heappush(heap, (-sol.objective, seq, *child))

    best_bound = max(-heap[0][0], inc_obj) if status == "limit" else inc_obj
    failed = _infeasibility(prob, incumbent)
    if failed is not None:
        raise RuntimeError(f"certificate failed: the incumbent {failed}")
    if not best_bound >= inc_obj:
        raise RuntimeError("certificate failed: the bound is below the objective")
    return _finish(status, inc_obj, incumbent, nodes, root_bound, best_bound, t0, **stats)


# every solver by name, as a sweep giving one report per budget, in order; the
# per-budget loops look their solver up when called, so a patched one is used
SOLVERS = {
    "greedy": lambda prob, budgets: [solve_greedy(prob.with_budget(float(b))) for b in budgets],
    "dp": solve_dp_sweep,
    "bnb": lambda prob, budgets, **kw: [solve_bnb(prob.with_budget(float(b)), **kw) for b in budgets],
    "exact": solve_exact_sweep,
}
# the sweeps that may search a branch-and-bound tree, so take a node_limit
NODE_LIMIT_SOLVERS = ("bnb", "exact")


def flattening_budget(prob: AllocationProblem) -> float:
    """Budget beyond which the exact optimum stops improving.

    The cost of giving every entity its best nonnegative-value dose.
    """
    best_dose, _ = _best_nonnegative_dose(prob)
    return float(prob.costs[np.arange(prob.n), best_dose].sum())


# ---------------------------------------------------------------------------
# problem files: cade.csv / cost.csv / meta.csv
# ---------------------------------------------------------------------------

META_CSV_HEADER = ["entity", "benefit", "group", "budget", "eps_dt", "eps_do", "strict_eps_one"]


def _eps_field(eps: float | None) -> str:
    return "disabled" if eps is None else repr(float(eps))


def save_problem(prob: AllocationProblem, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_cade_csv(prob.cade, directory / "cade.csv")
    write_dose_csv(directory / "cost.csv", prob.cade.doses, prob.costs)
    shared = [
        repr(float(prob.budget)),
        _eps_field(prob.eps_dt),
        _eps_field(prob.eps_do),
        "true" if prob.strict_eps_one else "false",
    ]
    rows = (
        [str(i), repr(float(prob.benefits[i])), str(int(prob.groups[i]))] + shared
        for i in range(prob.n)
    )
    write_rows(directory / "meta.csv", META_CSV_HEADER, rows)


def load_problem(directory: str | Path) -> AllocationProblem:
    """Read a problem directory; inconsistent files fail with a file:line message."""
    directory = Path(directory)
    cade = load_cade_csv(directory / "cade.csv")
    cost_path = directory / "cost.csv"
    cost_doses, costs = read_dose_csv(cost_path)
    if not np.array_equal(cost_doses, cade.doses):
        raise AllocError(f"{cost_path}:1: dose columns differ from those of cade.csv")

    meta_path = directory / "meta.csv"
    _, rows = read_table(meta_path, lambda h: h in (META_CSV_HEADER, META_CSV_HEADER[:-1]))
    benefits, groups, first = [], [], None
    for line, cells in rows:
        benefit, budget = (parse_cell(meta_path, line, col, cells[col - 1]) for col in (2, 4))
        group = parse_cell(meta_path, line, 3, cells[2], int, "an integer")
        eps_dt, eps_do = (
            None if cells[col - 1] == "disabled"
            else parse_cell(meta_path, line, col, cells[col - 1])
            for col in (5, 6)
        )
        strict = cells[6] if len(cells) > 6 else "false"  # six-column files predate the flag
        if strict not in ("true", "false"):
            raise CsvFormatError(
                f"{meta_path}:{line}, column 7: cannot parse {strict!r} as true or false"
            )
        shared = (budget, eps_dt, eps_do, strict == "true")
        if first is None:
            first = shared
        elif shared != first:
            raise AllocError(
                f"{meta_path}:{line}: budget/eps fields {shared} differ from the first row's {first}"
            )
        benefits.append(benefit)
        groups.append(group)
    budget, eps_dt, eps_do, strict_eps_one = first
    with naming(directory):
        return AllocationProblem(
            cade=cade,
            costs=costs,
            benefits=np.asarray(benefits),
            budget=budget,
            groups=np.asarray(groups, dtype=int),
            eps_dt=eps_dt,
            eps_do=eps_do,
            strict_eps_one=strict_eps_one,
        )
