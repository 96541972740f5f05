"""Output check: every returned policy and every table, by the benchmark's own arithmetic.

Nothing here calls ``fairness_violation``, ``_policy_feasible`` or
``policy_value``: the check recomputes cost, group means and value from the
raw policy matrix, so a solver bug shared with those helpers still shows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BUDGET_TOL = 1e-9
FAIRNESS_TOL = 1e-7
VALUE_TOL = 1e-9
GOLDEN_TOL = 1e-9
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def policy_failures(solve) -> list[str]:
    """Re-verify one solve: one dose each, budget, fairness, objective, bound."""
    prob, rep = solve.problem, solve.report
    if rep.status not in ("optimal", "limit"):
        return [f"{solve.label}: status {rep.status}, expected optimal or limit"]
    if rep.policy is None:
        return [f"{solve.label}: no policy returned"]
    out = []
    m = np.asarray(rep.policy.matrix)
    if m.shape != prob.cade.values.shape or not np.all((m == 0) | (m == 1)) or np.any(m.sum(axis=1) != 1):
        return [f"{solve.label}: policy does not assign exactly one dose per entity"]
    chosen = m.astype(bool)
    cost = float(prob.costs[chosen].sum())
    if cost > prob.budget + BUDGET_TOL:
        out.append(f"{solve.label}: cost {cost!r} exceeds budget {prob.budget!r}")
    g0, g1 = prob.groups == 0, prob.groups == 1
    for kind, eps in (("dose", prob.eps_dt), ("outcome", prob.eps_do)):
        if eps is None or (eps >= 1.0 and not prob.strict_eps_one) or not (g0.any() and g1.any()):
            continue
        weights = np.broadcast_to(prob.cade.doses, m.shape) if kind == "dose" else prob.cade.values
        picked = weights[chosen]  # row-major: one entry per entity, in entity order
        m0, m1 = picked[g0].mean(), picked[g1].mean()
        worst = max((1.0 - eps) * m1 - m0, m0 - (1.0 + eps) * m1)
        if worst > FAIRNESS_TOL:
            out.append(f"{solve.label}: {kind} fairness violated by {worst:.3e}")
    value = float((prob.cade.values[chosen] * prob.benefits).sum())
    if abs(value - rep.objective) > VALUE_TOL:
        out.append(f"{solve.label}: objective {rep.objective!r} but the policy is worth {value!r}")
    if rep.best_bound is None or rep.best_bound < rep.objective - VALUE_TOL:
        out.append(f"{solve.label}: bound {rep.best_bound!r} below objective {rep.objective!r}")
    elif rep.root_bound is not None and rep.best_bound > rep.root_bound + VALUE_TOL:
        out.append(f"{solve.label}: bound {rep.best_bound!r} above the root bound {rep.root_bound!r}")
    return out


def load_golden(workload: str, seed: int) -> dict | None:
    """The seed's golden table as {key: value}, or None when none was recorded."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    values = stored["seeds"].get(str(seed))
    return None if values is None else dict(zip(stored["keys"], values))


def golden_failures(table: dict, golden: dict) -> list[str]:
    """Every tabulated number against the recorded reference, within GOLDEN_TOL."""
    out = []
    for key in sorted(set(table) | set(golden)):
        if key not in table or key not in golden:
            out.append(f"{key}: present in only one of output and golden table")
        elif abs(table[key] - golden[key]) > GOLDEN_TOL:
            out.append(f"{key}: {table[key]!r} differs from golden {golden[key]!r}")
    return out


def exp1_failures(p) -> list[str]:
    """The oracle row reads 1.0 everywhere; exact-solver areas never exceed 1."""
    out = []
    for key, val in p.table.items():
        est, col = key.split(".", 1)
        if not np.isfinite(val):
            out.append(f"{key}: not finite")
        elif est == "oracle" and col.startswith("auuc") and abs(val - 1.0) > VALUE_TOL:
            out.append(f"{key}: oracle area {val!r}, expected 1.0")
        elif est == "oracle" and col == "mise" and abs(val) > VALUE_TOL:
            out.append(f"{key}: oracle MISE {val!r}, expected 0")
        elif col.endswith("_exact") and val > 1.0 + VALUE_TOL:
            # the DP optimum on the true matrix dominates any policy at every budget
            out.append(f"{key}: exact-solver area {val!r} above 1")
    return out


def bnb_failures(p) -> list[str]:
    """The exact budget-only optimum (knapsack DP) lies between objective and bound.

    The fairness-constrained solve at the same budget cannot beat it either.
    """
    from doseuplift import alloc

    optimum = {
        s.problem.budget: alloc.solve_dp(s.problem).objective for s in p.solves if s.problem.eps_dt is None
    }
    out = []
    for s in p.solves:
        ref, rep = optimum.get(s.problem.budget), s.report
        if ref is None:
            continue
        if rep.objective > ref + VALUE_TOL:
            out.append(f"{s.label}: objective {rep.objective!r} above the exact optimum {ref!r}")
        if s.problem.eps_dt is None and rep.best_bound < ref - VALUE_TOL:
            out.append(f"{s.label}: bound {rep.best_bound!r} below the exact optimum {ref!r}")
    return out


WORKLOAD_CHECKS = {"exp1-estimate": exp1_failures, "bnb-747": bnb_failures}


def check_pass(workload: str, p, golden: dict | None) -> tuple[int, list[str]]:
    """Failed operations in one pass, and why each failed.

    A raise or a failed policy check fails its operation. A failed table
    check (oracle row, exact optimum, golden numbers) fails one operation
    each, capped at the operations attempted.
    """
    messages = list(p.raised)
    failed_ops = len(p.raised)
    for s in p.solves:
        bad = policy_failures(s)
        failed_ops += bool(bad)
        messages += bad
    table_bad = WORKLOAD_CHECKS[workload](p)
    if golden is not None:
        table_bad += golden_failures(p.table, golden)
    messages += table_bad
    return min(p.attempted, failed_ops + len(table_bad)), messages
