"""Independent test oracles, deliberately separate from the library code paths.

The simplex oracle is a plain textbook full-tableau method for
max c.x s.t. Ax <= b, x >= 0 with b >= 0, using Bland's rule throughout.
It shares no code with the production solver.

The split oracle is the forest's CART split search written one feature at
a time, and the binned oracle queries the dose-binned kNN model one dose at
a time: the references the vectorized paths must match bit for bit.

The brute-force oracle enumerates every assignment of an allocation problem,
for the exact solvers to match on small instances.
"""

import time

import numpy as np

from doseuplift.alloc import BUDGET_TOL, AllocError, Policy, SolveReport, policy_value


def simplex_oracle(c, a, b, max_iter=50000):
    """Return (status, objective) for max c.x, Ax <= b, x >= 0, b >= 0."""
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert np.all(b >= 0), "oracle requires a nonnegative right-hand side"
    m, n = a.shape

    # tableau rows [A | I | b]; objective row z with z[-1] == -objective
    t = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    z = np.concatenate([c, np.zeros(m + 1)])
    basis = list(range(n, n + m))

    for _ in range(max_iter):
        entering = -1
        for j in range(n + m):  # Bland: first improving column
            if z[j] > 1e-9:
                entering = j
                break
        if entering < 0:
            return "optimal", float(-z[-1])
        col = t[:, entering]
        best_ratio, leave = np.inf, -1
        for i in range(m):
            if col[i] > 1e-9:
                ratio = t[i, -1] / col[i]
                if ratio < best_ratio - 1e-12 or (
                    ratio <= best_ratio + 1e-12 and leave >= 0 and basis[i] < basis[leave]
                ):
                    best_ratio, leave = min(ratio, best_ratio), i
        if leave < 0:
            return "unbounded", float("inf")
        t[leave] /= t[leave, entering]
        for i in range(m):
            if i != leave and t[i, entering] != 0.0:
                t[i] -= t[i, entering] * t[leave]
        z -= z[entering] * t[leave]
        basis[leave] = entering
    raise RuntimeError("oracle iteration cap reached")


def best_split_oracle(x_mat, y, idx, features, min_leaf):
    """Best (feature, threshold, gain) over candidate features, or None.

    Each feature is sorted and scanned on its own; the first feature whose
    best gain is strictly larger than every earlier one wins.
    """
    n = idx.size
    y_node = y[idx]
    total = y_node.sum()
    total_sq = (y_node * y_node).sum()
    sse_parent = total_sq - total * total / n

    best = None
    for f in features:
        v = x_mat[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y_node[order]
        cy = np.cumsum(ys)
        cy2 = np.cumsum(ys * ys)
        # split after position p keeps [0..p] left and [p+1..] right
        p = np.arange(n - 1)
        valid = (vs[:-1] < vs[1:]) & (p + 1 >= min_leaf) & (n - p - 1 >= min_leaf)
        if not np.any(valid):
            continue
        p = p[valid]
        left_n = p + 1.0
        right_n = n - left_n
        sse_l = cy2[p] - cy[p] * cy[p] / left_n
        sse_r = (total_sq - cy2[p]) - (total - cy[p]) ** 2 / right_n
        gains = sse_parent - sse_l - sse_r
        k = int(np.argmax(gains))
        if gains[k] > 1e-12 and (best is None or gains[k] > best[2]):
            thr = 0.5 * (vs[p[k]] + vs[p[k] + 1])
            best = (f, thr, float(gains[k]))
    return best


def binned_predict_oracle(est, doses, x_mat):
    """(predictions, fallback queries) of a BinnedSLearner, one kNN per dose."""
    out = np.empty((x_mat.shape[0], len(doses)))
    fallback = 0
    for j, s in enumerate(doses):
        b = min(int(s * est.dose_bins), est.dose_bins - 1)
        xs, ys = est.strata_x[b], est.strata_y[b]
        if xs.shape[0] == 0:
            out[:, j] = est.global_mean
            fallback += x_mat.shape[0]
            continue
        k = min(est.k, xs.shape[0])
        d2 = ((x_mat[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[:, j] = ys[nearest].mean(axis=1)
    return np.clip(out, 0.0, 1.0), fallback


def brute_force(prob):
    """Exhaustive enumeration oracle for small instances.

    Combinations are scanned in lexicographic order with strict-improvement
    updates, so ties resolve to the lexicographically smallest assignment.
    """
    t0 = time.perf_counter()
    n, delta = prob.n, prob.delta
    n_doses = delta + 1
    combos = n_doses ** n
    if combos > 10_000_000:
        raise AllocError("instance too large for brute force")

    values = prob.value_matrix()
    g0 = prob.groups == 0
    g1 = prob.groups == 1
    strides = [n_doses ** (n - 1 - i) for i in range(n)]

    best_obj = -np.inf
    best_combo = None
    chunk = 1_000_000
    for start in range(0, combos, chunk):
        idx = np.arange(start, min(start + chunk, combos), dtype=np.int64)
        digits = [(idx // strides[i]) % n_doses for i in range(n)]
        total_value = np.zeros(idx.shape[0])
        total_cost = np.zeros(idx.shape[0])
        for i in range(n):
            total_value += values[i, digits[i]]
            total_cost += prob.costs[i, digits[i]]
        feasible = total_cost <= prob.budget + BUDGET_TOL
        for _, eps, weights in prob.active_fairness():
            sum0 = np.zeros(idx.shape[0])
            sum1 = np.zeros(idx.shape[0])
            for i in range(n):
                if g0[i]:
                    sum0 += weights[i, digits[i]]
                else:
                    sum1 += weights[i, digits[i]]
            m0 = sum0 / g0.sum()
            m1 = sum1 / g1.sum()
            feasible &= m0 >= (1.0 - eps) * m1 - BUDGET_TOL
            feasible &= m0 <= (1.0 + eps) * m1 + BUDGET_TOL
        if not np.any(feasible):
            continue
        masked = np.where(feasible, total_value, -np.inf)
        k = int(np.argmax(masked))  # first maximum within the chunk
        if masked[k] > best_obj:
            best_obj = float(masked[k])
            best_combo = np.asarray([int(digits[i][k]) for i in range(n)])

    wall_ms = (time.perf_counter() - t0) * 1e3
    if best_combo is None:
        return SolveReport("infeasible", float("nan"), None, combos, None, None, wall_ms)
    policy = Policy(best_combo, n_doses)
    objective = policy_value(policy, prob.cade, prob.benefits)
    return SolveReport("optimal", objective, policy, combos, None, objective, wall_ms)
