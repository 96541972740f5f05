"""The benchmark's tracer patches package entry points by name; each must exist.

``perfbench/tracing.py`` replaces every ``(owner, attribute)`` of its
``_targets()`` through ``owner.__dict__``, so a renamed or deleted entry
point fails its traced run with ``KeyError``. This test finds that first.
"""

import importlib
from pathlib import Path

from doseuplift.lpcore import LpProblem, solve_lp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (traced as {name}) is gone"
    # the lpcore.solve_lp counter reads the problem's rows, senses and bounds
    # and the solution's status and pivots
    p = LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [2.0, 0.0])
    sol = solve_lp(p)
    assert (sol.status, sol.iterations) == ("optimal", 1)
    counts = tracing._lp_counts((p,), {}, sol)
    assert counts["pivots"] == 1 and not counts["infeasible"]
    assert counts["tableau_bytes"] == 1 * (1 + 1) * 8  # one row, one free column, one slack
