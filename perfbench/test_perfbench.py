"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    exp1_n=40,
    exp1_trees=2,
    exp1_caps=(4.0, 8.0),
    exp1_step=1.0,
    bnb_n=12,
    bnb_budget=2.0,
    bnb_node_limit=2,
)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)], sizes=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_prints_with_its_unit(capsys, workload, trace):
    code, result, report = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float)
    # the human-readable block names all six end-to-end figures, with unit and samples
    rows = {line.split()[0]: line.split() for line in report if line.strip()}
    for name in ("wall_s", "setup_s", "solves_per_s", "peak_rss_mb", "gap_rel", "fail_ratio"):
        assert len(rows[name]) >= 4


def test_output_check_catches_a_corrupted_result(capsys, monkeypatch):
    honest = workloads.Bnb747.run

    def corrupted(self, inputs):
        p = honest(self, inputs)
        bad = p.solves[0]
        bad.report = dataclasses.replace(bad.report, objective=bad.report.objective + 1e-3)
        return p

    monkeypatch.setattr(workloads.Bnb747, "run", corrupted)
    code, result, _ = _run(capsys, "bnb-747", 0)
    assert code != 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def _span(i, parent, name, start, end, **info):
    return tracing.Span(i, parent, name, start, end, "pass0", info)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, None, "experiments.run_exp1", 0.0, 10.0),
        _span(1, 0, "metrics.value_curve", 1.0, 4.0),
        _span(2, 1, "alloc.solve_dp", 2.0, 3.0, status="optimal", cells=10),
        _span(3, 0, "metrics.value_curve", 3.0, 6.0),  # overlaps span 1 by one second
        _span(4, 0, "metrics.value_curve", 9.0, 12.0),  # runs past its parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0}


def test_layer_metrics_on_a_hand_built_bnb_tree():
    spans = [
        _span(0, None, "alloc.solve_bnb", 0.0, 10.0, status="limit", nodes=2),
        _span(1, 0, "lpcore.solve_lp", 1.0, 3.0, pivots=5, infeasible=False, tableau_bytes=800),
        _span(2, 0, "lpcore.solve_lp", 4.0, 8.0, pivots=7, infeasible=True, tableau_bytes=800),
    ]
    m = tracing.layer_metrics(spans)
    assert m["alloc.bnb_self_s"] == 4.0
    assert m["alloc.bnb_root_s"] == 3.0
    assert m["alloc.bnb_ms_per_node"] == 5000.0
    assert m["lpcore.root_pivots"] == 5 and m["lpcore.pivots"] == 12
    assert m["lpcore.busy_s"] == 6.0 and m["lpcore.us_per_pivot"] == 0.5e6
    assert m["lpcore.infeasible_ratio"] == 0.5
    assert m["forest.fit_s"] == 0 and m["alloc.dp_calls"] == 0
