"""Tests for experiment runners, config parsing, and the CLI."""

import csv
import json
import multiprocessing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doseuplift import alloc, experiments
from doseuplift.cli import main
from doseuplift.experiments import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    config_lines,
    dataset_from_config,
    oversample_covariates,
    parse_config,
    rf_grid,
    run_delta_sweep,
    run_exp1,
    run_exp2,
    run_exp3,
    run_scalability,
)

from .test_forest import _set_cpus, pools  # noqa: F401  (pools is a fixture)


def _tiny(**kw):
    base = dict(
        data="synthetic:100",
        seed=5,
        delta=5,
        estimators=("oracle",),
        estimator="oracle",
        rf_trees=(8,),
        budgets=(4.0, 6.0),
        auuc_caps=(4.0, 8.0),
        auuc_step=2.0,
        eps_dt_grid=(0.2, 0.5, 1.0),
        eps_do_grid=(1.0,),
        gammas=(0.0,),
        factors=(1, 2),
        exact_max_factor=1,
        sweep_deltas=(1, 5, 10),
        sweep_budget=5.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_defaults_and_overrides():
    cfg = parse_config("seed = 9\ndelta = 4\nbudgets = 1,2,3\n")
    assert cfg.seed == 9
    assert cfg.delta == 4
    assert cfg.budgets == (1.0, 2.0, 3.0)
    assert cfg.gamma == 0.0  # untouched default


def test_parse_config_range_syntax():
    cfg = parse_config("budgets = 25:250:25\n")
    assert cfg.budgets == tuple(float(b) for b in range(25, 251, 25))


def test_parse_config_refuses_endless_or_empty_ranges():
    # a non-positive step never reaches the stop; start > stop is an empty grid
    for bad in ("2:8:0", "2:8:-2", "8:2:2", "8:2:-2", "0:inf:1", "-inf:0:1", "nan:8:2", "2:8:nan"):
        with pytest.raises(ConfigError, match="line 2: bad value for 'budgets'"):
            parse_config(f"seed = 1\nbudgets = {bad}\n")
    assert parse_config("budgets = 2:2:1\n").budgets == (2.0,)


def test_config_refuses_empty_budgets_and_nonpositive_auuc_grid():
    with pytest.raises(ConfigError, match="budgets must not be empty"):
        parse_config("budgets = ,\n")
    for text in ("auuc_step = 0", "auuc_step = -10", "auuc_step = nan",
                 "auuc_caps = 140,0", "auuc_caps = -10"):
        with pytest.raises(ConfigError, match="auuc_step and every auuc_caps entry must be positive"):
            parse_config(text + "\n")
    with pytest.raises(ConfigError, match="budgets must not be empty"):
        ExperimentConfig(budgets=())


def test_parse_config_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("no_such_key = 1\n")


def test_parse_config_duplicate_key_is_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_parse_config_bad_value_is_error():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("seed = not_a_number\n")


def test_parse_config_comments_and_blanks():
    cfg = parse_config("# comment\n\nseed = 3  # trailing\n")
    assert cfg.seed == 3


def test_config_hash_changes_with_values():
    assert config_hash(_tiny(seed=1)) != config_hash(_tiny(seed=2))


def test_rf_depth_grid_accepts_none():
    cfg = parse_config("rf_max_depth = 5,none\n")
    assert cfg.rf_max_depth == (5, None)


def test_parse_config_feature_subsample_count():
    cfg = parse_config("rf_feature_subsample = 5\n")
    assert cfg.rf_feature_subsample == 5
    assert rf_grid(cfg)[0].feature_subsample == 5
    assert parse_config("rf_feature_subsample = all\n").rf_feature_subsample == "all"
    for bad in ("0", "-3", "2.5", "half"):
        with pytest.raises(ConfigError, match="line 2: bad value for 'rf_feature_subsample'"):
            parse_config(f"seed = 1\nrf_feature_subsample = {bad}\n")


def test_parse_config_round_trips_config_lines():
    special = parse_config("rf_max_depth = 5,none\nrf_feature_subsample = 3\nbudgets = 1.5,2,4\n")
    for cfg in (ExperimentConfig(), special):
        assert parse_config("\n".join(config_lines(cfg))) == cfg
    with pytest.raises(ConfigError, match="bad value for 'delta'"):
        parse_config("delta = 2.5\n")


# ---------------------------------------------------------------------------
# experiment 1
# ---------------------------------------------------------------------------

def test_exp1_oracle_row_is_exact(tmp_path):
    path = run_exp1(_tiny(), tmp_path)
    header, rows = _read_csv(path)
    assert header[:2] == ["estimator", "mise"]
    oracle_row = next(r for r in rows if r[0] == "oracle")
    assert float(oracle_row[1]) == 0.0
    for v in oracle_row[2:]:
        assert float(v) == pytest.approx(1.0, abs=1e-9)


def test_exp1_reruns_byte_identical(tmp_path):
    cfg = _tiny(estimators=("rf", "oracle"))
    p1 = run_exp1(cfg, tmp_path / "a")
    p2 = run_exp1(cfg, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()


def test_exp1_writes_metadata_sidecar(tmp_path):
    cfg = _tiny()
    path = run_exp1(cfg, tmp_path)
    meta = Path(str(path) + ".meta").read_text()
    assert f"config_hash = {config_hash(cfg)}" in meta
    assert "area_grid" in meta


def test_exp1_rejects_cap_not_on_step(tmp_path):
    with pytest.raises(ConfigError):
        run_exp1(_tiny(auuc_caps=(3.0,), auuc_step=2.0), tmp_path)


def test_exp1_refuses_empty_auuc_caps(tmp_path):
    cfg = parse_config("data = synthetic:40\nauuc_caps = ,\n")
    assert cfg.auuc_caps == ()
    with pytest.raises(ConfigError, match="auuc_caps must not be empty"):
        run_exp1(cfg, tmp_path)


def _exp1_bytes(cfg, out_dir):
    path = run_exp1(cfg, out_dir)
    return path.read_bytes(), Path(str(path) + ".meta").read_bytes()


def test_exp1_forked_rows_match_serial(tmp_path, monkeypatch, pools):  # noqa: F811
    cfg = _tiny(estimators=("rf", "binned", "oracle"), rf_trees=(6,))
    _set_cpus(monkeypatch, 1)
    serial = _exp1_bytes(cfg, tmp_path / "serial")
    assert pools == []
    _set_cpus(monkeypatch, 2)
    assert _exp1_bytes(cfg, tmp_path / "forked") == serial
    assert pools == [2, 2]  # the forest fit's pool, then the rows' pool
    assert multiprocessing.active_children() == []


def test_exp1_duplicate_estimator_names_keep_one_row_each(tmp_path, monkeypatch):
    _set_cpus(monkeypatch, 2)
    cfg = _tiny(estimators=parse_config("estimators = oracle,oracle\n").estimators)
    _, rows = _read_csv(run_exp1(cfg, tmp_path))
    assert [r[0] for r in rows] == ["oracle", "oracle"]
    assert rows[0] == rows[1]


def _failing_curve(*args, **kwargs):
    raise FloatingPointError("curve failed")


def test_exp1_row_error_surfaces_and_workers_are_joined(tmp_path, monkeypatch, pools):  # noqa: F811
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "value_curve", _failing_curve)
    with pytest.raises(FloatingPointError, match="curve failed"):
        run_exp1(_tiny(estimators=("binned", "oracle")), tmp_path)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "exp1_results.csv").exists()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_exp1_in_a_daemon_pool_worker_matches_serial(tmp_path, monkeypatch):
    cfg = _tiny(estimators=("rf", "oracle"), rf_trees=(4,))
    _set_cpus(monkeypatch, 1)
    serial = _exp1_bytes(cfg, tmp_path / "serial")
    _set_cpus(monkeypatch, 2)  # the pool worker inherits two CPUs, but is a daemon
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_exp1_bytes, (cfg, tmp_path / "daemon")).get(timeout=60)
    assert got == serial


# ---------------------------------------------------------------------------
# experiment 2
# ---------------------------------------------------------------------------

def test_exp2_objective_monotone_in_slack(tmp_path):
    cfg = _tiny(eps_dt_grid=(0.2, 0.5, 1.0), eps_do_grid=(0.5, 1.0))
    (path,) = run_exp2(cfg, tmp_path)
    header, rows = _read_csv(path)
    obj = {(float(r[0]), float(r[1])): float(r[8]) for r in rows}
    for eps_do in (0.5, 1.0):
        seq = [obj[(e, eps_do)] for e in (0.2, 0.5, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))
    for eps_dt in (0.2, 0.5, 1.0):
        seq = [obj[(eps_dt, e)] for e in (0.5, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))
    # the fully relaxed cell dominates every other cell
    top = obj[(1.0, 1.0)]
    assert all(v <= top + 1e-9 for v in obj.values())


def test_exp2_budget_only_cell_solves_without_bnb(tmp_path, monkeypatch):
    calls = {}
    solve_bnb = alloc.solve_bnb

    def counting_bnb(prob, **kwargs):
        cell = (prob.eps_dt, prob.eps_do)
        calls[cell] = calls.get(cell, 0) + 1
        return solve_bnb(prob, **kwargs)

    monkeypatch.setattr(alloc, "solve_bnb", counting_bnb)
    cfg = _tiny(eps_dt_grid=(0.5, 1.0), eps_do_grid=(0.5, 1.0))
    (path,) = run_exp2(cfg, tmp_path)
    per_budget = len(cfg.budgets)
    assert calls == {(0.5, 0.5): per_budget, (0.5, 1.0): per_budget, (1.0, 0.5): per_budget}
    header, rows = _read_csv(path)
    obj = {(float(r[0]), float(r[1])): float(r[8]) for r in rows}
    assert obj[(1.0, 1.0)] == pytest.approx(1.0, abs=1e-12)


def test_exp2_rf_shows_estimation_gap(tmp_path):
    cfg = _tiny(
        data="synthetic:80",
        estimator="rf",
        rf_trees=(10,),
        budgets=(4.0,),
        eps_dt_grid=(0.5, 1.0),
        eps_do_grid=(0.5, 1.0),
    )
    (path,) = run_exp2(cfg, tmp_path)
    header, rows = _read_csv(path)
    gaps = [
        abs(
            (float(r[4]) - float(r[5]))  # estimated disparity
            - (float(r[6]) - float(r[7]))  # ground-truth disparity
        )
        for r in rows
    ]
    assert max(gaps) > 1e-6


def test_exp2_refuses_one_group_before_solving(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("exp2 solved a one-group subsample")

    monkeypatch.setattr(experiments, "solve_exact_sweep", no_solve)
    cfg = _tiny(data="synthetic:40", subsample=3, seed=0)
    assert np.unique(dataset_from_config(cfg)[0].protected).size == 1
    with pytest.raises(ConfigError, match="protected_feature = 7: .* has one group"):
        run_exp2(cfg, tmp_path)
    assert not list(tmp_path.iterdir())


def test_exp2_one_file_per_gamma(tmp_path):
    cfg = _tiny(gammas=(0.0, 2.0), eps_dt_grid=(1.0,), eps_do_grid=(1.0,), budgets=(2.0,))
    paths = run_exp2(cfg, tmp_path)
    assert [p.name for p in paths] == ["exp2_gamma_0.csv", "exp2_gamma_2.csv"]


# ---------------------------------------------------------------------------
# experiment 3
# ---------------------------------------------------------------------------

def test_exp3_dominance_inequalities(tmp_path):
    path = run_exp3(_tiny(), tmp_path)
    header, rows = _read_csv(path)
    assert header == ["budget", "u_of_u_opt", "v_of_u_opt", "u_of_v_opt", "v_of_v_opt"]
    strict = 0
    for r in rows:
        u_u, v_u, u_v, v_v = (float(x) for x in r[1:])
        assert v_v >= v_u - 1e-9
        assert u_u >= u_v - 1e-9
        if v_v > v_u + 1e-9:
            strict += 1
    assert strict >= 1  # benefits actually reorder someone


def test_exp3_with_unit_benefits_collapses(tmp_path):
    path = run_exp3(_tiny(benefits="ones"), tmp_path)
    _, rows = _read_csv(path)
    for r in rows:
        u_u, v_u, u_v, v_v = (float(x) for x in r[1:])
        assert u_u == pytest.approx(u_v, abs=1e-9)
        assert v_u == pytest.approx(v_v, abs=1e-9)


# ---------------------------------------------------------------------------
# scalability and bin sweep
# ---------------------------------------------------------------------------

def test_oversample_factor_one_is_identity():
    cfg = _tiny()
    ds, _ = dataset_from_config(cfg)
    out = oversample_covariates(ds.covariates, 1, seed=0)
    assert out is ds.covariates


def test_oversample_rows_unique():
    cfg = _tiny()
    ds, _ = dataset_from_config(cfg)
    out = oversample_covariates(ds.covariates, 3, seed=0)
    assert out.n == 3 * ds.n
    assert np.unique(out.features, axis=0).shape[0] == out.n


def test_scalability_table(tmp_path):
    path = run_scalability(_tiny(), tmp_path)
    header, rows = _read_csv(path)
    assert rows[0][0] == "1" and rows[0][1] == "100"
    assert rows[1][0] == "2" and rows[1][1] == "200"
    assert rows[0][4] == "optimal"
    assert rows[1][4] == "skipped"
    assert float(rows[0][2]) > 0  # greedy wall time recorded


def test_scalability_honours_node_limit(tmp_path):
    cfg = ExperimentConfig(data="synthetic:60", factors=(1,), sweep_budget=8.0)
    _, rows = _read_csv(run_scalability(cfg, tmp_path / "full"))
    assert rows[0][4] == "optimal" and int(rows[0][5]) > 1
    _, rows = _read_csv(run_scalability(replace(cfg, bnb_node_limit=1), tmp_path / "one"))
    assert rows[0][4:6] == ["limit", "1"]


def test_delta_sweep_nested_grid_dominance(tmp_path):
    path = run_delta_sweep(_tiny(), tmp_path)
    _, rows = _read_csv(path)
    by_delta = {int(r[0]): float(r[1]) for r in rows}
    # doses of delta=1 and delta=5 grids are subsets of the delta=10 grid
    assert by_delta[5] >= by_delta[1] - 1e-9
    assert by_delta[10] >= by_delta[5] - 1e-9


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_generate_fit_allocate_roundtrip(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    assert main(["generate", "--synthetic", "90", "--seed", "2", "--out", str(gen_dir)]) == 0
    assert (gen_dir / "dataset.csv").exists()
    assert (gen_dir / "groundtruth.json").exists()

    fit_dir = tmp_path / "fit"
    assert (
        main(
            [
                "fit",
                "--data", str(gen_dir / "dataset.csv"),
                "--estimator", "oracle",
                "--groundtruth", str(gen_dir / "groundtruth.json"),
                "--delta", "5",
                "--out", str(fit_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "mise = 0.000000" in out

    # build a problem directory around the exported matrix
    from doseuplift.alloc import make_problem, save_problem
    from doseuplift.estimators import load_cade_csv

    cade = load_cade_csv(fit_dir / "cade.csv")
    rng = np.random.default_rng(0)
    prob = make_problem(cade, budget=4.0, groups=rng.integers(0, 2, size=cade.n))
    prob_dir = tmp_path / "prob"
    save_problem(prob, prob_dir)

    alloc_dir = tmp_path / "alloc"
    assert main(["allocate", "--problem", str(prob_dir), "--solver", "exact",
                 "--out", str(alloc_dir)]) == 0
    header, rows = _read_csv(alloc_dir / "report.csv")
    assert header == ["status", "objective", "cost", "nodes", "bound", "wall_ms"]
    assert rows[0][0] == "optimal"
    assert float(rows[0][2]) <= 4.0 + 1e-9
    policy_header, policy_rows = _read_csv(alloc_dir / "policy.csv")
    assert policy_header == ["entity", "dose"]
    assert len(policy_rows) == cade.n


def test_cli_fit_feature_subsample_count(tmp_path):
    gen_dir, fit_dir = tmp_path / "gen", tmp_path / "fit"
    assert main(["generate", "--synthetic", "60", "--seed", "3", "--out", str(gen_dir)]) == 0
    fit = ["fit", "--data", str(gen_dir / "dataset.csv"), "--estimator", "rf", "--trees", "4",
           "--delta", "4", "--out", str(fit_dir), "--feature-subsample"]
    assert main(fit + ["5"]) == 0
    model = json.loads((fit_dir / "model.json").read_text())
    assert model["config"]["feature_subsample"] == 5
    with pytest.raises(SystemExit):  # argparse rejects the value before any work
        main(fit + ["0"])


def test_cli_fit_max_depth_none(tmp_path):
    # the flag takes the config key's syntax: none means unlimited depth
    gen_dir, fit_dir = tmp_path / "gen", tmp_path / "fit"
    assert main(["generate", "--synthetic", "60", "--seed", "3", "--out", str(gen_dir)]) == 0
    assert main(["fit", "--data", str(gen_dir / "dataset.csv"), "--estimator", "rf",
                 "--trees", "4", "--delta", "4", "--out", str(fit_dir),
                 "--max-depth", "none"]) == 0
    model = (fit_dir / "model.json").read_text()
    assert json.loads(model)["config"]["max_depth"] is None
    assert '"max_depth": null' in model


_TOY_CONFIG = (
    "data = synthetic:40\nseed = 3\ndelta = 3\nestimator = oracle\nbudgets = 2,4\n"
    "gammas = 0,1\neps_dt_grid = 0.5,1\neps_do_grid = 1\nfactors = 1,2\n"
    "sweep_deltas = 1,3\nsweep_budget = 3\n"
)


@pytest.mark.parametrize(
    "command, names",
    [
        ("exp2", ["exp2_gamma_0.csv", "exp2_gamma_1.csv"]),
        ("exp3", ["exp3_results.csv"]),
        ("scalability", ["scalability_results.csv"]),
        ("delta-sweep", ["delta_sweep_results.csv"]),
    ],
)
def test_cli_experiment_commands(tmp_path, capsys, command, names):
    config = tmp_path / "exp.cfg"
    config.write_text(_TOY_CONFIG)
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {out_dir / n}" for n in names]
    for n in names:
        assert (out_dir / n).exists()
        assert (out_dir / f"{n}.meta").exists()


def test_cli_exp1_with_config_file(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "data = synthetic:80\nseed = 4\ndelta = 4\nestimators = oracle\n"
        "budgets = 2,4\nauuc_caps = 4\nauuc_step = 2\n"
    )
    out_dir = tmp_path / "results"
    assert main(["exp1", "--config", str(config), "--out", str(out_dir)]) == 0
    assert (out_dir / "exp1_results.csv").exists()


def test_cli_error_exit_code(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("nope = 1\n")
    assert main(["exp1", "--config", str(config), "--out", str(tmp_path)]) == 1


def test_cli_seed_override_changes_output(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "data = synthetic:60\ndelta = 3\nestimators = rf\nrf_trees = 6\n"
        "budgets = 2,4\nauuc_caps = 4\nauuc_step = 2\n"
    )
    assert main(["exp1", "--config", str(config), "--seed", "1",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["exp1", "--config", str(config), "--seed", "2",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "exp1_results.csv").read_bytes()
    b = (tmp_path / "b" / "exp1_results.csv").read_bytes()
    assert a != b
    assert "seed = 1" in (tmp_path / "a" / "exp1_results.csv.meta").read_text()
    assert "seed = 2" in (tmp_path / "b" / "exp1_results.csv.meta").read_text()
