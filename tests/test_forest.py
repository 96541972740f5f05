"""The forest's vectorized split search, grid prediction and process-parallel
fit against their references."""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doseuplift import forest as forest_mod
from doseuplift.datagen import Dataset, GenConfig, generate_dataset, synth_covariates
from doseuplift.estimators import fit_binned_slearner, fit_rf_slearner
from doseuplift.experiments import ExperimentConfig, dataset_from_config, rf_grid
from doseuplift.forest import RandomForestRegressor, RfConfig

from .oracles import best_split_oracle, binned_predict_oracle

# short value lists, so tied values, tied gains and duplicate rows are common
_CONT_VALUES = [-1.5, -0.25, 0.0, 0.3, 0.3 + 1e-12, 2.0]
_Y_VALUES = [0.0, 0.1, 0.1 + 1e-12, 0.5, 1.0]


@st.composite
def _split_nodes(draw):
    """A node of 2-5 bootstrap rows (duplicates allowed) over mixed feature kinds."""
    n_rows = draw(st.integers(2, 6))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["cont", "binary", "const"]), min_size=1, max_size=5)):
        if kind == "const":
            columns.append([draw(st.sampled_from(_CONT_VALUES))] * n_rows)
        else:
            values = [0.0, 1.0] if kind == "binary" else _CONT_VALUES
            columns.append(draw(st.lists(st.sampled_from(values), min_size=n_rows, max_size=n_rows)))
    x_mat = np.asarray(columns, dtype=float).T
    y = np.asarray(draw(st.lists(st.sampled_from(_Y_VALUES), min_size=n_rows, max_size=n_rows)))
    idx = np.asarray(draw(st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=5)))
    n_feat = x_mat.shape[1]
    features = np.sort(np.asarray(
        draw(st.lists(st.integers(0, n_feat - 1), min_size=1, max_size=n_feat, unique=True))
    ))
    return x_mat, y, idx, features, draw(st.integers(1, 3))


def _bits(split):
    if split is None:
        return None
    f, thr, gain = split
    return int(f), np.float64(thr).tobytes(), np.float64(gain).tobytes()


@settings(max_examples=400, deadline=None)
@given(_split_nodes())
def test_best_split_matches_per_feature_oracle(node):
    x_mat, y, idx, features, min_leaf = node
    assert _bits(forest_mod._best_split(x_mat, y, idx, features, min_leaf)) == _bits(
        best_split_oracle(x_mat, y, idx, features, min_leaf)
    )


def test_best_split_matches_oracle_on_wide_nodes():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        x_mat = np.hstack([
            rng.normal(size=(n, 3)),
            rng.integers(0, 2, size=(n, 3)).astype(float),
            np.round(rng.uniform(0, 1, size=(n, 2)), 1),
        ])
        y = np.round(rng.uniform(0, 1, size=n), 2)
        idx = rng.integers(0, n, size=int(rng.integers(2, n + 2)))
        features = np.sort(rng.choice(8, size=int(rng.integers(1, 9)), replace=False))
        min_leaf = int(rng.integers(1, 4))
        got = forest_mod._best_split(x_mat, y, idx, features, min_leaf)
        want = best_split_oracle(x_mat, y, idx, features, min_leaf)
        assert _bits(got) == _bits(want), trial


@pytest.fixture(scope="module")
def gen_data():
    cov = synth_covariates(160, seed=21)
    ds, _ = generate_dataset(cov, GenConfig(seed=21))
    return ds


# every field kind: unlimited depth, an integer feature count, no bootstrap
_FOREST_CONFIGS = [
    RfConfig(n_trees=6, seed=3),
    RfConfig(n_trees=4, max_depth=None, min_samples_leaf=1, feature_subsample="all", seed=8),
    RfConfig(n_trees=3, min_samples_leaf=3, feature_subsample=2, bootstrap=False, seed=1),
]


@pytest.mark.parametrize("cfg", _FOREST_CONFIGS)
def test_fit_json_matches_oracle_split_search(gen_data, cfg, monkeypatch):
    new = fit_rf_slearner(gen_data, cfg).forest.to_json()
    monkeypatch.setattr(forest_mod, "_best_split", best_split_oracle)
    assert fit_rf_slearner(gen_data, cfg).forest.to_json() == new


@pytest.mark.parametrize("cfg", _FOREST_CONFIGS)
def test_forest_json_roundtrip_and_key_order(gen_data, cfg):
    text = fit_rf_slearner(gen_data, cfg).forest.to_json()
    loaded = RandomForestRegressor.from_json(text)
    assert loaded.config == cfg
    assert loaded.to_json() == text
    obj = json.loads(text)
    assert list(obj) == ["format", "config", "n_features", "trees"]
    assert list(obj["config"]) == [
        "n_trees", "max_depth", "min_samples_leaf", "feature_subsample", "bootstrap", "seed"
    ]
    assert all(list(t) == ["feature", "threshold", "left", "right", "value"] for t in obj["trees"])


def _batch_predict(forest, x_mat, doses):
    """The n*m batch of (covariates, dose) rows through ``predict``."""
    n, m = x_mat.shape[0], len(doses)
    batch = np.hstack([np.repeat(x_mat, m, axis=0), np.tile(doses, n).reshape(-1, 1)])
    return forest.predict(batch).reshape(n, m)


def _dose_thresholds(forest):
    dose_col = forest.n_features - 1
    return np.concatenate([t.threshold[t.feature == dose_col] for t in forest.trees])


@pytest.fixture(scope="module")
def fitted(gen_data):
    return fit_rf_slearner(gen_data, RfConfig(n_trees=12, seed=4)).forest


def test_predict_grid_matches_batch_predict(fitted, gen_data):
    x_mat = gen_data.covariates.features[:40]
    thr = _dose_thresholds(fitted)
    assert thr.size > 0
    on_split = np.concatenate([thr[:15], np.nextafter(thr[:15], np.inf)])
    for doses in (
        np.linspace(0.0, 1.0, 101),
        on_split,  # exactly at a dose threshold goes left, one ulp above goes right
        np.asarray([0.9, 0.1, 0.5, 0.1, 0.9, 0.0]),  # unsorted, duplicated
        np.asarray([0.37]),
        np.asarray([-0.5, 1.5]),  # outside the training range
    ):
        assert np.array_equal(fitted.predict_grid(x_mat, doses), _batch_predict(fitted, x_mat, doses))


def test_predict_grid_depth_one_and_loaded(gen_data):
    x_mat = gen_data.covariates.features[:25]
    doses = np.linspace(0.0, 1.0, 11)
    for cfg in (RfConfig(n_trees=5, max_depth=1, seed=2), RfConfig(n_trees=5, seed=6)):
        fitted = fit_rf_slearner(gen_data, cfg).forest
        loaded = RandomForestRegressor.from_json(fitted.to_json())
        want = _batch_predict(fitted, x_mat, doses)
        assert np.array_equal(fitted.predict_grid(x_mat, doses), want)
        assert np.array_equal(loaded.predict_grid(x_mat, doses), want)


def test_predict_rejects_wrong_column_count(fitted, gen_data):
    x_mat = gen_data.covariates.features[:5]
    full = np.hstack([x_mat, gen_data.doses[:5].reshape(-1, 1)])
    assert fitted.predict(full).shape == (5,)
    for bad in (np.hstack([full, full[:, :1]]), full[:, :2], x_mat, full[0]):
        with pytest.raises(ValueError, match="columns"):
            fitted.predict(bad)
    assert fitted.predict_grid(x_mat, [0.5]).shape == (5, 1)
    for bad in (full, x_mat[:, :3], x_mat[0]):
        with pytest.raises(ValueError, match="columns"):
            fitted.predict_grid(bad, [0.5])


def test_binned_stratum_reuse_matches_per_dose_oracle(gen_data):
    squeezed = Dataset(
        covariates=gen_data.covariates,
        doses=np.clip(gen_data.doses, 0.0, 0.69),
        outcomes=gen_data.outcomes,
        protected=gen_data.protected,
    )
    x_mat = gen_data.covariates.features[:30]
    doses = np.concatenate([np.linspace(0.0, 1.0, 101), [0.95, 0.2, 0.2, 0.7]])
    for data in (gen_data, squeezed):
        est = fit_binned_slearner(data, dose_bins=10, k=7)
        want, fallback = binned_predict_oracle(est, doses, x_mat)
        assert np.array_equal(est.predict_mu(doses, x_mat), want)
    assert est.diagnostics["empty_strata"] == [7, 8, 9]
    assert fallback == 30 * 33


def _set_cpus(monkeypatch, n: int) -> None:
    """The CPU set ``fit`` reads, so each path runs on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of every process pool ``fit`` starts."""
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    class Spy(real):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


def _rows(data):
    """The forest's training input of a dataset: covariates ++ dose, and outcomes."""
    return np.hstack([data.covariates.features, data.doses.reshape(-1, 1)]), data.outcomes


def _exp1_input(seed):
    """The exp1 rows and forest config at ``seed``, cut to 16 trees."""
    cfg = ExperimentConfig(seed=seed)
    ds, _ = dataset_from_config(cfg)
    return (*_rows(ds), dataclasses.replace(rf_grid(cfg)[0], n_trees=16))


def _on_gen_data(cfg):
    return lambda data: (*_rows(data), cfg)


def _tiny_input():
    rng = np.random.default_rng(3)
    return rng.normal(size=(5, 2)), rng.normal(size=5), RfConfig(n_trees=3, min_samples_leaf=1, seed=5)


def _fit_json(x_mat, y, cfg):
    return RandomForestRegressor(cfg).fit(x_mat, y).to_json()


@pytest.mark.parametrize(
    "make",
    [
        lambda data: _exp1_input(0),
        lambda data: _exp1_input(2024),
        _on_gen_data(RfConfig(n_trees=5, bootstrap=False, seed=2)),
        _on_gen_data(RfConfig(n_trees=5, max_depth=None, min_samples_leaf=1, seed=6)),
        _on_gen_data(RfConfig(n_trees=4, feature_subsample="all", seed=7)),
        _on_gen_data(RfConfig(n_trees=1, seed=9)),
        _on_gen_data(RfConfig(n_trees=2, seed=9)),
        _on_gen_data(RfConfig(n_trees=3, seed=9)),
        lambda data: _tiny_input(),
    ],
    ids=["exp1-seed0", "exp1-seed2024", "no-bootstrap", "unlimited-depth", "all-features",
         "1-tree", "2-trees", "3-trees", "5-rows"],
)
def test_parallel_fit_json_matches_serial(gen_data, make, monkeypatch, pools):
    x_mat, y, cfg = make(gen_data)
    _set_cpus(monkeypatch, 1)
    serial = _fit_json(x_mat, y, cfg)
    assert pools == []
    _set_cpus(monkeypatch, 2)
    assert _fit_json(x_mat, y, cfg) == serial
    assert pools == ([] if cfg.n_trees == 1 else [2])  # one tree takes the serial loop
    assert multiprocessing.active_children() == []


def test_fit_without_fork_runs_serially(gen_data, monkeypatch, pools):
    x_mat, y = _rows(gen_data)
    cfg = RfConfig(n_trees=4, seed=1)
    _set_cpus(monkeypatch, 2)
    want = _fit_json(x_mat, y, cfg)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _fit_json(x_mat, y, cfg) == want
    assert pools == [2]  # the first fit's pool only
    assert multiprocessing.active_children() == []


def test_patched_split_search_reaches_the_workers(gen_data, monkeypatch, pools):
    # the oracle comparison above patches ``_best_split`` too; it compares the
    # new search with the oracle only if the patch reaches the forked workers
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(forest_mod, "_best_split", lambda *args: None)
    trees = fit_rf_slearner(gen_data, RfConfig(n_trees=5, seed=3)).forest.trees
    assert pools == [2]
    assert len(trees) == 5
    assert all(t.feature.tolist() == [-1] for t in trees)


def _failing_build_tree(x_mat, y, cfg, rng):
    raise FloatingPointError("tree failed")


def test_worker_error_surfaces_and_workers_are_joined(gen_data, monkeypatch, pools):
    _set_cpus(monkeypatch, 2)
    fit_rf_slearner(gen_data, RfConfig(n_trees=4, seed=1))
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(forest_mod, "_build_tree", _failing_build_tree)
    with pytest.raises(FloatingPointError, match="tree failed"):
        fit_rf_slearner(gen_data, RfConfig(n_trees=4, seed=1))
    assert pools == [2, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_fit_in_a_daemon_pool_worker_matches_serial(gen_data, monkeypatch):
    x_mat, y = _rows(gen_data)
    cfg = RfConfig(n_trees=4, seed=11)
    _set_cpus(monkeypatch, 1)
    serial = _fit_json(x_mat, y, cfg)
    _set_cpus(monkeypatch, 2)  # the pool worker inherits two CPUs, but is a daemon
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_fit_json, (x_mat, y, cfg)).get(timeout=60)
    assert got == serial


def test_import_leaves_pool_modules_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, doseuplift; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
