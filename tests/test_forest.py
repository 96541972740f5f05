"""The forest's vectorized split search and grid prediction against their references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doseuplift import forest as forest_mod
from doseuplift.datagen import Dataset, GenConfig, generate_dataset, synth_covariates
from doseuplift.estimators import fit_binned_slearner, fit_rf_slearner
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


@pytest.mark.parametrize(
    "cfg",
    [
        RfConfig(n_trees=6, seed=3),
        RfConfig(n_trees=4, max_depth=None, min_samples_leaf=1, feature_subsample="all", seed=8),
        RfConfig(n_trees=3, min_samples_leaf=3, feature_subsample=2, bootstrap=False, seed=1),
    ],
)
def test_fit_json_matches_oracle_split_search(gen_data, cfg, monkeypatch):
    new = fit_rf_slearner(gen_data, cfg).forest.to_json()
    monkeypatch.setattr(forest_mod, "_best_split", best_split_oracle)
    assert fit_rf_slearner(gen_data, cfg).forest.to_json() == new


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
