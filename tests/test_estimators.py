"""Tests for dose-response estimators, forests, and the MISE metric."""

import copy

import numpy as np
import pytest

from doseuplift.datagen import (
    CovariateTable,
    Dataset,
    GenConfig,
    dose_grid,
    generate_dataset,
    synth_covariates,
    true_cadr_grid,
)
from doseuplift.estimators import (
    MISE_GRID_POINTS,
    CadeMatrix,
    Estimator,
    RfConfig,
    cade_and_mise,
    cade_matrix,
    cross_validate_rf,
    fit_binned_slearner,
    fit_rf_slearner,
    load_cade_csv,
    mise,
    oracle_estimator,
    save_cade_csv,
)
from doseuplift.forest import RandomForestRegressor


class _ConstantEstimator(Estimator):
    def __init__(self, value):
        self.value = value

    def predict_mu(self, doses, x_mat):
        doses = np.atleast_1d(doses)
        return np.full((np.atleast_2d(x_mat).shape[0], doses.shape[0]), self.value)


class _OffsetOracle(Estimator):
    """Oracle shifted by a constant, for quadrature checks."""

    def __init__(self, gt, offset):
        self.inner = oracle_estimator(gt)
        self.offset = offset

    def predict_mu(self, doses, x_mat):
        return self.inner.predict_mu(doses, x_mat) + self.offset


def _dose_linear_dataset(n, seed):
    """Outcome equals the dose exactly; covariates carry no signal."""
    cov = synth_covariates(n, seed=seed)
    rng = np.random.default_rng([seed, 5])
    doses = rng.uniform(0.0, 1.0, size=n)
    return Dataset(
        covariates=cov,
        doses=doses,
        outcomes=doses.copy(),
        protected=cov.features[:, 6].astype(int),
    )


@pytest.fixture(scope="module")
def small_data():
    cov = synth_covariates(150, seed=42)
    return generate_dataset(cov, GenConfig(seed=42))


# ---------------------------------------------------------------------------
# forest
# ---------------------------------------------------------------------------

def test_forest_constant_target():
    ds = _dose_linear_dataset(80, seed=1)
    data = Dataset(
        covariates=ds.covariates,
        doses=ds.doses,
        outcomes=np.full(ds.n, 0.7),
        protected=ds.protected,
    )
    est = fit_rf_slearner(data, RfConfig(n_trees=10, seed=3))
    mu = est.predict_mu(np.linspace(0, 1, 5), data.covariates.features[:7])
    assert np.allclose(mu, 0.7)


def test_forest_deterministic_given_seed():
    ds = _dose_linear_dataset(120, seed=2)
    cfg = RfConfig(n_trees=12, seed=11)
    a = fit_rf_slearner(ds, cfg).predict_mu(np.linspace(0, 1, 9), ds.covariates.features[:20])
    b = fit_rf_slearner(ds, cfg).predict_mu(np.linspace(0, 1, 9), ds.covariates.features[:20])
    assert np.array_equal(a, b)


def test_forest_invariant_to_row_order():
    ds = _dose_linear_dataset(100, seed=3)
    cfg = RfConfig(n_trees=8, seed=7)
    est1 = fit_rf_slearner(ds, cfg)

    perm = np.random.default_rng(0).permutation(ds.n)
    shuffled = Dataset(
        covariates=CovariateTable(features=ds.covariates.features[perm]),
        doses=ds.doses[perm],
        outcomes=ds.outcomes[perm],
        protected=ds.protected[perm],
    )
    est2 = fit_rf_slearner(shuffled, cfg)
    probe = ds.covariates.features[:25]
    grid = np.linspace(0, 1, 7)
    assert np.array_equal(est1.predict_mu(grid, probe), est2.predict_mu(grid, probe))


def test_forest_learns_dose_identity():
    # all features considered per split: the dose column then dominates every
    # split choice, so the fit recovers the identity almost exactly
    ds = _dose_linear_dataset(2000, seed=4)
    est = fit_rf_slearner(ds, RfConfig(n_trees=10, feature_subsample="all", seed=13))
    grid = np.linspace(0.05, 0.95, 19)
    mu = est.predict_mu(grid, ds.covariates.features[:50])
    err = np.abs(mu - grid[None, :]).mean()
    assert err < 0.05


def test_forest_json_roundtrip():
    ds = _dose_linear_dataset(60, seed=5)
    est = fit_rf_slearner(ds, RfConfig(n_trees=5, seed=2))
    clone = RandomForestRegressor.from_json(est.forest.to_json())
    probe = np.hstack([ds.covariates.features[:10], ds.doses[:10].reshape(-1, 1)])
    assert np.array_equal(est.forest.predict(probe), clone.predict(probe))


def test_forest_rejects_empty():
    with pytest.raises(ValueError):
        RandomForestRegressor(RfConfig(n_trees=2)).fit(np.zeros((0, 3)), np.zeros(0))


# ---------------------------------------------------------------------------
# oracle estimator and dose-effect matrices
# ---------------------------------------------------------------------------

def test_oracle_mise_zero(small_data):
    ds, gt = small_data
    assert mise(oracle_estimator(gt), gt, ds) == 0.0


def test_oracle_cade_matrix_equals_ground_truth(small_data):
    ds, gt = small_data
    m = cade_matrix(oracle_estimator(gt), ds, delta=10)
    mu = true_cadr_grid(gt, dose_grid(10), ds.covariates.features)
    expected = mu - mu[:, [0]]
    assert np.allclose(m.values, expected, atol=1e-12)


def test_cade_matrix_shape_delta_10(small_data):
    ds, gt = small_data
    m = cade_matrix(oracle_estimator(gt), ds, delta=10)
    assert m.values.shape == (ds.n, 11)
    assert m.delta == 10


def test_constant_estimator_gives_zero_matrix(small_data):
    ds, _ = small_data
    m = cade_matrix(_ConstantEstimator(0.4), ds, delta=6)
    assert np.all(m.values == 0.0)


@pytest.mark.parametrize("delta", [4, 7, 10])
def test_cade_and_mise_match_one_predict_per_grid(small_data, delta):
    # one predict on both grids gives the bits of one predict per grid
    ds, gt = small_data
    for est in (
        oracle_estimator(gt),
        fit_rf_slearner(ds, RfConfig(n_trees=6, seed=3)),
        fit_binned_slearner(ds, dose_bins=7, k=5),
    ):
        matrix, err = cade_and_mise(est, ds, delta, gt)
        want = cade_matrix(est, ds, delta)
        assert np.array_equal(matrix.values, want.values)
        assert np.array_equal(matrix.doses, want.doses)
        assert err == mise(est, gt, ds)
        assert cade_and_mise(est, ds, delta)[1] is None
    # why the grids are concatenated, not merged
    assert dose_grid(10)[7] != np.linspace(0.0, 1.0, MISE_GRID_POINTS)[70]


def test_cade_matrix_rejects_nonzero_first_column():
    with pytest.raises(ValueError):
        CadeMatrix(
            values=np.asarray([[0.1, 0.2]]),
            doses=np.asarray([0.0, 1.0]),
        )


def test_cade_matrix_rejects_nan_effects():
    # NaN fails the [-1, 1] check instead of slipping past a "> 1" comparison
    with pytest.raises(ValueError, match=r"dose effects must lie in \[-1, 1\]"):
        CadeMatrix(values=np.asarray([[0.0, np.nan]]), doses=np.asarray([0.0, 1.0]))


def test_cade_csv_roundtrip(tmp_path, small_data):
    ds, gt = small_data
    m = cade_matrix(oracle_estimator(gt), ds, delta=10)
    path = tmp_path / "cade.csv"
    save_cade_csv(m, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("entity,dose_0.0,dose_0.1")
    back = load_cade_csv(path)
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.doses, m.doses)


@pytest.mark.parametrize("line, col", [(1, 2), (3, 3)])
def test_load_cade_csv_names_file_line_and_column(tmp_path, small_data, line, col):
    # column numbers count the entity column; line 1 is the header of dose labels
    ds, gt = small_data
    path = tmp_path / "cade.csv"
    save_cade_csv(cade_matrix(oracle_estimator(gt), ds, delta=4), path)
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[col - 1] = "dose_x" if line == 1 else "x"
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"cade\.csv:{line}, column {col}: cannot parse 'x'"):
        load_cade_csv(path)


# ---------------------------------------------------------------------------
# MISE
# ---------------------------------------------------------------------------

def test_mise_constant_offset(small_data):
    ds, gt = small_data
    # mu + 0.1 has squared error 0.01 wherever the shifted curve stays in range
    val = mise(_OffsetOracle(gt, 0.1), gt, ds)
    assert val == pytest.approx(0.01, abs=1e-12)


def test_mise_quadrature_refinement(small_data):
    # the fixed 101-point rule agrees with a 1001-point trapezoid reference
    ds, gt = small_data
    est = fit_rf_slearner(ds, RfConfig(n_trees=15, seed=1))
    assert MISE_GRID_POINTS == 101
    grid = np.linspace(0.0, 1.0, 1001)
    x = ds.covariates.features
    sq = (true_cadr_grid(gt, grid, x) - est.predict_mu(grid, x)) ** 2
    fine = float(np.trapezoid(sq, grid, axis=1).mean())
    assert abs(mise(est, gt, ds) - fine) < 1e-3


# ---------------------------------------------------------------------------
# binned S-learner
# ---------------------------------------------------------------------------

def test_binned_global_mean_with_one_bin(small_data):
    ds, _ = small_data
    est = fit_binned_slearner(ds, dose_bins=1, k=ds.n)
    mu = est.predict_mu(np.asarray([0.2, 0.8]), ds.covariates.features[:5])
    assert np.allclose(mu, ds.outcomes.mean())


def test_binned_empty_stratum_falls_back(small_data):
    ds, _ = small_data
    squeezed = Dataset(
        covariates=ds.covariates,
        doses=np.clip(ds.doses, 0.0, 0.49),
        outcomes=ds.outcomes,
        protected=ds.protected,
    )
    est = fit_binned_slearner(squeezed, dose_bins=10, k=5)
    assert len(est.diagnostics["empty_strata"]) > 0
    mu = est.predict_mu(np.asarray([0.95]), ds.covariates.features[:3])
    assert np.allclose(mu, np.clip(ds.outcomes.mean(), 0, 1))


def test_binned_predict_leaves_fitted_model_unchanged(small_data):
    ds, _ = small_data
    squeezed = Dataset(
        covariates=ds.covariates,
        doses=np.clip(ds.doses, 0.0, 0.49),
        outcomes=ds.outcomes,
        protected=ds.protected,
    )
    est = fit_binned_slearner(squeezed, dose_bins=10, k=5)
    before = copy.deepcopy(est.__dict__)
    est.predict_mu(np.asarray([0.2, 0.95]), ds.covariates.features[:3])  # 0.95: empty stratum
    np.testing.assert_equal(est.__dict__, before)


def test_binned_recovers_dose_identity():
    ds = _dose_linear_dataset(3000, seed=9)
    bins = 10
    est = fit_binned_slearner(ds, dose_bins=bins, k=3000)
    centers = (np.arange(bins) + 0.5) / bins
    mu = est.predict_mu(centers, ds.covariates.features[:4])
    # stratum means equal the mean dose inside each stratum
    assert np.abs(mu - centers[None, :]).max() < 0.5 / bins + 0.02


def test_binned_rejects_bad_k(small_data):
    ds, _ = small_data
    with pytest.raises(ValueError):
        fit_binned_slearner(ds, dose_bins=5, k=0)


@pytest.mark.parametrize("bad", [-0.5, 1.5, np.nan, np.inf, -np.inf])
def test_estimators_reject_doses_outside_unit_interval(small_data, bad):
    # a negative dose used to pick a binned stratum from the end of the list,
    # and NaN raised from int() without naming the dose
    ds, gt = small_data
    x_mat = ds.covariates.features[:3]
    for est in (
        oracle_estimator(gt),
        fit_rf_slearner(ds, RfConfig(n_trees=2, seed=1)),
        fit_binned_slearner(ds, dose_bins=10, k=5),
    ):
        with pytest.raises(ValueError, match=f"dose {bad!r} is not a finite value in"):
            est.predict_mu([bad, 0.55], x_mat)
        with pytest.raises(ValueError, match=f"dose {bad!r}"):
            est.predict_mu([0.55, bad], x_mat)


def test_binned_randomized_assignment_recovery():
    # doses independent of covariates: the stratum means of factual outcomes
    # converge to the mean of the true dose-response surface inside each bin
    from doseuplift.datagen import (
        CONTINUOUS_COLS,
        GroundTruth,
        _dose_part,
        _row_part,
        _unit_features,
        empirical_constants,
    )

    n = 20_000
    cov = synth_covariates(n, seed=77)
    rng = np.random.default_rng([77, 3])
    doses = rng.uniform(0.0, 1.0, size=n)
    c1, c2 = empirical_constants(cov)
    cont = cov.features[:, list(CONTINUOUS_COLS)]
    lo, hi = tuple(cont.min(axis=0)), tuple(cont.max(axis=0))
    base = _row_part(_unit_features(cov.features, lo, hi), c1) * _dose_part(doses)
    raw = base + rng.normal(0.0, 0.5, size=n)
    y_min, y_max = float(raw.min()), float(raw.max())
    y = (raw - y_min) / (y_max - y_min)
    gt = GroundTruth(
        c1=c1, c2=c2, gamma=0.0, gamma_scale=0.1, protected_feature=7,
        scaling_min=lo, scaling_max=hi, y_min=y_min, y_max=y_max,
    )
    ds = Dataset(
        covariates=cov, doses=doses, outcomes=y,
        protected=cov.features[:, 6].astype(int),
    )

    est = fit_binned_slearner(ds, dose_bins=10, k=n)
    mu_all = np.clip((base - gt.y_min) / (gt.y_max - gt.y_min), 0.0, 1.0)
    assign = np.minimum((doses * 10).astype(int), 9)
    worst = max(
        abs(float(est.stratum_means[b]) - float(mu_all[assign == b].mean()))
        for b in range(10)
    )
    assert worst < 0.05


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_cv_single_config_returned(small_data):
    ds, _ = small_data
    cfg = RfConfig(n_trees=4, seed=1)
    assert cross_validate_rf(ds, [cfg], folds=3, seed=0) is cfg


def test_cv_tie_breaks_to_first(small_data):
    ds, _ = small_data
    a = RfConfig(n_trees=4, seed=1)
    b = RfConfig(n_trees=4, seed=1)
    assert cross_validate_rf(ds, [a, b], folds=3, seed=0) is a


def test_cv_prefers_deeper_trees_on_nonlinear_data():
    # noise-free sine-shaped dose response: a stump cannot follow it
    cov = synth_covariates(600, seed=55)
    rng = np.random.default_rng([55, 4])
    doses = rng.uniform(0.0, 1.0, size=600)
    y = 0.5 + 0.4 * np.sin(2.0 * np.pi * doses)
    ds = Dataset(
        covariates=cov, doses=doses, outcomes=y,
        protected=cov.features[:, 6].astype(int),
    )
    shallow = RfConfig(n_trees=20, max_depth=1, seed=2)
    deep = RfConfig(n_trees=20, max_depth=15, seed=2)
    assert cross_validate_rf(ds, [shallow, deep], folds=5, seed=1) is deep


def test_cv_rejects_bad_folds(small_data):
    ds, _ = small_data
    with pytest.raises(ValueError):
        cross_validate_rf(ds, [RfConfig()], folds=1, seed=0)
