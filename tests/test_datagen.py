"""Tests for the semi-synthetic data generator and its ground-truth queries."""

import json
import math

import numpy as np
import pytest

from doseuplift.datagen import (
    BINARY_COLS_1,
    BINARY_COLS_2,
    CONTINUOUS_COLS,
    CovariateError,
    CovariateTable,
    Dataset,
    FeatureScaling,
    GenConfig,
    GenerationError,
    GroundTruth,
    _dose_score,
    _group_factor,
    _outcome_base,
    _squash_dose,
    dose_grid,
    generate_dataset,
    load_covariates,
    load_dataset,
    save_dataset,
    synth_covariates,
    true_cadr,
    true_cadr_grid,
)
from doseuplift.estimators import cade_matrix, oracle_estimator


def _fixed_row(con=0.3, binary=1.0):
    # identity-scaled ground truths read these values as formula-space inputs
    x = np.full(25, binary)
    for c in CONTINUOUS_COLS:
        x[c] = con
    return x


def _oracle_effects(gt, features, delta):
    """Ground-truth dose-effect matrix of covariate rows, via the oracle estimator."""
    features = np.atleast_2d(features)
    zeros = np.zeros(features.shape[0])
    ds = Dataset(CovariateTable(features=features), doses=zeros, outcomes=zeros, protected=zeros)
    return cade_matrix(oracle_estimator(gt), ds, delta).values


def _frozen_gt(c1=0.5, c2=0.5, gamma=0.0, gamma_scale=0.1, y_min=-3.0, y_max=3.0):
    # identity scaling: rows are read as formula-space inputs
    n = len(CONTINUOUS_COLS)
    return GroundTruth(
        c1=c1, c2=c2, gamma=gamma, gamma_scale=gamma_scale,
        protected_feature=7, scaling=FeatureScaling(col_min=(0.0,) * n, col_max=(1.0,) * n),
        y_min=y_min, y_max=y_max,
    )


def _dose(x, noise, c2):
    """Dose of one formula-space row given its noise draw, as generate_dataset draws it."""
    score, _ = _dose_score(np.atleast_2d(x), c2)
    return float(_squash_dose(score + noise)[0])


def _raw_outcome(x, s, a, gt):
    """Noiseless raw outcome of one formula-space row, as generate_dataset composes it."""
    base, _ = _outcome_base(np.atleast_2d(x), np.asarray([s]), gt.c1, pairwise=True)
    return float(base[0] * _group_factor(gt.gamma, gt.gamma_scale, np.asarray([a]))[0])


# ---------------------------------------------------------------------------
# covariate tables
# ---------------------------------------------------------------------------

def test_synth_covariates_deterministic():
    a = synth_covariates(747, seed=1)
    b = synth_covariates(747, seed=1)
    assert np.array_equal(a.features, b.features)


def test_synth_covariates_shape_and_binary_values():
    t = synth_covariates(2, seed=5)
    assert t.features.shape == (2, 25)
    for c in BINARY_COLS_1 + BINARY_COLS_2:
        assert set(np.unique(t.features[:, c])) <= {0.0, 1.0}


def test_synth_covariates_continuous_means_near_zero():
    t = synth_covariates(1000, seed=7)
    for c in CONTINUOUS_COLS:
        assert abs(t.features[:, c].mean()) < 0.15


def test_synth_covariates_rejects_tiny_n():
    with pytest.raises(ValueError):
        synth_covariates(1, seed=0)


def test_covariate_table_rejects_wrong_width():
    with pytest.raises(CovariateError):
        CovariateTable(features=np.zeros((3, 24)))


def test_covariate_table_rejects_nonbinary_column():
    feats = synth_covariates(5, seed=0).features.copy()
    feats[2, BINARY_COLS_1[0]] = 0.5
    with pytest.raises(CovariateError):
        CovariateTable(features=feats)


def test_load_covariates_roundtrip(tmp_path):
    t = synth_covariates(747, seed=3)
    path = tmp_path / "cov.csv"
    header = ",".join(f"x{i}" for i in range(1, 26))
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in t.features]
    path.write_text("\n".join(lines) + "\n")

    loaded = load_covariates(path)
    assert loaded.n == 747
    assert loaded.features.shape == (747, 25)
    # binary columns untouched, continuous columns z-scored
    for c in BINARY_COLS_1 + BINARY_COLS_2:
        assert np.array_equal(loaded.features[:, c], t.features[:, c])
    for c in CONTINUOUS_COLS:
        assert abs(loaded.features[:, c].mean()) < 1e-9
        assert abs(loaded.features[:, c].std() - 1.0) < 1e-9


def test_load_covariates_rejects_narrow_file(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(",".join(["0.1"] * 24) for _ in range(4)) + "\n")
    with pytest.raises(CovariateError, match="24"):
        load_covariates(path)


def test_load_covariates_rejects_constant_continuous_column(tmp_path):
    t = synth_covariates(20, seed=1)
    feats = t.features.copy()
    feats[:, 0] = 2.5
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in feats) + "\n")
    with pytest.raises(CovariateError, match="zero variance"):
        load_covariates(path)


def test_load_covariates_reports_bad_cell_location(tmp_path):
    t = synth_covariates(5, seed=1)
    rows = [",".join(repr(float(v)) for v in row) for row in t.features]
    cells = rows[2].split(",")
    cells[4] = "oops"
    rows[2] = ",".join(cells)
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CovariateError, match="row 3, column 5"):
        load_covariates(path)


def test_load_covariates_rejects_nonbinary_in_binary_column(tmp_path):
    t = synth_covariates(5, seed=1)
    feats = t.features.copy()
    feats[1, BINARY_COLS_2[0]] = 3.0
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in feats) + "\n")
    with pytest.raises(CovariateError, match="binary"):
        load_covariates(path)


# ---------------------------------------------------------------------------
# dose assignment
# ---------------------------------------------------------------------------

def test_assign_dose_logistic_midpoint():
    # score contributions cancel to exactly 0 => dose 0.5
    x = _fixed_row()
    c2 = 0.5
    # pick noise to cancel the deterministic score
    score = 0.3 / 1.3 + 0.3 / 0.5 + math.tanh(2.5) - 2.0
    assert _dose(x, noise=-score, c2=c2) == pytest.approx(0.5, abs=1e-12)


def test_assign_dose_saturates():
    x = _fixed_row()
    score = 0.3 / 1.3 + 0.3 / 0.5 + math.tanh(2.5) - 2.0
    s = _dose(x, noise=20.0 - score, c2=0.5)
    assert abs(s - 1.0) < 1e-8
    assert s < 1.0  # strictly inside (0, 1)


def test_assign_dose_matches_hand_evaluation():
    # Independent scalar evaluation of the dose formula, term by term.
    x = _fixed_row(con=0.3, binary=1.0)
    c2 = 0.5
    term1 = 0.3 / (1.0 + 0.3)
    term2 = max(0.3, 0.3, 0.3) / (0.2 + min(0.3, 0.3, 0.3))
    term3 = math.tanh(5.0 * (1.0 - c2))
    score = term1 + term2 + term3 - 2.0
    expected = 1.0 / (1.0 + math.exp(-2.0 * score))
    assert _dose(x, noise=0.0, c2=c2) == pytest.approx(expected, abs=1e-12)
    # frozen value of the evaluation above
    assert expected == pytest.approx(0.40969341, abs=1e-7)


# ---------------------------------------------------------------------------
# outcome generation
# ---------------------------------------------------------------------------

def test_gen_outcome_zero_at_sine_root():
    # sin(3*pi*s) = 0 at s = 1/3, so the raw outcome is exactly the noise
    gt = _frozen_gt()
    x = _fixed_row()
    raw = _raw_outcome(x, s=1.0 / 3.0, a=1, gt=gt) + 0.123
    assert raw == pytest.approx(0.123, abs=1e-12)


def test_gen_outcome_group_independent_when_gamma_zero():
    gt = _frozen_gt(gamma=0.0)
    x = _fixed_row()
    assert np.array_equal(_group_factor(gt.gamma, gt.gamma_scale, np.asarray([0, 1])), [1.0, 1.0])
    assert _raw_outcome(x, s=0.7, a=0, gt=gt) == _raw_outcome(x, s=0.7, a=1, gt=gt)


def test_gen_outcome_matches_hand_evaluation():
    # Independent scalar evaluation at s = 0.5 with gamma = 0 and no noise.
    x = _fixed_row(con=0.3, binary=1.0)
    c1 = 0.5
    gt = _frozen_gt(c1=c1)
    dose_part = math.sin(3.0 * math.pi * 0.5) / (1.2 - 0.5)
    inner = math.tanh(5.0 * (1.0 - c1)) + math.exp(0.2 * (0.3 - 0.3)) / (
        0.5 + 5.0 * min(0.3, 0.3, 0.3)
    )
    expected_raw = dose_part * inner
    raw = _raw_outcome(x, s=0.5, a=0, gt=gt)
    assert raw == pytest.approx(expected_raw, abs=1e-12)
    assert expected_raw == pytest.approx(-2.12373470, abs=1e-7)
    # the ground-truth query normalizes the same raw value by y_min/y_max
    assert true_cadr(gt, 0.5, x) == pytest.approx((expected_raw + 3.0) / 6.0, abs=1e-12)


# ---------------------------------------------------------------------------
# full dataset generation
# ---------------------------------------------------------------------------

def test_generate_dataset_deterministic():
    cov = synth_covariates(200, seed=11)
    cfg = GenConfig(seed=4)
    ds1, gt1 = generate_dataset(cov, cfg)
    ds2, gt2 = generate_dataset(cov, cfg)
    assert np.array_equal(ds1.doses, ds2.doses)
    assert np.array_equal(ds1.outcomes, ds2.outcomes)
    assert gt1 == gt2


def test_generate_dataset_normalization_endpoints():
    cov = synth_covariates(500, seed=2)
    ds, _ = generate_dataset(cov, GenConfig(seed=9))
    assert ds.outcomes.min() == 0.0
    assert ds.outcomes.max() == 1.0
    assert np.count_nonzero(ds.outcomes == 0.0) == 1
    assert np.count_nonzero(ds.outcomes == 1.0) == 1


def test_generate_dataset_protected_matches_column():
    cfg = GenConfig(seed=1, protected_feature=9)
    cov = synth_covariates(100, seed=3)
    ds, _ = generate_dataset(cov, cfg)
    assert np.array_equal(ds.protected, cov.features[:, 8].astype(int))


def test_generate_dataset_dose_mean_regression():
    # Pinned from the generator itself on first run; catches silent changes.
    cov = synth_covariates(747, seed=747)
    ds, _ = generate_dataset(cov, GenConfig(seed=0))
    mean = float(ds.doses.mean())
    assert 0.3 < mean < 0.7
    assert mean == pytest.approx(0.3423, abs=0.02)


def test_dataset_roundtrip_csv(tmp_path):
    cov = synth_covariates(60, seed=5)
    ds, _ = generate_dataset(cov, GenConfig(seed=5))
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.covariates.features, ds.covariates.features)
    assert np.array_equal(back.doses, ds.doses)
    assert np.array_equal(back.outcomes, ds.outcomes)
    assert np.array_equal(back.protected, ds.protected)


@pytest.mark.parametrize("column", ["doses", "outcomes"])
def test_dataset_rejects_nan_doses_and_outcomes(tmp_path, column):
    cov = synth_covariates(60, seed=5)
    ds, _ = generate_dataset(cov, GenConfig(seed=5))
    values = getattr(ds, column).copy()
    values[3] = np.nan
    fields = dict(covariates=ds.covariates, doses=ds.doses, outcomes=ds.outcomes, protected=ds.protected)
    with pytest.raises(ValueError, match=f"{column} must lie in"):
        Dataset(**{**fields, column: values})

    # the same cell read back from a CSV: the dose is column s, the outcome y
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[-2 if column == "doses" else -1] = "nan"
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{column} must lie in"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# ground-truth queries
# ---------------------------------------------------------------------------

def test_ground_truth_json_roundtrip_rejects_missing_or_non_finite_bounds():
    _, gt = generate_dataset(synth_covariates(50, seed=3), GenConfig(seed=3))
    assert GroundTruth.from_json(gt.to_json()) == gt
    obj = json.loads(gt.to_json())
    for field in ("y_min", "y_max"):
        for bad in (None, float("nan"), float("inf"), "missing"):
            broken = dict(obj)
            if bad == "missing":
                del broken[field]
            else:
                broken[field] = bad
            with pytest.raises(GenerationError, match=field):
                GroundTruth.from_json(json.dumps(broken))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("gamma", float("nan")),  # loaded before, then gave NaN means
        ("c1", None),  # loaded before, then raised TypeError at the first query
        ("protected_feature", 99),  # loaded before, then raised IndexError
        ("c2", float("inf")),
        ("c2", "0.5"),
        ("gamma_scale", "missing"),
        ("protected_feature", 1),  # a continuous column
        ("protected_feature", 7.0),
        ("protected_feature", True),
        ("scaling_min", None),
        ("scaling_min", [0.0, 0.0, float("nan"), 0.0, 0.0]),
        ("scaling_max", [1.0, 1.0, 1.0, 1.0]),
        ("scaling_max", [1.0, 1.0, 1.0, 1.0, None]),
        ("scaling_max", [-100.0] * 5),  # below scaling_min
        ("dose_guard_count", -1),
        ("outcome_guard_count", 1.5),
    ],
)
def test_ground_truth_json_rejects_bad_fields(field, bad):
    _, gt = generate_dataset(synth_covariates(50, seed=3), GenConfig(seed=3))
    broken = json.loads(gt.to_json())
    if bad == "missing":
        del broken[field]
    else:
        broken[field] = bad
    with pytest.raises(GenerationError, match="scaling" if field.startswith("scaling") else field):
        GroundTruth.from_json(json.dumps(broken))


def test_true_cadr_pure():
    gt = _frozen_gt()
    x = _fixed_row()
    assert true_cadr(gt, 0.37, x) == true_cadr(gt, 0.37, x)


def _own_dose_means(cov, cfg):
    """Generated outcomes and the ground truth's mean outcome at each row's own dose."""
    ds, gt = generate_dataset(cov, cfg)
    return ds.outcomes, np.diag(true_cadr_grid(gt, ds.doses, cov.features))


def test_true_cadr_monte_carlo_consistency():
    # without outcome noise the generator's outcomes are the ground truth, bit for bit
    for seed in range(5):
        cov = synth_covariates(300, seed=seed)
        for gamma in (0.0, 5.0):
            cfg = GenConfig(seed=seed, gamma=gamma, outcome_noise_variance=0.0)
            y, mu = _own_dose_means(cov, cfg)
            assert np.array_equal(y, mu)
    # with the default noise, the outcomes scatter around it without bias
    y, mu = _own_dose_means(synth_covariates(300, seed=21), GenConfig(seed=21))
    residual = y - mu
    stderr = residual.std() / math.sqrt(residual.size)
    assert abs(residual.mean()) < 3.0 * stderr


def test_true_cade_vector_zero_at_dose_zero():
    gt = _frozen_gt()
    (v,) = _oracle_effects(gt, _fixed_row(), delta=10)
    assert v.shape == (11,)
    assert v[0] == 0.0
    assert np.all(np.abs(v) <= 1.0)


def test_dose_grid_delta_10():
    assert np.allclose(dose_grid(10), np.arange(11) / 10.0)
    with pytest.raises(ValueError):
        dose_grid(0)


def test_true_cadr_independent_of_group_when_gamma_zero():
    cov = synth_covariates(50, seed=8)
    ds, gt = generate_dataset(cov, GenConfig(seed=8, gamma=0.0))
    x0 = cov.features[0].copy()
    x1 = x0.copy()
    x1[6] = 1.0 - x1[6]  # flip the protected column only
    grid = np.linspace(0, 1, 7)
    base0 = true_cadr_grid(gt, grid, x0.reshape(1, -1))
    # mu depends on column 7 through the outcome formula itself (bin1 mean),
    # so compare group factors directly instead: gamma=0 means factor 1 for both
    assert gt.gamma == 0.0
    assert np.allclose(base0, true_cadr_grid(gt, grid, x0.reshape(1, -1)))


def test_gamma_widens_group_ate_gap():
    # Group ATE: mean over the group of each entity's best-dose effect. The
    # amplification of the protected group's dose response drives the two
    # group ATEs apart as gamma grows.
    cov = synth_covariates(400, seed=99)
    gaps = []
    for gamma in (0.0, 1.0, 5.0, 10.0):
        ds, gt = generate_dataset(cov, GenConfig(seed=99, gamma=gamma))
        tau = _oracle_effects(gt, cov.features, delta=10)
        best = tau.max(axis=1)
        ates = [best[ds.protected == g].mean() for g in (0, 1)]
        gaps.append(abs(ates[1] - ates[0]))
    assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] > gaps[0]


def test_true_cade_matrix_matches_vectors():
    # oracle matrix row i equals the one-row true_cadr_grid difference
    cov = synth_covariates(30, seed=12)
    _, gt = generate_dataset(cov, GenConfig(seed=12))
    mat = _oracle_effects(gt, cov.features, delta=6)
    for i in (0, 7, 29):
        (mu,) = true_cadr_grid(gt, dose_grid(6), cov.features[i].reshape(1, -1))
        assert np.allclose(mat[i], mu - mu[0])
