"""Dose-response estimators and their discretized dose-effect matrices."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvio import naming, parse_numbers, read_table, write_rows
from .datagen import Dataset, GroundTruth, dose_grid, true_cadr_grid
from .forest import RandomForestRegressor, RfConfig

__all__ = [
    "CadeMatrix",
    "Estimator",
    "OracleEstimator",
    "RfSLearner",
    "BinnedSLearner",
    "RfConfig",
    "oracle_estimator",
    "fit_rf_slearner",
    "fit_binned_slearner",
    "cade_and_mise",
    "cade_matrix",
    "mise",
    "cross_validate_rf",
    "save_cade_csv",
    "load_cade_csv",
    "write_dose_csv",
    "read_dose_csv",
]


def _check_doses(doses) -> np.ndarray:
    """The query doses as a 1-d float array; each must be finite and in [0, 1]."""
    doses = np.atleast_1d(np.asarray(doses, dtype=float))
    bad = ~((doses >= 0.0) & (doses <= 1.0))  # NaN fails both comparisons
    if np.any(bad):
        raise ValueError(f"dose {float(doses[bad][0])!r} is not a finite value in [0, 1]")
    return doses


class Estimator:
    """Common surface: mean-outcome predictions on a dose grid, clamped to [0, 1]."""

    def predict_mu(self, doses: np.ndarray, x_mat: np.ndarray) -> np.ndarray:
        """Return an (n_rows, n_doses) matrix of mean-outcome estimates."""
        raise NotImplementedError


class OracleEstimator(Estimator):
    """Full-information estimator: queries the generator's noiseless surface."""

    def __init__(self, gt: GroundTruth):
        self.gt = gt

    def predict_mu(self, doses, x_mat):
        return true_cadr_grid(self.gt, _check_doses(doses), x_mat)


class RfSLearner(Estimator):
    """Single random forest over (covariates ++ dose), queried per grid dose."""

    def __init__(self, forest: RandomForestRegressor):
        self.forest = forest

    def predict_mu(self, doses, x_mat):
        doses = _check_doses(doses)
        x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
        return np.clip(self.forest.predict_grid(x_mat, doses), 0.0, 1.0)


class BinnedSLearner(Estimator):
    """Per-dose-stratum nearest-neighbor means over the covariates.

    Queries in a stratum with no training data fall back to the global mean;
    ``diagnostics["empty_strata"]`` lists those strata, fixed at fit time.
    """

    def __init__(self, x_train, y_train, dose_bins, k):
        self.dose_bins = dose_bins
        self.k = k
        self.global_mean = float(np.mean(y_train))
        self.strata_x: list[np.ndarray] = []
        self.strata_y: list[np.ndarray] = []
        self.stratum_means = np.empty(dose_bins)
        self.diagnostics = {"empty_strata": []}
        self._partition(x_train, y_train)

    def _partition(self, x_train, y_train):
        assign = self._strata(x_train[:, -1])
        for b in range(self.dose_bins):
            mask = assign == b
            self.strata_x.append(np.ascontiguousarray(x_train[mask, :-1]))
            self.strata_y.append(y_train[mask])
            if np.any(mask):
                self.stratum_means[b] = float(y_train[mask].mean())
            else:
                self.stratum_means[b] = self.global_mean
                self.diagnostics["empty_strata"].append(b)

    def _strata(self, doses: np.ndarray) -> np.ndarray:
        """Stratum of each dose in [0, 1]; dose 1 joins the top stratum."""
        return np.minimum((doses * self.dose_bins).astype(int), self.dose_bins - 1)

    def predict_mu(self, doses, x_mat):
        doses = _check_doses(doses)
        x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
        out = np.empty((x_mat.shape[0], doses.shape[0]))
        strata = self._strata(doses)
        # one neighbor search per stratum serves every dose inside it
        for b in np.unique(strata):
            cols = strata == b
            xs, ys = self.strata_x[b], self.strata_y[b]
            if xs.shape[0] == 0:
                out[:, cols] = self.global_mean
                continue
            k = min(self.k, xs.shape[0])
            d2 = ((x_mat[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[:, cols] = ys[nearest].mean(axis=1)[:, None]
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class CadeMatrix:
    """N x (delta+1) dose-effect values on the grid doses; column 0 is zero."""

    values: np.ndarray
    doses: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        doses = np.asarray(self.doses, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != doses.shape[0]:
            raise ValueError("values must be (n, len(doses))")
        if doses[0] != 0.0 or not np.all(np.diff(doses) > 0):
            raise ValueError("dose grid must start at 0 and increase")
        if np.any(vals[:, 0] != 0.0):
            raise ValueError("dose-0 column must be exactly zero")
        if not np.max(np.abs(vals)) <= 1.0 + 1e-12:  # NaN fails the comparison
            raise ValueError("dose effects must lie in [-1, 1]")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "doses", doses)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def delta(self) -> int:
        return self.doses.shape[0] - 1


def oracle_estimator(gt: GroundTruth) -> OracleEstimator:
    return OracleEstimator(gt)


def fit_rf_slearner(data: Dataset, cfg: RfConfig) -> RfSLearner:
    """Fit the forest on factual rows (covariates ++ observed dose) -> outcome."""
    if data.n < 2 * cfg.min_samples_leaf:
        raise ValueError("dataset too small for the requested leaf size")
    z = np.hstack([data.covariates.features, data.doses.reshape(-1, 1)])
    forest = RandomForestRegressor(cfg).fit(z, data.outcomes)
    return RfSLearner(forest)


def fit_binned_slearner(data: Dataset, dose_bins: int, k: int) -> BinnedSLearner:
    if dose_bins < 1:
        raise ValueError("dose_bins must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    z = np.hstack([data.covariates.features, data.doses.reshape(-1, 1)])
    return BinnedSLearner(z, data.outcomes, dose_bins, k)


MISE_GRID_POINTS = 101


def cade_and_mise(
    est: Estimator, data: Dataset, delta: int, gt: GroundTruth | None = None
) -> tuple[CadeMatrix, float | None]:
    """The dose-effect matrix and, given the ground truth, the MISE, both from
    one ``predict_mu`` on the dose grid followed by the MISE grid.

    An estimator's prediction at one (row, dose) cell does not depend on the
    other doses queried with it, so both equal ``cade_matrix`` and ``mise``
    bit for bit. The grids are concatenated, not merged: their doses near
    0.7 differ by one ulp.
    """
    grid = dose_grid(delta)
    doses = grid if gt is None else np.concatenate([grid, _mise_grid()])
    mu = est.predict_mu(doses, data.covariates.features)
    tau = np.clip(mu[:, : grid.size] - mu[:, [0]], -1.0, 1.0)
    tau[:, 0] = 0.0
    matrix = CadeMatrix(values=tau, doses=grid)
    return matrix, None if gt is None else _mise_of(mu[:, grid.size :], gt, data)


def cade_matrix(est: Estimator, data: Dataset, delta: int) -> CadeMatrix:
    """Discretize the estimator into per-entity dose effects on the grid."""
    return cade_and_mise(est, data, delta)[0]


def _trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Composite trapezoid along the last axis with uniform spacing h."""
    return h * (values[..., 0] * 0.5 + values[..., 1:-1].sum(axis=-1) + values[..., -1] * 0.5)


def _mise_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, MISE_GRID_POINTS)


def _mise_of(mu_hat: np.ndarray, gt: GroundTruth, data: Dataset) -> float:
    mu_true = true_cadr_grid(gt, _mise_grid(), data.covariates.features)
    sq = (mu_true - mu_hat) ** 2
    per_row = _trapezoid(sq, 1.0 / (MISE_GRID_POINTS - 1))
    return float(per_row.mean())


def mise(est: Estimator, gt: GroundTruth, data: Dataset) -> float:
    """Mean integrated squared error of the estimated dose-response curves,
    by the trapezoid rule on ``MISE_GRID_POINTS`` equally spaced doses."""
    return _mise_of(est.predict_mu(_mise_grid(), data.covariates.features), gt, data)


def cross_validate_rf(
    data: Dataset, grid: list[RfConfig], folds: int, seed: int
) -> RfConfig:
    """Pick the config with the lowest mean factual-outcome MSE across folds.

    Ties keep the earliest grid entry.
    """
    if folds < 2 or folds > data.n:
        raise ValueError("folds must be in [2, n]")
    if not grid:
        raise ValueError("empty hyperparameter grid")
    rng = np.random.default_rng([seed, 17])
    perm = rng.permutation(data.n)
    fold_idx = np.array_split(perm, folds)
    z = np.hstack([data.covariates.features, data.doses.reshape(-1, 1)])
    y = data.outcomes

    best_cfg, best_mse = None, np.inf
    for cfg in grid:
        fold_mse = []
        for f in range(folds):
            test = fold_idx[f]
            train = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
            forest = RandomForestRegressor(cfg).fit(z[train], y[train])
            pred = np.clip(forest.predict(z[test]), 0.0, 1.0)
            fold_mse.append(float(((pred - y[test]) ** 2).mean()))
        mean_mse = float(np.mean(fold_mse))
        if mean_mse < best_mse:
            best_cfg, best_mse = cfg, mean_mse
    return best_cfg


def _dose_label(d: float) -> str:
    return f"dose_{float(d)!r}"


def write_dose_csv(path: str | Path, doses: np.ndarray, values: np.ndarray) -> None:
    """Write `entity,dose_0.0,...` rows, one per entity, at full precision."""
    rows = ([str(i)] + [repr(float(v)) for v in row] for i, row in enumerate(values))
    write_rows(path, ["entity"] + [_dose_label(d) for d in doses], rows)


def read_dose_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Dose grid and per-entity values of a file written by ``write_dose_csv``."""
    (header_line, header), rows = read_table(
        path, lambda h: h[0] == "entity" and all(c.startswith("dose_") for c in h[1:])
    )
    # column numbers count the entity column
    labels = [h[len("dose_"):] for h in header[1:]]
    doses = np.asarray(parse_numbers(path, header_line, labels, 2))
    return doses, np.asarray([parse_numbers(path, line, cells[1:], 2) for line, cells in rows])


def save_cade_csv(matrix: CadeMatrix, path: str | Path) -> None:
    """Write `entity,dose_0.0,...` rows at full precision."""
    write_dose_csv(path, matrix.doses, matrix.values)


def load_cade_csv(path: str | Path) -> CadeMatrix:
    doses, values = read_dose_csv(path)
    with naming(path):
        return CadeMatrix(values=values, doses=doses)
