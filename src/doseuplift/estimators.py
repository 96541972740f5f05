"""Dose-response estimators and their discretized dose-effect matrices."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    "cade_matrix",
    "mise",
    "cross_validate_rf",
    "save_cade_csv",
    "load_cade_csv",
    "write_dose_csv",
    "read_dose_csv",
    "read_entity_csv",
]


class Estimator:
    """Common surface: mean-outcome predictions on a dose grid, clamped to [0, 1]."""

    kind: str = "base"

    def predict_mu(self, doses: np.ndarray, x_mat: np.ndarray) -> np.ndarray:
        """Return an (n_rows, n_doses) matrix of mean-outcome estimates."""
        raise NotImplementedError


class OracleEstimator(Estimator):
    """Full-information estimator: queries the generator's noiseless surface."""

    kind = "oracle"

    def __init__(self, gt: GroundTruth):
        self.gt = gt

    def predict_mu(self, doses, x_mat):
        return true_cadr_grid(self.gt, doses, x_mat)


class RfSLearner(Estimator):
    """Single random forest over (covariates ++ dose), queried per grid dose."""

    kind = "rf_slearner"

    def __init__(self, forest: RandomForestRegressor):
        self.forest = forest

    def predict_mu(self, doses, x_mat):
        doses = np.atleast_1d(np.asarray(doses, dtype=float))
        x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
        n, m = x_mat.shape[0], doses.shape[0]
        batch = np.empty((n * m, x_mat.shape[1] + 1))
        batch[:, :-1] = np.repeat(x_mat, m, axis=0)
        batch[:, -1] = np.tile(doses, n)
        preds = self.forest.predict(batch).reshape(n, m)
        return np.clip(preds, 0.0, 1.0)


class BinnedSLearner(Estimator):
    """Per-dose-stratum nearest-neighbor means over the covariates.

    Queries in a stratum with no training data fall back to the global mean;
    the fallback count is kept in ``diagnostics``.
    """

    kind = "binned_slearner"

    def __init__(self, x_train, y_train, dose_bins, k):
        self.dose_bins = dose_bins
        self.k = k
        self.global_mean = float(np.mean(y_train))
        self.strata_x: list[np.ndarray] = []
        self.strata_y: list[np.ndarray] = []
        self.stratum_means = np.empty(dose_bins)
        self.diagnostics = {"empty_strata": [], "fallback_queries": 0}
        self._partition(x_train, y_train)

    def _partition(self, x_train, y_train):
        s = x_train[:, -1]
        assign = np.minimum((s * self.dose_bins).astype(int), self.dose_bins - 1)
        for b in range(self.dose_bins):
            mask = assign == b
            self.strata_x.append(np.ascontiguousarray(x_train[mask, :-1]))
            self.strata_y.append(y_train[mask])
            if np.any(mask):
                self.stratum_means[b] = float(y_train[mask].mean())
            else:
                self.stratum_means[b] = self.global_mean
                self.diagnostics["empty_strata"].append(b)

    def _stratum_of(self, s: float) -> int:
        return min(int(s * self.dose_bins), self.dose_bins - 1)

    def predict_mu(self, doses, x_mat):
        doses = np.atleast_1d(np.asarray(doses, dtype=float))
        x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
        out = np.empty((x_mat.shape[0], doses.shape[0]))
        for j, s in enumerate(doses):
            b = self._stratum_of(float(s))
            xs, ys = self.strata_x[b], self.strata_y[b]
            if xs.shape[0] == 0:
                out[:, j] = self.global_mean
                self.diagnostics["fallback_queries"] += x_mat.shape[0]
                continue
            k = min(self.k, xs.shape[0])
            d2 = ((x_mat[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[:, j] = ys[nearest].mean(axis=1)
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class CadeMatrix:
    """N x (delta+1) dose-effect values on the grid doses; column 0 is zero."""

    values: np.ndarray
    doses: np.ndarray
    provenance: str  # "estimated" | "ground-truth"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        doses = np.asarray(self.doses, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != doses.shape[0]:
            raise ValueError("values must be (n, len(doses))")
        if doses[0] != 0.0 or not np.all(np.diff(doses) > 0):
            raise ValueError("dose grid must start at 0 and increase")
        if np.any(vals[:, 0] != 0.0):
            raise ValueError("dose-0 column must be exactly zero")
        if np.max(np.abs(vals)) > 1.0 + 1e-12:
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


def cade_matrix(est: Estimator, data: Dataset, delta: int) -> CadeMatrix:
    """Discretize the estimator into per-entity dose effects on the grid."""
    grid = dose_grid(delta)
    mu = est.predict_mu(grid, data.covariates.features)
    tau = np.clip(mu - mu[:, [0]], -1.0, 1.0)
    tau[:, 0] = 0.0
    provenance = "ground-truth" if est.kind == "oracle" else "estimated"
    return CadeMatrix(values=tau, doses=grid, provenance=provenance)


def _trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Composite trapezoid along the last axis with uniform spacing h."""
    return h * (values[..., 0] * 0.5 + values[..., 1:-1].sum(axis=-1) + values[..., -1] * 0.5)


MISE_GRID_POINTS = 101


def mise(est: Estimator, gt: GroundTruth, data: Dataset) -> float:
    """Mean integrated squared error of the estimated dose-response curves,
    by the trapezoid rule on ``MISE_GRID_POINTS`` equally spaced doses."""
    grid = np.linspace(0.0, 1.0, MISE_GRID_POINTS)
    mu_true = true_cadr_grid(gt, grid, data.covariates.features)
    mu_hat = est.predict_mu(grid, data.covariates.features)
    sq = (mu_true - mu_hat) ** 2
    per_row = _trapezoid(sq, 1.0 / (MISE_GRID_POINTS - 1))
    return float(per_row.mean())


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
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity"] + [_dose_label(d) for d in doses])
        for i, row in enumerate(values):
            writer.writerow([str(i)] + [repr(float(v)) for v in row])


def read_entity_csv(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header, then ``(line number, fields after the id)`` per data row.

    The first column must hold the entity ids 0..n-1 in order.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in reader:
            if not row:
                continue
            if row[0] != str(len(rows)):
                raise ValueError(
                    f"{path}:{reader.line_num}: entity id {row[0]!r}, expected {len(rows)}"
                )
            rows.append((reader.line_num, row[1:]))
    return header, rows


def read_dose_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Dose grid and per-entity values of a file written by ``write_dose_csv``."""
    path = Path(path)
    header, rows = read_entity_csv(path)
    if not header or header[0] != "entity" or not all(h.startswith("dose_") for h in header[1:]):
        raise ValueError(f"{path}:1: not a dose-labeled CSV")
    doses = np.asarray([float(h[len("dose_"):]) for h in header[1:]])
    values = []
    for line, fields in rows:
        if len(fields) != len(doses):
            raise ValueError(f"{path}:{line}: {len(fields)} values for {len(doses)} doses")
        values.append([float(v) for v in fields])
    return doses, np.asarray(values)


def save_cade_csv(matrix: CadeMatrix, path: str | Path) -> None:
    """Write `entity,dose_0.0,...` rows at full precision."""
    write_dose_csv(path, matrix.doses, matrix.values)


def load_cade_csv(path: str | Path, provenance: str = "estimated") -> CadeMatrix:
    doses, values = read_dose_csv(path)
    return CadeMatrix(values=values, doses=doses, provenance=provenance)
