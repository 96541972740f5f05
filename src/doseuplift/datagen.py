"""Semi-synthetic continuous-treatment data generation on IHDP-style covariates.

Covariate tables have 25 columns: five continuous (z-scored on load) and two
groups of ten binary columns. Doses and outcomes are generated from fixed
nonlinear formulas of the covariates plus Gaussian noise, and the noiseless
generator is kept around as queryable ground truth for evaluation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_FEATURES = 25

# 0-based column indices; feature numbering in the generator formulas is 1-based.
CONTINUOUS_COLS = (0, 1, 2, 4, 5)
BINARY_COLS_1 = (3, 6, 7, 8, 9, 10, 11, 12, 13, 14)
BINARY_COLS_2 = (15, 16, 17, 18, 19, 20, 21, 22, 23, 24)

# Denominators in the generator can vanish off the unit feature range; they
# are floored at sign * DENOM_GUARD and the affected row count is reported.
DENOM_GUARD = 1e-6


class CovariateError(ValueError):
    """Raised when a covariate file or array violates the table contract."""


class GenerationError(ValueError):
    """Raised when dataset generation cannot proceed (e.g. degenerate outcomes)."""


def _check_finite(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
        raise GenerationError(f"{name} must be a finite number, got {v!r}")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class FeatureScaling:
    """Per-column affine map of the continuous features onto [0, 1].

    The generator formulas divide by expressions of the continuous features
    and behave sanely only on unit-range inputs; tables keep their z-scored
    columns, and this map (fitted on the generating table) carries them into
    formula space. Binary columns pass through unchanged.
    """

    col_min: tuple[float, ...]
    col_max: tuple[float, ...]

    def __post_init__(self):
        if len(self.col_min) != len(CONTINUOUS_COLS) or len(self.col_max) != len(
            CONTINUOUS_COLS
        ):
            raise GenerationError("scaling needs one (min, max) per continuous column")
        for name in ("col_min", "col_max"):
            for v in getattr(self, name):
                _check_finite(f"scaling {name}", v)
        if any(hi <= lo for lo, hi in zip(self.col_min, self.col_max)):
            raise GenerationError("degenerate scaling column: max must exceed min")

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaling":
        cols = list(CONTINUOUS_COLS)
        return cls(
            col_min=tuple(float(v) for v in features[:, cols].min(axis=0)),
            col_max=tuple(float(v) for v in features[:, cols].max(axis=0)),
        )

    def unit_features(self, x_mat: np.ndarray) -> np.ndarray:
        """Map rows into formula space; rows off the fitted range extrapolate."""
        u = np.array(x_mat, dtype=float, copy=True)
        for j, col in enumerate(CONTINUOUS_COLS):
            u[:, col] = (u[:, col] - self.col_min[j]) / (self.col_max[j] - self.col_min[j])
        return u


@dataclass(frozen=True)
class CovariateTable:
    """N x 25 feature matrix with continuous and binary column groups."""

    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[1] != N_FEATURES:
            raise CovariateError(
                f"expected a 2-d array with {N_FEATURES} columns, got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise CovariateError("covariates contain non-finite values")
        for col in BINARY_COLS_1 + BINARY_COLS_2:
            vals = feats[:, col]
            if not np.all((vals == 0.0) | (vals == 1.0)):
                raise CovariateError(f"column {col + 1} must be binary (0/1)")
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the dose/outcome generator.

    Noise terms are parameterized by variance (0.25 means standard deviation
    0.5). ``gamma`` amplifies the dose-responsive outcome term of the
    protected group by ``1 + gamma * gamma_scale``, widening the gap in
    group-level treatment effects as gamma grows.
    """

    seed: int = 0
    treatment_noise_variance: float = 0.25
    outcome_noise_variance: float = 0.25
    gamma: float = 0.0
    gamma_scale: float = 0.1
    protected_feature: int = 7  # 1-based index, must be a binary column

    def __post_init__(self):
        if self.treatment_noise_variance < 0 or self.outcome_noise_variance < 0:
            raise ValueError("noise variances must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if (self.protected_feature - 1) not in BINARY_COLS_1:
            raise ValueError(
                f"protected_feature must be one of "
                f"{sorted(c + 1 for c in BINARY_COLS_1)} (1-based binary columns)"
            )


@dataclass(frozen=True)
class Dataset:
    """Generated sample: covariates, doses in [0,1], outcomes in [0,1], group labels."""

    covariates: CovariateTable
    doses: np.ndarray
    outcomes: np.ndarray
    protected: np.ndarray

    def __post_init__(self):
        n = self.covariates.n
        if not (len(self.doses) == len(self.outcomes) == len(self.protected) == n):
            raise ValueError("dataset arrays must all have the covariate row count")
        for values, name in ((self.doses, "doses"), (self.outcomes, "outcomes")):
            if not np.all((values >= 0) & (values <= 1)):  # NaN fails both comparisons
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.covariates.n


@dataclass(frozen=True)
class GroundTruth:
    """Frozen noiseless generator: empirical constants plus outcome normalization.

    ``y_min``/``y_max`` are the min/max of the realized noisy raw outcomes of
    the generating sample; queries of the mean outcome surface are passed
    through this affine normalization and clamped to [0, 1]. ``scaling`` is
    the feature map fitted on the generating table.
    """

    c1: float
    c2: float
    gamma: float
    gamma_scale: float
    protected_feature: int
    scaling: FeatureScaling
    y_min: float
    y_max: float
    dose_guard_count: int = 0
    outcome_guard_count: int = 0

    def __post_init__(self):
        for name in ("c1", "c2", "gamma", "gamma_scale", "y_min", "y_max"):
            _check_finite(name, getattr(self, name))
        if not self.y_max > self.y_min:
            raise GenerationError("y_max must exceed y_min")
        if not _is_int(self.protected_feature) or self.protected_feature - 1 not in BINARY_COLS_1:
            raise GenerationError(
                f"protected_feature must be one of {sorted(c + 1 for c in BINARY_COLS_1)}, "
                f"got {self.protected_feature!r}"
            )
        for name in ("dose_guard_count", "outcome_guard_count"):
            v = getattr(self, name)
            if not _is_int(v) or v < 0:
                raise GenerationError(f"{name} must be a non-negative int, got {v!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "doseuplift-groundtruth/1",
                "c1": self.c1,
                "c2": self.c2,
                "gamma": self.gamma,
                "gamma_scale": self.gamma_scale,
                "protected_feature": self.protected_feature,
                "scaling_min": list(self.scaling.col_min),
                "scaling_max": list(self.scaling.col_max),
                "y_min": self.y_min,
                "y_max": self.y_max,
                "dose_guard_count": self.dose_guard_count,
                "outcome_guard_count": self.outcome_guard_count,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        obj = json.loads(text)
        if obj.get("format") != "doseuplift-groundtruth/1":
            raise ValueError("unrecognized ground-truth file format")
        for name in ("scaling_min", "scaling_max"):
            if not isinstance(obj.get(name), list):
                raise GenerationError(f"{name} must be a list of numbers, got {obj.get(name)!r}")
        return cls(
            c1=obj.get("c1"),
            c2=obj.get("c2"),
            gamma=obj.get("gamma"),
            gamma_scale=obj.get("gamma_scale"),
            protected_feature=obj.get("protected_feature"),
            scaling=FeatureScaling(
                col_min=tuple(obj["scaling_min"]), col_max=tuple(obj["scaling_max"])
            ),
            y_min=obj.get("y_min"),
            y_max=obj.get("y_max"),
            dose_guard_count=obj.get("dose_guard_count", 0),
            outcome_guard_count=obj.get("outcome_guard_count", 0),
        )


def _guard_denominator(den: np.ndarray) -> tuple[np.ndarray, int]:
    """Floor near-zero denominators at sign * DENOM_GUARD; count affected entries."""
    den = np.asarray(den, dtype=float)
    small = np.abs(den) < DENOM_GUARD
    if not np.any(small):
        return den, 0
    out = den.copy()
    signs = np.where(den[small] >= 0, 1.0, -1.0)
    out[small] = signs * DENOM_GUARD
    return out, int(np.count_nonzero(small))


def _dose_score(x_mat: np.ndarray, c2: float) -> tuple[np.ndarray, int]:
    """Deterministic part of the pre-squash dose score per row."""
    x1, x2 = x_mat[:, 0], x_mat[:, 1]
    trio = x_mat[:, (2, 4, 5)]
    den1, g1 = _guard_denominator(1.0 + x2)
    den2, g2 = _guard_denominator(0.2 + trio.min(axis=1))
    bin2_mean = x_mat[:, BINARY_COLS_2].mean(axis=1)
    score = x1 / den1 + trio.max(axis=1) / den2 + np.tanh(5.0 * (bin2_mean - c2)) - 2.0
    return score, g1 + g2


def _squash_dose(score: np.ndarray) -> np.ndarray:
    """Map a raw dose score to (0, 1) via the logistic 1 / (1 + exp(-2 t))."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-2.0 * np.asarray(score, dtype=float)))
    return np.clip(s, 1e-12, 1.0 - 1e-12)


def _outcome_base(
    x_mat: np.ndarray, doses: np.ndarray, c1: float, pairwise: bool
) -> tuple[np.ndarray, int]:
    """Noiseless raw outcome surface, before group scaling and noise.

    Zero at dose 0 for every x, so all dose effects are measured against it.
    ``pairwise=True`` pairs row i with dose i (result shape (n,));
    ``pairwise=False`` evaluates every row at every grid dose (shape (n, m)).
    """
    x1, x6 = x_mat[:, 0], x_mat[:, 5]
    trio_min = x_mat[:, (1, 2, 4)].min(axis=1)
    den, guards = _guard_denominator(0.5 + 5.0 * trio_min)
    bin1_mean = x_mat[:, BINARY_COLS_1].mean(axis=1)
    row_part = np.tanh(5.0 * (bin1_mean - c1)) + np.exp(0.2 * (x1 - x6)) / den

    d = np.asarray(doses, dtype=float)
    dose_part = np.sin(3.0 * np.pi * d) / (1.2 - d)
    if pairwise:
        if d.shape[0] != x_mat.shape[0]:
            raise ValueError("pairwise evaluation needs one dose per row")
        return row_part * dose_part, guards
    return row_part[:, None] * dose_part[None, :], guards


def _group_factor(gt_gamma: float, gt_scale: float, protected: np.ndarray) -> np.ndarray:
    return 1.0 + gt_gamma * gt_scale * np.asarray(protected, dtype=float)


def empirical_constants(cov: CovariateTable) -> tuple[float, float]:
    """Sample means of the two binary-group row averages (c1, c2)."""
    c1 = float(cov.features[:, BINARY_COLS_1].mean())
    c2 = float(cov.features[:, BINARY_COLS_2].mean())
    return c1, c2


def generate_dataset(cov: CovariateTable, cfg: GenConfig) -> tuple[Dataset, GroundTruth]:
    """Draw doses and outcomes for every covariate row; freeze the ground truth.

    The outcome normalization constants are the min/max of the realized noisy
    raw outcomes, so the generated outcomes span [0, 1] exactly. Deterministic
    given (covariates, config): noise streams are derived from the seed.
    """
    scaling = FeatureScaling.fit(cov.features)
    u_mat = scaling.unit_features(cov.features)
    c1, c2 = empirical_constants(cov)
    pidx = cfg.protected_feature - 1
    protected = cov.features[:, pidx].astype(int)

    dose_rng = np.random.default_rng([cfg.seed, 1])
    out_rng = np.random.default_rng([cfg.seed, 2])

    score, dose_guards = _dose_score(u_mat, c2)
    dose_noise = dose_rng.normal(0.0, np.sqrt(cfg.treatment_noise_variance), size=cov.n)
    doses = _squash_dose(score + dose_noise)

    base, out_guards = _outcome_base(u_mat, doses, c1, pairwise=True)
    raw = base * _group_factor(cfg.gamma, cfg.gamma_scale, protected)
    raw = raw + out_rng.normal(0.0, np.sqrt(cfg.outcome_noise_variance), size=cov.n)

    y_min, y_max = float(np.min(raw)), float(np.max(raw))
    if not y_max > y_min:
        raise GenerationError("degenerate outcome range: y_max equals y_min")
    outcomes = (raw - y_min) / (y_max - y_min)

    gt = GroundTruth(
        c1=c1,
        c2=c2,
        gamma=cfg.gamma,
        gamma_scale=cfg.gamma_scale,
        protected_feature=cfg.protected_feature,
        scaling=scaling,
        y_min=y_min,
        y_max=y_max,
        dose_guard_count=dose_guards,
        outcome_guard_count=out_guards,
    )
    ds = Dataset(covariates=cov, doses=doses, outcomes=outcomes, protected=protected)
    return ds, gt


def true_cadr_grid(gt: GroundTruth, doses: np.ndarray, x_mat: np.ndarray) -> np.ndarray:
    """Noiseless mean outcome at each (row, dose) pair, normalized and clamped.

    The protected value of each row is read from its own protected column.
    Returns an (n_rows, n_doses) matrix in [0, 1].
    """
    x_mat = np.atleast_2d(np.asarray(x_mat, dtype=float))
    doses = np.atleast_1d(np.asarray(doses, dtype=float))
    u_mat = gt.scaling.unit_features(x_mat)
    base, _ = _outcome_base(u_mat, doses, gt.c1, pairwise=False)
    protected = x_mat[:, gt.protected_feature - 1]
    raw = base * _group_factor(gt.gamma, gt.gamma_scale, protected)[:, None]
    mu = (raw - gt.y_min) / (gt.y_max - gt.y_min)
    return np.clip(mu, 0.0, 1.0)


def true_cadr(gt: GroundTruth, s: float, x: np.ndarray) -> float:
    """Noiseless mean outcome at dose ``s`` for one covariate row."""
    x_mat = np.asarray(x, dtype=float).reshape(1, N_FEATURES)
    return float(true_cadr_grid(gt, np.asarray([s]), x_mat)[0, 0])


def dose_grid(delta: int) -> np.ndarray:
    """The delta+1 equally spaced doses {0, 1/delta, ..., 1}.

    Built as d/delta so every grid dose is the double closest to its
    rational value and prints/parses exactly.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return np.arange(delta + 1) / float(delta)


def synth_covariates(n: int, seed: int) -> CovariateTable:
    """Synthetic stand-in covariates when no real file is available.

    Continuous columns are standard normal draws; each binary column is
    Bernoulli(p) with p itself drawn once from Uniform(0.2, 0.8).
    """
    if n < 2:
        raise ValueError("need at least 2 rows")
    rng = np.random.default_rng(seed)
    feats = np.zeros((n, N_FEATURES))
    feats[:, list(CONTINUOUS_COLS)] = rng.normal(size=(n, len(CONTINUOUS_COLS)))
    bin_cols = list(BINARY_COLS_1 + BINARY_COLS_2)
    probs = rng.uniform(0.2, 0.8, size=len(bin_cols))
    feats[:, bin_cols] = (rng.random(size=(n, len(bin_cols))) < probs).astype(float)
    return CovariateTable(features=feats)


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def load_covariates(path: str | Path, has_header: bool | None = None) -> CovariateTable:
    """Load a covariate CSV and preprocess it.

    The file must have at least 25 numeric columns; the first 25 are used, in
    order. Continuous columns are z-scored; binary columns must already be 0/1
    and are left untouched. ``has_header=None`` auto-detects a header row.
    """
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for r_idx, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if r_idx == 0 and (has_header is True or (has_header is None and _looks_like_header(row))):
                continue
            if len(row) < N_FEATURES:
                raise CovariateError(
                    f"row {r_idx + 1}: expected >= {N_FEATURES} columns, got {len(row)}"
                )
            parsed = []
            for c_idx in range(N_FEATURES):
                cell = row[c_idx].strip()
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CovariateError(
                        f"row {r_idx + 1}, column {c_idx + 1}: cannot parse {cell!r} as a number"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise CovariateError(f"{path}: no data rows")

    feats = np.asarray(rows, dtype=float)
    for col in BINARY_COLS_1 + BINARY_COLS_2:
        vals = feats[:, col]
        bad = np.nonzero(~((vals == 0.0) | (vals == 1.0)))[0]
        if bad.size:
            raise CovariateError(
                f"column {col + 1} is a binary column but row {bad[0] + 1} "
                f"holds {vals[bad[0]]!r}"
            )
    for col in CONTINUOUS_COLS:
        std = float(feats[:, col].std())
        if std == 0.0:
            raise CovariateError(f"column {col + 1} has zero variance; cannot z-score")
        feats[:, col] = (feats[:, col] - feats[:, col].mean()) / std
    return CovariateTable(features=feats)


DATASET_HEADER = [f"x{i}" for i in range(1, N_FEATURES + 1)] + ["a", "s", "y"]


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV with columns x1..x25,a,s,y at full precision."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.covariates.features[i]]
            row.append(str(int(ds.protected[i])))
            row.append(repr(float(ds.doses[i])))
            row.append(repr(float(ds.outcomes[i])))
            writer.writerow(row)


def load_dataset(path: str | Path, protected_feature: int = 7) -> Dataset:
    """Read a dataset CSV written by :func:`save_dataset`.

    Covariates are taken as already preprocessed. The stored group column must
    match the configured protected feature column.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != DATASET_HEADER:
            raise CovariateError(f"{path}: not a dataset CSV (unexpected header)")
        feats, protected, doses, outcomes = [], [], [], []
        for r_idx, row in enumerate(reader):
            if len(row) != len(DATASET_HEADER):
                raise CovariateError(
                    f"row {r_idx + 2}: expected {len(DATASET_HEADER)} columns, got {len(row)}"
                )
            vals = [float(v) for v in row]
            feats.append(vals[:N_FEATURES])
            protected.append(int(vals[N_FEATURES]))
            doses.append(vals[N_FEATURES + 1])
            outcomes.append(vals[N_FEATURES + 2])
    cov = CovariateTable(features=np.asarray(feats))
    protected_arr = np.asarray(protected, dtype=int)
    if not np.array_equal(protected_arr, cov.features[:, protected_feature - 1].astype(int)):
        raise CovariateError(
            f"group column does not match covariate column {protected_feature}"
        )
    return Dataset(
        covariates=cov,
        doses=np.asarray(doses),
        outcomes=np.asarray(outcomes),
        protected=protected_arr,
    )
