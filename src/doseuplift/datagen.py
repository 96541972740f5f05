"""Semi-synthetic continuous-treatment data generation on IHDP-style covariates.

Covariate tables have 25 columns: five continuous (z-scored on load) and two
groups of ten binary columns. Doses and outcomes are generated from fixed
nonlinear formulas of the covariates plus Gaussian noise, and the noiseless
generator is kept around as queryable ground truth for evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._csvio import CsvFormatError, naming, parse_numbers, read_rows, read_table, write_rows

N_FEATURES = 25

# 0-based column indices; feature numbering in the generator formulas is 1-based.
CONTINUOUS_COLS = (0, 1, 2, 4, 5)
BINARY_COLS_1 = (3, 6, 7, 8, 9, 10, 11, 12, 13, 14)
BINARY_COLS_2 = (15, 16, 17, 18, 19, 20, 21, 22, 23, 24)

# Denominators in the generator can vanish off the unit feature range, which only
# queries of rows outside the generating table reach; they floor at sign * DENOM_GUARD.
DENOM_GUARD = 1e-6

GROUNDTRUTH_FORMAT = "doseuplift-groundtruth/1"


class CovariateError(ValueError):
    """Raised when a covariate file or array violates the table contract."""


class GenerationError(ValueError):
    """Raised when dataset generation cannot proceed (e.g. degenerate outcomes)."""


def _check_finite(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
        raise GenerationError(f"{name} must be a finite number, got {v!r}")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _unit_features(x_mat: np.ndarray, col_min, col_max) -> np.ndarray:
    """Map each continuous column affinely from [min, max] onto [0, 1].

    The generator formulas divide by expressions of the continuous features
    and behave sanely only on unit-range inputs; tables keep their z-scored
    columns, and this map (with the range of the generating table) carries
    them into formula space. Rows off the range extrapolate; binary columns
    pass through unchanged.
    """
    u = np.array(x_mat, dtype=float, copy=True)
    for j, col in enumerate(CONTINUOUS_COLS):
        u[:, col] = (u[:, col] - col_min[j]) / (col_max[j] - col_min[j])
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
    through this affine normalization and clamped to [0, 1].
    ``scaling_min``/``scaling_max`` are the continuous-column ranges of the
    generating table, which ``_unit_features`` maps onto [0, 1].
    """

    c1: float
    c2: float
    gamma: float
    gamma_scale: float
    protected_feature: int
    scaling_min: tuple[float, ...]
    scaling_max: tuple[float, ...]
    y_min: float
    y_max: float

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
        for name in ("scaling_min", "scaling_max"):
            bounds = getattr(self, name)
            if not isinstance(bounds, (list, tuple)) or len(bounds) != len(CONTINUOUS_COLS):
                raise GenerationError(
                    f"{name} needs one number per continuous column, got {bounds!r}"
                )
            for v in bounds:
                _check_finite(name, v)
            object.__setattr__(self, name, tuple(bounds))  # a JSON list loads as a tuple
        if any(hi <= lo for lo, hi in zip(self.scaling_min, self.scaling_max)):
            raise GenerationError("degenerate scaling column: max must exceed min")

    def to_json(self) -> str:
        return json.dumps({"format": GROUNDTRUTH_FORMAT, **asdict(self)}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        """A missing or malformed field fails validation by name; other keys are ignored."""
        obj = json.loads(text)
        if obj.get("format") != GROUNDTRUTH_FORMAT:
            raise ValueError("unrecognized ground-truth file format")
        return cls(**{f.name: obj.get(f.name) for f in fields(cls)})


def _guard_denominator(den: np.ndarray) -> np.ndarray:
    """Floor near-zero denominators at sign * DENOM_GUARD, zero counting as positive."""
    den = np.asarray(den, dtype=float)
    return np.where(np.abs(den) < DENOM_GUARD, np.where(den >= 0, DENOM_GUARD, -DENOM_GUARD), den)


def _dose_score(x_mat: np.ndarray, c2: float) -> np.ndarray:
    """Deterministic part of the pre-squash dose score per row."""
    x1, x2 = x_mat[:, 0], x_mat[:, 1]
    trio = x_mat[:, (2, 4, 5)]
    den1 = _guard_denominator(1.0 + x2)
    den2 = _guard_denominator(0.2 + trio.min(axis=1))
    bin2_mean = x_mat[:, BINARY_COLS_2].mean(axis=1)
    return x1 / den1 + trio.max(axis=1) / den2 + np.tanh(5.0 * (bin2_mean - c2)) - 2.0


def _squash_dose(score: np.ndarray) -> np.ndarray:
    """Map a raw dose score to (0, 1) via the logistic 1 / (1 + exp(-2 t))."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-2.0 * np.asarray(score, dtype=float)))
    return np.clip(s, 1e-12, 1.0 - 1e-12)


# The noiseless raw outcome of a row at a dose is row part * dose part * group
# factor, multiplied in that order. It is zero at dose 0 for every row, so all
# dose effects are measured against it.

def _row_part(x_mat: np.ndarray, c1: float) -> np.ndarray:
    """Covariate factor of the raw outcome, one per row."""
    x1, x6 = x_mat[:, 0], x_mat[:, 5]
    den = _guard_denominator(0.5 + 5.0 * x_mat[:, (1, 2, 4)].min(axis=1))
    bin1_mean = x_mat[:, BINARY_COLS_1].mean(axis=1)
    return np.tanh(5.0 * (bin1_mean - c1)) + np.exp(0.2 * (x1 - x6)) / den


def _dose_part(doses: np.ndarray) -> np.ndarray:
    """Dose factor of the raw outcome, one per dose."""
    d = np.asarray(doses, dtype=float)
    return np.sin(3.0 * np.pi * d) / (1.2 - d)


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
    cont = cov.features[:, list(CONTINUOUS_COLS)]
    col_min = tuple(float(v) for v in cont.min(axis=0))
    col_max = tuple(float(v) for v in cont.max(axis=0))
    u_mat = _unit_features(cov.features, col_min, col_max)
    c1, c2 = empirical_constants(cov)
    pidx = cfg.protected_feature - 1
    protected = cov.features[:, pidx].astype(int)

    dose_rng = np.random.default_rng([cfg.seed, 1])
    out_rng = np.random.default_rng([cfg.seed, 2])

    # the generating table's unit features lie in [0, 1]: no denominator is floored
    score = _dose_score(u_mat, c2)
    dose_noise = dose_rng.normal(0.0, np.sqrt(cfg.treatment_noise_variance), size=cov.n)
    doses = _squash_dose(score + dose_noise)

    group = _group_factor(cfg.gamma, cfg.gamma_scale, protected)
    raw = _row_part(u_mat, c1) * _dose_part(doses) * group
    raw = raw + out_rng.normal(0.0, np.sqrt(cfg.outcome_noise_variance), size=cov.n)

    y_min, y_max = float(np.min(raw)), float(np.max(raw))
    if not y_max > y_min:
        raise GenerationError("degenerate outcome range: y_max equals y_min")
    outcomes = (raw - y_min) / (y_max - y_min)

    gt = GroundTruth(
        c1=c1, c2=c2, gamma=cfg.gamma, gamma_scale=cfg.gamma_scale,
        protected_feature=cfg.protected_feature, scaling_min=col_min, scaling_max=col_max,
        y_min=y_min, y_max=y_max,
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
    u_mat = _unit_features(x_mat, gt.scaling_min, gt.scaling_max)
    group = _group_factor(gt.gamma, gt.gamma_scale, x_mat[:, gt.protected_feature - 1])
    raw = (_row_part(u_mat, gt.c1)[:, None] * _dose_part(doses)[None, :]) * group[:, None]
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
    rows = read_rows(path)
    if rows and (has_header or (has_header is None and _looks_like_header(rows[0][1]))):
        rows = rows[1:]
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    for line, cells in rows:
        if len(cells) < N_FEATURES:
            raise CovariateError(
                f"{path}:{line}: expected >= {N_FEATURES} columns, got {len(cells)}"
            )
    feats = np.asarray([parse_numbers(path, line, cells[:N_FEATURES]) for line, cells in rows])
    for col in BINARY_COLS_1 + BINARY_COLS_2:
        vals = feats[:, col]
        bad = np.nonzero(~((vals == 0.0) | (vals == 1.0)))[0]
        if bad.size:
            raise CovariateError(
                f"{path}:{rows[bad[0]][0]}: column {col + 1} is a binary column but holds "
                f"{float(vals[bad[0]])!r}"
            )
    for col in CONTINUOUS_COLS:
        std = float(feats[:, col].std())
        if std == 0.0:
            raise CovariateError(f"{path}: column {col + 1} has zero variance; cannot z-score")
        feats[:, col] = (feats[:, col] - feats[:, col].mean()) / std
    return CovariateTable(features=feats)


DATASET_HEADER = [f"x{i}" for i in range(1, N_FEATURES + 1)] + ["a", "s", "y"]


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV with columns x1..x25,a,s,y at full precision."""
    rows = (
        [repr(float(v)) for v in ds.covariates.features[i]]
        + [str(int(ds.protected[i])), repr(float(ds.doses[i])), repr(float(ds.outcomes[i]))]
        for i in range(ds.n)
    )
    write_rows(path, DATASET_HEADER, rows)


def load_dataset(path: str | Path, protected_feature: int = 7) -> Dataset:
    """Read a dataset CSV written by :func:`save_dataset`.

    Covariates are taken as already preprocessed. The stored group column must
    match the configured protected feature column.
    """
    _, rows = read_table(path, lambda header: [h.strip() for h in header] == DATASET_HEADER)
    table = np.asarray([parse_numbers(path, line, cells) for line, cells in rows])
    # contiguous copies: a reduction over a strided view may sum in another order
    group, doses, outcomes = table[:, N_FEATURES:].T.copy()
    with naming(path):
        cov = CovariateTable(features=table[:, :N_FEATURES].copy())
        protected = group.astype(int)
        if not np.array_equal(protected, cov.features[:, protected_feature - 1].astype(int)):
            raise CovariateError(
                f"group column does not match covariate column {protected_feature}"
            )
        return Dataset(covariates=cov, doses=doses, outcomes=outcomes, protected=protected)
