"""Config-driven experiment runners emitting CSV result tables.

Every output CSV gets a metadata sidecar (``<name>.csv.meta``) carrying the
config hash, the seed, and the grid definitions, so runs are traceable and
byte-reproducible. Timing columns are the one exception to byte
reproducibility and are confined to the scalability and bin-sweep tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .alloc import make_problem, solve_bnb, solve_exact, solve_exact_sweep, solve_greedy
from .datagen import (
    CovariateTable,
    CONTINUOUS_COLS,
    Dataset,
    GenConfig,
    generate_dataset,
    load_covariates,
    synth_covariates,
)
from ._csvio import write_rows
from ._fork import fork_map

# mise is not called here; it stays in this namespace only because the
# benchmark's tracer (perfbench/tracing.py) patches it here.
from .estimators import (  # noqa: F401
    RfConfig,
    cade_and_mise,
    cade_matrix,
    cross_validate_rf,
    fit_binned_slearner,
    fit_rf_slearner,
    mise,
    oracle_estimator,
)
from .metrics import ValueCurve, auuc, fairness_report, value_curve


class ConfigError(ValueError):
    """Raised for unknown keys or malformed values in experiment configs."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; every field maps to one config-file key."""

    data: str = "synthetic:747"
    seed: int = GenConfig.seed
    subsample: int = 0
    delta: int = 10
    treatment_noise_variance: float = GenConfig.treatment_noise_variance
    outcome_noise_variance: float = GenConfig.outcome_noise_variance
    gamma: float = GenConfig.gamma
    gamma_scale: float = GenConfig.gamma_scale
    protected_feature: int = GenConfig.protected_feature
    estimators: tuple[str, ...] = ("rf", "binned", "oracle")
    estimator: str = "oracle"
    rf_trees: tuple[int, ...] = (RfConfig.n_trees,)
    rf_max_depth: tuple[int | None, ...] = (RfConfig.max_depth,)
    rf_min_samples_leaf: tuple[int, ...] = (RfConfig.min_samples_leaf,)
    rf_feature_subsample: str | int = RfConfig.feature_subsample
    cv_folds: int = 0
    binned_bins: int = 10
    binned_neighbors: int = 10
    budgets: tuple[float, ...] = tuple(float(b) for b in range(25, 251, 25))
    auuc_caps: tuple[float, ...] = (140.0, 250.0)
    auuc_step: float = 10.0
    eps_dt_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)
    eps_do_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)
    gammas: tuple[float, ...] = (0.0, 1.0, 5.0, 10.0)
    benefits: str = "uniform:0.5:1.5"
    factors: tuple[int, ...] = (1, 2, 4, 8)
    exact_max_factor: int = 1
    sweep_deltas: tuple[int, ...] = (1, 2, 5, 10)
    sweep_budget: float = 140.0
    bnb_node_limit: int = 1_000_000

    def __post_init__(self):
        if self.delta < 1:
            raise ConfigError("delta must be >= 1")
        if not self.budgets:
            raise ConfigError("budgets must not be empty")
        if any(b <= a for a, b in zip(self.budgets, self.budgets[1:])):
            raise ConfigError("budgets must be strictly ascending")
        if not (self.auuc_step > 0 and all(c > 0 for c in self.auuc_caps)):
            raise ConfigError("auuc_step and every auuc_caps entry must be positive")
        for eps in self.eps_dt_grid + self.eps_do_grid:
            if not 0.0 <= eps <= 1.0:
                raise ConfigError("fairness slack grids must lie in [0, 1]")
        _benefit_bounds(self.benefits)


def _parse_list(text: str, kind) -> tuple:
    return tuple(kind(v.strip()) for v in text.split(",") if v.strip())


def parse_depth(text: str) -> int | None:
    return None if text.lower() == "none" else int(text)


def parse_feature_subsample(text: str) -> str | int:
    """``sqrt``, ``all``, or a positive integer count of split features."""
    if text in ("sqrt", "all"):
        return text
    if not text.isdigit() or int(text) < 1:
        raise ValueError(f"expected sqrt, all or a positive integer, got {text!r}")
    return int(text)


def _parse_range_or_list(text: str) -> tuple[float, ...]:
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        if not (-np.inf < start <= stop < np.inf and step > 0):
            raise ValueError(f"range {text!r} needs start <= stop and a positive step")
        vals, b = [], start
        while b <= stop + 1e-9:
            vals.append(round(b, 10))
            b += step
        return tuple(vals)
    return _parse_list(text, float)


# keys whose syntax is not implied by the type of their default
_PARSERS = {
    "rf_max_depth": lambda text: _parse_list(text, parse_depth),
    "rf_feature_subsample": parse_feature_subsample,
    "budgets": _parse_range_or_list,
}


def _parse_value(key: str, default, text: str):
    """A config value in the syntax of ``_PARSERS``, else of its default's type:
    ``str``, ``int``, ``float``, or a comma list of a tuple's element type."""
    if key in _PARSERS:
        return _PARSERS[key](text)
    if isinstance(default, tuple):
        return _parse_list(text, type(default[0]))
    return type(default)(text)


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys fail."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(key, defaults[key], val.strip())
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Canonical key = value lines for every field, defaults included."""
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join("none" if e is None else str(e) for e in v)
        out.append(f"{f.name} = {v}")
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256("\n".join(config_lines(cfg)).encode()).hexdigest()[:16]


def _write_table(
    out_dir: str | Path, name: str, header: list[str], rows: list[list[str]],
    cfg: ExperimentConfig, extra: dict,
) -> Path:
    """Write ``out_dir/name`` and its ``.meta`` sidecar (config hash, every
    config line, then ``extra``); return the CSV path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    write_rows(path, header, rows)
    lines = [f"config_hash = {config_hash(cfg)}"] + config_lines(cfg)
    lines += [f"{k} = {v}" for k, v in extra.items()]
    Path(str(path) + ".meta").write_text("\n".join(lines) + "\n")
    return path


def _fmt(v: float) -> str:
    return repr(float(v))


def gen_config(source) -> GenConfig:
    """Generator settings read from the attributes of ``source`` (an
    ``ExperimentConfig`` or parsed CLI arguments) named like ``GenConfig``'s fields."""
    return GenConfig(**{f.name: getattr(source, f.name) for f in fields(GenConfig)})


def dataset_from_config(cfg: ExperimentConfig) -> tuple[Dataset, object]:
    """Build the experiment dataset; optional deterministic row subsample."""
    kind, _, arg = cfg.data.partition(":")
    if kind == "synthetic":
        cov = synth_covariates(int(arg or 747), seed=cfg.seed)
    elif kind == "csv":
        if not arg:
            raise ConfigError("data = csv:<path> requires a path")
        cov = load_covariates(arg)
    else:
        raise ConfigError(f"unknown data source {cfg.data!r}")
    if cfg.subsample and cfg.subsample < cov.n:
        rng = np.random.default_rng([cfg.seed, 11])
        keep = np.sort(rng.choice(cov.n, size=cfg.subsample, replace=False))
        cov = CovariateTable(features=cov.features[keep])
    return generate_dataset(cov, gen_config(cfg))


def rf_grid(cfg: ExperimentConfig) -> list[RfConfig]:
    return [
        RfConfig(
            n_trees=t,
            max_depth=d,
            min_samples_leaf=leaf,
            feature_subsample=cfg.rf_feature_subsample,
            seed=cfg.seed,
        )
        for t in cfg.rf_trees
        for d in cfg.rf_max_depth
        for leaf in cfg.rf_min_samples_leaf
    ]


def build_estimator(name: str, cfg: ExperimentConfig, ds: Dataset, gt) -> object:
    if name == "oracle":
        return oracle_estimator(gt)
    if name == "rf":
        grid = rf_grid(cfg)
        if len(grid) == 1:
            return fit_rf_slearner(ds, grid[0])
        if cfg.cv_folds < 2:
            raise ConfigError(
                f"an rf grid of {len(grid)} entries needs cv_folds >= 2, got {cfg.cv_folds}"
            )
        return fit_rf_slearner(ds, cross_validate_rf(ds, grid, folds=cfg.cv_folds, seed=cfg.seed))
    if name == "binned":
        return fit_binned_slearner(ds, dose_bins=cfg.binned_bins, k=cfg.binned_neighbors)
    raise ConfigError(f"unknown estimator {name!r}")


def _benefit_bounds(spec: str) -> tuple[float, float] | None:
    """``(lo, hi)`` of a ``uniform:<lo>:<hi>`` benefit spec; None for ``ones``."""
    if spec == "ones":
        return None
    kind, *bounds = spec.split(":")
    try:
        lo, hi = (float(b) for b in bounds)
    except ValueError:
        lo = hi = np.nan
    if kind != "uniform" or not np.isfinite([lo, hi]).all():
        raise ConfigError(f"benefits must be ones or uniform:<lo>:<hi> (finite), got {spec!r}")
    return lo, hi


def benefit_vector(cfg: ExperimentConfig, n: int) -> np.ndarray:
    bounds = _benefit_bounds(cfg.benefits)
    if bounds is None:
        return np.ones(n)
    return np.random.default_rng([cfg.seed, 13]).uniform(*bounds, size=n)


def _area_grid(cfg: ExperimentConfig) -> np.ndarray:
    if not cfg.auuc_caps:
        raise ConfigError("auuc_caps must not be empty: exp1 reports an area per cap")
    cap = max(cfg.auuc_caps)
    step = cfg.auuc_step
    for c in cfg.auuc_caps:
        if abs(c / step - round(c / step)) > 1e-9:
            raise ConfigError("every auuc cap must be a multiple of auuc_step")
    return np.arange(1, int(round(cap / step)) + 1) * step


def _slice_curve(curve: ValueCurve, cap: float) -> ValueCurve:
    mask = curve.budgets <= cap + 1e-9
    return ValueCurve(curve.budgets[mask], curve.values[mask])


# ---------------------------------------------------------------------------
# experiment 1: estimator comparison
# ---------------------------------------------------------------------------

_EXP1_SOLVERS = ("greedy", "exact")  # exp1's allocation methods, in column order


def _exp1_scores(est, cfg: ExperimentConfig, ds: Dataset, gt, true_cade, grid) -> tuple:
    """``(mise, {solver: value curve})`` of one exp1 row; ``est=None`` is the
    full-information row, whose MISE is None.

    Each curve solves on the row's own dose-effect matrix and scores on the
    true one. An estimator whose matrix equals the true one gets None for
    its curves: they are the full-information curves, the same solves
    scored on the same matrix.
    """
    if est is None:
        est_cade, err = true_cade, None
    else:
        est_cade, err = cade_and_mise(est, ds, cfg.delta, gt)
        if np.array_equal(est_cade.values, true_cade.values):
            return err, None
    prob = make_problem(est_cade, budget=0.0, groups=ds.protected)
    curves = {
        solver: value_curve(prob, grid, solver=solver, evaluation=true_cade)
        for solver in _EXP1_SOLVERS
    }
    return err, curves


def run_exp1(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """MISE plus normalized curve areas per estimator, greedy and exact.

    Areas are normalized per allocation method: each method's curve under an
    estimator is divided by the same method's full-information curve, so the
    oracle row reads 1.0 in every column by construction. Every estimator is
    built here first; then the full-information row and each estimator's row
    are scored in forked workers (``fork_map``), and the table is written here.
    """
    grid = _area_grid(cfg)
    ds, gt = dataset_from_config(cfg)
    true_cade = cade_matrix(oracle_estimator(gt), ds, cfg.delta)
    ests = [build_estimator(name, cfg, ds, gt) for name in cfg.estimators]
    (_, opt_curves), *scores = fork_map(
        _exp1_scores, [None, *ests], cfg, ds, gt, true_cade, grid
    )

    columns = [(cap, solver) for cap in cfg.auuc_caps for solver in _EXP1_SOLVERS]
    rows = []
    for name, (err, presc_curves) in zip(cfg.estimators, scores):
        presc_curves = presc_curves or opt_curves
        # one curve per solver over the full grid; each cap reads a prefix of it
        row = [name, _fmt(err)]
        for cap, solver in columns:
            presc = _slice_curve(presc_curves[solver], cap)
            row.append(_fmt(auuc(presc, _slice_curve(opt_curves[solver], cap))))
        rows.append(row)
    header = ["estimator", "mise"] + [f"auuc_{cap:g}_{solver}" for cap, solver in columns]
    return _write_table(
        out_dir, "exp1_results.csv", header, rows, cfg,
        {"area_grid": ",".join(str(b) for b in grid)},
    )


# ---------------------------------------------------------------------------
# experiment 2: fairness trade-offs
# ---------------------------------------------------------------------------

def run_exp2(cfg: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Sweep the fairness slack grid (per gamma); report value and disparities.

    The objective column is the prescribed-value curve averaged over the
    budget grid, each budget normalized by the unconstrained full-information
    optimum at that budget. Disparity columns are averages over budgets. Each
    cell solves the budget grid through ``solve_exact_sweep``: one DP table
    when both slacks disable their pairs, one branch-and-bound per budget
    otherwise.
    """
    paths = []
    for gamma in cfg.gammas:
        gcfg = replace(cfg, gamma=gamma)
        ds, gt = dataset_from_config(gcfg)
        if np.unique(ds.protected).size < 2:
            raise ConfigError(
                f"protected_feature = {cfg.protected_feature}: the subsample of {ds.n} rows "
                f"has one group only; exp2 compares two"
            )
        true_cade = cade_matrix(oracle_estimator(gt), ds, cfg.delta)
        est = build_estimator(cfg.estimator, gcfg, ds, gt)
        est_cade = cade_matrix(est, ds, cfg.delta)

        opt_reports = solve_exact_sweep(
            make_problem(true_cade, budget=0.0, groups=ds.protected), cfg.budgets
        )
        rows = []
        for eps_dt in cfg.eps_dt_grid:
            for eps_do in cfg.eps_do_grid:
                cell = make_problem(
                    est_cade, budget=0.0, groups=ds.protected, eps_dt=eps_dt, eps_do=eps_do
                )
                reports = solve_exact_sweep(cell, cfg.budgets, node_limit=cfg.bnb_node_limit)
                records = []  # one per budget, in the column order after the slacks
                for b, report, opt in zip(cfg.budgets, reports, opt_reports):
                    if report.status != "optimal":
                        raise RuntimeError(
                            f"cell eps_dt={eps_dt} eps_do={eps_do} budget={b}: "
                            f"solver stopped with status {report.status} "
                            f"(bound {report.best_bound}); raise bnb_node_limit "
                            f"or relax the grid"
                        )
                    # not policy.picked(...).sum(): the summation order fixes the
                    # last bits, and so the bytes, of the objective column
                    presc = float(np.sum(report.policy.matrix * true_cade.values))
                    rep_est = fairness_report(report.policy, est_cade, ds.protected)
                    rep_true = fairness_report(report.policy, true_cade, ds.protected)
                    records.append((
                        rep_est.mean_dose_g0, rep_est.mean_dose_g1,
                        rep_est.mean_gain_g0, rep_est.mean_gain_g1,
                        rep_true.mean_gain_g0, rep_true.mean_gain_g1,
                        presc / opt.objective if opt.objective != 0 else 0.0,
                    ))
                rows.append(
                    [_fmt(eps_dt), _fmt(eps_do)] + [_fmt(np.mean(col)) for col in zip(*records)]
                )
        header = [
            "eps_dt", "eps_do", "mean_dose_g0", "mean_dose_g1", "outcome_g0_est",
            "outcome_g1_est", "outcome_g0_true", "outcome_g1_true", "objective",
        ]
        paths.append(_write_table(
            out_dir, f"exp2_gamma_{gamma:g}.csv", header, rows, gcfg,
            {"estimator_used": cfg.estimator},
        ))
    return paths


# ---------------------------------------------------------------------------
# experiment 3: cost-sensitive objectives
# ---------------------------------------------------------------------------

def run_exp3(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Uplift-optimal versus value-optimal policies across the budget grid."""
    ds, gt = dataset_from_config(cfg)
    true_cade = cade_matrix(oracle_estimator(gt), ds, cfg.delta)
    est = build_estimator(cfg.estimator, cfg, ds, gt)
    est_cade = cade_matrix(est, ds, cfg.delta)
    benefits = benefit_vector(cfg, ds.n)

    uplift_opt = solve_exact_sweep(
        make_problem(est_cade, budget=0.0, groups=ds.protected), cfg.budgets
    )
    value_opt = solve_exact_sweep(
        make_problem(est_cade, budget=0.0, groups=ds.protected, benefits=benefits), cfg.budgets
    )
    rows = []
    for b, rep_u, rep_v in zip(cfg.budgets, uplift_opt, value_opt):
        gains_u = rep_u.policy.picked(true_cade.values)
        gains_v = rep_v.policy.picked(true_cade.values)
        rows.append(
            [
                _fmt(b),
                _fmt(gains_u.sum()),
                _fmt(float(gains_u @ benefits)),
                _fmt(gains_v.sum()),
                _fmt(float(gains_v @ benefits)),
            ]
        )
    return _write_table(
        out_dir,
        "exp3_results.csv",
        ["budget", "u_of_u_opt", "v_of_u_opt", "u_of_v_opt", "v_of_v_opt"],
        rows,
        cfg,
        {"benefit_spec": cfg.benefits},
    )


# ---------------------------------------------------------------------------
# scalability
# ---------------------------------------------------------------------------

OVERSAMPLE_JITTER = 0.01  # noise sd added to the resampled continuous features


def oversample_covariates(cov: CovariateTable, factor: int, seed: int) -> CovariateTable:
    """Original rows plus (factor-1)*n resampled rows with jittered continuous
    features; binary columns are resampled unchanged."""
    if factor < 1:
        raise ConfigError("oversampling factor must be >= 1")
    if factor == 1:
        return cov
    rng = np.random.default_rng([seed, 19, factor])
    extra_idx = rng.integers(0, cov.n, size=(factor - 1) * cov.n)
    extra = cov.features[extra_idx].copy()
    cols = list(CONTINUOUS_COLS)
    extra[:, cols] += rng.normal(0.0, OVERSAMPLE_JITTER, size=(extra.shape[0], len(cols)))
    return CovariateTable(features=np.vstack([cov.features, extra]))


def run_scalability(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Wall times of the heuristic versus the exact solver on scaled instances.

    The budget scales with the oversampling factor. The exact branch-and-bound
    runs only up to ``exact_max_factor``; the heuristic runs everywhere.
    """
    base_cov = dataset_from_config(cfg)[0].covariates
    rows = []
    for factor in cfg.factors:
        cov = oversample_covariates(base_cov, factor, cfg.seed)
        ds, gt = generate_dataset(cov, gen_config(cfg))
        est = build_estimator(cfg.estimator, cfg, ds, gt)
        cade = cade_matrix(est, ds, cfg.delta)
        prob = make_problem(cade, budget=cfg.sweep_budget * factor, groups=ds.protected)
        greedy = solve_greedy(prob)
        row = [str(factor), str(ds.n), _fmt(greedy.wall_ms), _fmt(greedy.objective)]
        if factor <= cfg.exact_max_factor:
            exact = solve_bnb(prob, node_limit=cfg.bnb_node_limit)
            row += [
                exact.status, str(exact.nodes),
                _fmt(exact.wall_ms), _fmt(exact.objective), _fmt(exact.best_bound),
            ]
        else:
            row += ["skipped", "", "", "", ""]
        rows.append(row)
    header = [
        "factor", "n", "greedy_ms", "greedy_objective",
        "exact_status", "exact_nodes", "exact_ms", "exact_objective", "exact_bound",
    ]
    return _write_table(
        out_dir, "scalability_results.csv", header, rows, cfg,
        {"factors": ",".join(str(f) for f in cfg.factors)},
    )


# ---------------------------------------------------------------------------
# dose-bin sweep
# ---------------------------------------------------------------------------

def run_delta_sweep(cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Prescribed value and solve time at one budget across grid granularities."""
    ds, gt = dataset_from_config(cfg)
    est = build_estimator(cfg.estimator, cfg, ds, gt)  # the fit does not depend on delta
    rows = []
    for delta in cfg.sweep_deltas:
        est_cade = cade_matrix(est, ds, delta)
        true_cade = cade_matrix(oracle_estimator(gt), ds, delta)
        prob = make_problem(est_cade, budget=cfg.sweep_budget, groups=ds.protected)
        report = solve_exact(prob)
        # not policy.picked(...).sum(): the summation order fixes the last bits,
        # and so the bytes, of the u_presc column
        presc = float(np.sum(report.policy.matrix * true_cade.values))
        rows.append([str(delta), _fmt(presc), _fmt(report.wall_ms)])
    return _write_table(
        out_dir, "delta_sweep_results.csv", ["delta", "u_presc", "wall_ms"], rows, cfg,
        {"deltas": ",".join(str(d) for d in cfg.sweep_deltas)},
    )
