"""Command-line entry points: data generation, fitting, allocation, experiments."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import experiments
from .alloc import REPORT_CSV_HEADER, SOLVERS, load_problem
from .datagen import (
    GenConfig,
    GroundTruth,
    generate_dataset,
    load_covariates,
    load_dataset,
    save_dataset,
    synth_covariates,
)
from .estimators import RfConfig, cade_and_mise, save_cade_csv
from .experiments import ExperimentConfig, gen_config, load_config, parse_feature_subsample


def _add_data_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--data", help="covariate or dataset CSV path")
    src.add_argument("--synthetic", type=int, metavar="N", help="synthesize N covariate rows")


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "data", None):
        cfg = replace(cfg, data=f"csv:{args.data}")
    if getattr(args, "synthetic", None):
        cfg = replace(cfg, data=f"synthetic:{args.synthetic}")
    return cfg


def _cmd_generate(args) -> int:
    if args.synthetic:
        cov = synth_covariates(args.synthetic, seed=args.seed)
    elif args.data:
        has_header = {"auto": None, "yes": True, "no": False}[args.header]
        cov = load_covariates(args.data, has_header=has_header)
    else:
        raise SystemExit("generate requires --data PATH or --synthetic N")
    ds, gt = generate_dataset(cov, gen_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out / "dataset.csv")
    (out / "groundtruth.json").write_text(gt.to_json())
    print(f"wrote {out}/dataset.csv ({ds.n} rows) and groundtruth.json")
    return 0


def _cmd_fit(args) -> int:
    ds = load_dataset(args.data, protected_feature=args.protected_feature)
    gt = None
    if args.groundtruth:
        gt = GroundTruth.from_json(Path(args.groundtruth).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.estimator == "oracle" and gt is None:
        raise SystemExit("--estimator oracle requires --groundtruth PATH")

    cfg = ExperimentConfig(
        seed=args.seed,
        rf_trees=(args.trees,),
        rf_max_depth=(args.max_depth,),
        rf_min_samples_leaf=(args.min_samples_leaf,),
        rf_feature_subsample=args.feature_subsample,
        binned_bins=args.bins,
        binned_neighbors=args.neighbors,
    )
    est = experiments.build_estimator(args.estimator, cfg, ds, gt)
    if args.estimator == "rf":
        (out / "model.json").write_text(est.forest.to_json())

    matrix, err = cade_and_mise(est, ds, args.delta, gt)
    save_cade_csv(matrix, out / "cade.csv")
    print(f"wrote {out}/cade.csv ({matrix.n} x {matrix.delta + 1})")
    if err is not None:
        print(f"mise = {err:.6f}")
    return 0


def _cmd_allocate(args) -> int:
    prob = load_problem(args.problem)
    if args.budget is not None:
        prob = prob.with_budget(args.budget)
    report = SOLVERS[args.solver](prob, [prob.budget])[0]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "report.csv").open("w", newline="") as fh:
        fh.write(",".join(REPORT_CSV_HEADER) + "\n")
        fh.write(",".join(report.csv_row(prob.costs)) + "\n")
    with (out / "policy.csv").open("w", newline="") as fh:
        fh.write("entity,dose\n")
        doses = report.policy.doses(prob.cade.doses)
        for i, d in enumerate(doses):
            fh.write(f"{i},{float(d)!r}\n")
    print(
        f"{report.status}: objective {report.objective:.6f}, "
        f"nodes {report.nodes}, wall {report.wall_ms:.0f} ms"
    )
    return 0


def _cmd_experiment(args) -> int:
    paths = args.runner(_config_from_args(args), args.out)
    for path in paths if isinstance(paths, list) else [paths]:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doseuplift",
        description="Continuous-treatment uplift modeling and dose allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a semi-synthetic dataset")
    _add_data_args(p)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument(
        "--header", choices=["auto", "yes", "no"], default="auto",
        help="whether the covariate CSV has a header row",
    )
    for f in fields(GenConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="fit an estimator; export its dose-effect matrix")
    p.add_argument("--data", required=True, help="dataset CSV from `generate`")
    p.add_argument("--estimator", default="rf", choices=["rf", "binned", "oracle"])
    p.add_argument("--groundtruth", help="groundtruth.json (oracle, or to report error)")
    p.add_argument("--delta", type=int, default=ExperimentConfig.delta)
    p.add_argument("--seed", type=int, default=GenConfig.seed)
    p.add_argument("--out", default="out")
    p.add_argument("--protected-feature", type=int, default=GenConfig.protected_feature)
    p.add_argument("--trees", type=int, default=RfConfig.n_trees)
    p.add_argument(
        "--max-depth", type=experiments.parse_depth, default=RfConfig.max_depth,
        help="an integer, or none for unlimited depth",
    )
    p.add_argument("--min-samples-leaf", type=int, default=RfConfig.min_samples_leaf)
    p.add_argument(
        "--feature-subsample", type=parse_feature_subsample, default=RfConfig.feature_subsample,
        help="sqrt | all | an integer count",
    )
    p.add_argument("--bins", type=int, default=ExperimentConfig.binned_bins)
    p.add_argument("--neighbors", type=int, default=ExperimentConfig.binned_neighbors)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("allocate", help="solve a problem directory (cade/cost/meta)")
    p.add_argument("--problem", required=True, help="directory with cade.csv, cost.csv, meta.csv")
    p.add_argument("--solver", default="exact", choices=list(SOLVERS))
    p.add_argument("--budget", type=float, help="override the budget from meta.csv")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_allocate)

    for name, runner, help_text in (
        ("exp1", experiments.run_exp1, "estimator comparison table"),
        ("exp2", experiments.run_exp2, "fairness trade-off sweep"),
        ("exp3", experiments.run_exp3, "cost-sensitive objective comparison"),
        ("scalability", experiments.run_scalability, "heuristic vs exact runtime scaling"),
        ("delta-sweep", experiments.run_delta_sweep, "dose-grid granularity sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out")
        _add_data_args(p)
        p.set_defaults(func=_cmd_experiment, runner=runner)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # surface a diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
