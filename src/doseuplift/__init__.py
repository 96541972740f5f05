"""Uplift modeling with continuous treatment doses.

Pipeline: generate (or load) a semi-synthetic dose-response dataset, fit a
dose-response estimator, discretize its effects into a dose-effect matrix,
then solve a constrained dose-allocation problem and evaluate the result.
"""

from ._csvio import CsvFormatError
from .alloc import (
    AllocationProblem,
    Policy,
    SolveReport,
    make_problem,
    policy_cost,
    policy_value,
    proportional_costs,
    solve_bnb,
    solve_dp,
    solve_dp_sweep,
    solve_exact,
    solve_greedy,
)
from .datagen import (
    CovariateTable,
    Dataset,
    GenConfig,
    GroundTruth,
    dose_grid,
    generate_dataset,
    load_covariates,
    load_dataset,
    save_dataset,
    synth_covariates,
    true_cadr,
    true_cadr_grid,
)
from .estimators import (
    CadeMatrix,
    RfConfig,
    cade_matrix,
    cross_validate_rf,
    fit_binned_slearner,
    fit_rf_slearner,
    mise,
    oracle_estimator,
)
from .lpcore import LpProblem, LpSolution, solve_lp
from .metrics import (
    FairnessReport,
    ValueCurve,
    auuc,
    fairness_report,
    regret,
    regret_norm,
    value_curve,
)

__version__ = "0.1.0"
