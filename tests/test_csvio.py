"""The package's CSV files: exact bytes written, one blank-row rule, one format error.

Inputs are built by hand, not drawn from the generator, so that the
expected file texts depend on nothing but the writers.
"""

import re

import numpy as np
import pytest

from doseuplift import CsvFormatError
from doseuplift.alloc import AllocError, AllocationProblem, load_problem, make_problem, save_problem
from doseuplift.cli import main
from doseuplift.datagen import (
    CovariateError,
    CovariateTable,
    Dataset,
    load_covariates,
    load_dataset,
    save_dataset,
)
from doseuplift.estimators import CadeMatrix, load_cade_csv, save_cade_csv
from doseuplift.experiments import ExperimentConfig, _write_table


def _dataset():
    feats = np.zeros((2, 25))
    feats[0, [0, 1, 2, 4, 5]] = [0.5, -1.25, 2.0, 0.1, 1e-20]
    feats[1, [0, 1, 2, 4, 5]] = [-0.5, 1 / 3, 0.0, -7.0, 12345.678]
    feats[0, 6] = 1.0
    feats[1, [3] + list(range(7, 25))] = 1.0
    return Dataset(
        CovariateTable(feats),
        doses=np.array([0.25, 2 / 3]),
        outcomes=np.array([0.0, 1.0]),
        protected=np.array([1, 0]),
    )


DATASET_BYTES = (
    b"x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,x11,x12,x13,x14,x15,x16,x17,x18,x19,x20,"
    b"x21,x22,x23,x24,x25,a,s,y\r\n"
    b"0.5,-1.25,2.0,0.0,0.1,1e-20,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,"
    b"0.0,0.0,0.0,0.0,0.0,0.0,0.0,1,0.25,0.0\r\n"
    b"-0.5,0.3333333333333333,0.0,1.0,-7.0,12345.678,0.0,1.0,1.0,1.0,1.0,1.0,1.0,"
    b"1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,0,0.6666666666666666,1.0\r\n"
)


def _cade():
    return CadeMatrix(
        values=np.array([[0.0, 0.1, -0.25], [0.0, 1 / 3, 1.0]]), doses=np.array([0.0, 0.5, 1.0])
    )


CADE_BYTES = (
    b"entity,dose_0.0,dose_0.5,dose_1.0\r\n0,0.0,0.1,-0.25\r\n1,0.0,0.3333333333333333,1.0\r\n"
)


def _problem(**kw):
    fields = dict(
        cade=_cade(),
        costs=np.array([[0.0, 0.5, 2.0], [0.0, 0.25, 1e-3]]),
        benefits=np.array([1.5, 0.5]),
        budget=1.25,
        groups=np.array([0, 1]),
        eps_dt=0.25,
        eps_do=None,
        strict_eps_one=True,
    )
    return AllocationProblem(**{**fields, **kw})


PROBLEM_BYTES = {
    "cade.csv": CADE_BYTES,
    "cost.csv": b"entity,dose_0.0,dose_0.5,dose_1.0\r\n0,0.0,0.5,2.0\r\n1,0.0,0.25,0.001\r\n",
    "meta.csv": (
        b"entity,benefit,group,budget,eps_dt,eps_do,strict_eps_one\r\n"
        b"0,1.5,0,1.25,0.25,disabled,true\r\n1,0.5,1,1.25,0.25,disabled,true\r\n"
    ),
}


# ---------------------------------------------------------------------------
# bytes written
# ---------------------------------------------------------------------------

def test_save_dataset_bytes(tmp_path):
    save_dataset(_dataset(), tmp_path / "dataset.csv")
    assert (tmp_path / "dataset.csv").read_bytes() == DATASET_BYTES


def test_save_cade_csv_bytes(tmp_path):
    save_cade_csv(_cade(), tmp_path / "cade.csv")
    assert (tmp_path / "cade.csv").read_bytes() == CADE_BYTES


def test_save_problem_bytes(tmp_path):
    save_problem(_problem(), tmp_path)
    for name, expected in PROBLEM_BYTES.items():
        assert (tmp_path / name).read_bytes() == expected, name


def test_write_table_bytes(tmp_path):
    rows = [["1", "x,y"], ["2", 'q"t']]  # a comma and a quote force quoting
    path = _write_table(tmp_path, "t.csv", ["a", "b"], rows, ExperimentConfig(), {"k": "v"})
    assert path.read_bytes() == b'a,b\r\n1,"x,y"\r\n2,"q""t"\r\n'
    assert (tmp_path / "t.csv.meta").read_bytes() == (
        b"config_hash = 1cb04cfb912e455d\n"
        b"data = synthetic:747\nseed = 0\nsubsample = 0\ndelta = 10\n"
        b"treatment_noise_variance = 0.25\noutcome_noise_variance = 0.25\n"
        b"gamma = 0.0\ngamma_scale = 0.1\nprotected_feature = 7\n"
        b"estimators = rf,binned,oracle\nestimator = oracle\nrf_trees = 200\n"
        b"rf_max_depth = 15\nrf_min_samples_leaf = 2\nrf_feature_subsample = sqrt\n"
        b"cv_folds = 0\nbinned_bins = 10\nbinned_neighbors = 10\n"
        b"budgets = 25.0,50.0,75.0,100.0,125.0,150.0,175.0,200.0,225.0,250.0\n"
        b"auuc_caps = 140.0,250.0\nauuc_step = 10.0\n"
        b"eps_dt_grid = 0.0,0.25,0.5,1.0\neps_do_grid = 0.0,0.25,0.5,1.0\n"
        b"gammas = 0.0,1.0,5.0,10.0\nbenefits = uniform:0.5:1.5\nfactors = 1,2,4,8\n"
        b"exact_max_factor = 1\nsweep_deltas = 1,2,5,10\nsweep_budget = 140.0\n"
        b"bnb_node_limit = 1000000\nk = v\n"
    )


def test_cli_allocate_writes_report_and_policy_with_newlines(tmp_path):
    save_problem(make_problem(_cade(), budget=1.0, groups=np.array([0, 1])), tmp_path / "prob")
    out = tmp_path / "out"
    assert main(["allocate", "--problem", str(tmp_path / "prob"), "--solver", "dp",
                 "--out", str(out)]) == 0
    report = (out / "report.csv").read_bytes()
    # entity 1 at dose 1 spends the budget; wall_ms varies
    assert re.fullmatch(
        rb"status,objective,cost,nodes,bound,wall_ms\noptimal,1\.0,1\.0,0,1\.0,[0-9.e+-]+\n",
        report,
    ), report
    assert (out / "policy.csv").read_bytes() == b"entity,dose\n0,0.0\n1,1.0\n"


# ---------------------------------------------------------------------------
# one blank-row rule: a row whose cells hold only whitespace is skipped
# ---------------------------------------------------------------------------

def _with_blank_rows(data: bytes) -> bytes:
    """``data`` with a whitespace-only line after its header, a row of blank
    cells before its last line and an empty line at its end."""
    lines = data.split(b"\r\n")
    return b"\r\n".join(lines[:1] + [b"   "] + lines[1:-2] + [b" , \t"] + lines[-2:]) + b"\r\n"


def test_blank_rows_are_skipped_in_dataset_csv(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_bytes(_with_blank_rows(DATASET_BYTES))
    back = load_dataset(path)
    assert np.array_equal(back.covariates.features, _dataset().covariates.features)
    assert np.array_equal(back.doses, _dataset().doses)


def test_blank_rows_are_skipped_in_cade_csv(tmp_path):
    path = tmp_path / "cade.csv"
    path.write_bytes(_with_blank_rows(CADE_BYTES))
    assert np.array_equal(load_cade_csv(path).values, _cade().values)


def test_blank_rows_are_skipped_in_problem_files(tmp_path):
    for name, data in PROBLEM_BYTES.items():
        (tmp_path / name).write_bytes(_with_blank_rows(data))
    back = load_problem(tmp_path)
    assert np.array_equal(back.costs, _problem().costs) and back.eps_dt == 0.25


def _covariate_text(feats) -> str:
    header = ",".join(f"x{i}" for i in range(1, 26))
    return "\n".join([header] + [",".join(repr(float(v)) for v in row) for row in feats]) + "\n"


def test_blank_rows_are_skipped_in_covariate_csv(tmp_path):
    feats = _dataset().covariates.features
    clean, blank = tmp_path / "clean.csv", tmp_path / "blank.csv"
    clean.write_text(_covariate_text(feats))
    blank.write_text("\n  \n" + _covariate_text(feats).replace("\n", "\n\t,  \n", 1) + "\n")
    assert np.array_equal(load_covariates(blank).features, load_covariates(clean).features)


# ---------------------------------------------------------------------------
# format errors name path:line; content errors keep their owner's type
# ---------------------------------------------------------------------------

def test_covariate_parse_and_binary_errors_name_the_same_line(tmp_path):
    feats = _dataset().covariates.features.copy()
    feats[1, 7] = 3.0  # x8, a binary column, on file line 3
    path = tmp_path / "cov.csv"
    path.write_text(_covariate_text(feats))
    with pytest.raises(CovariateError, match=r"cov\.csv:3: column 8 is a binary column") as exc:
        load_covariates(path)
    assert "np.float64(" not in str(exc.value) and "holds 3.0" in str(exc.value)

    path.write_text(_covariate_text(feats).replace("3.0", "oops"))
    with pytest.raises(CsvFormatError, match=r"cov\.csv:3, column 8: cannot parse 'oops'"):
        load_covariates(path)


def _edit_bytes(path, old: bytes, new: bytes):
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("cade.csv", b"0,0.0,0.1,", b"0,0.0,x,", r"cade\.csv:2, column 3: cannot parse 'x'"),
        ("cost.csv", b"1,0.0,0.25,", b"1,0.0,x,", r"cost\.csv:3, column 3: cannot parse 'x'"),
        ("cost.csv", b"dose_1.0", b"dose_one", r"cost\.csv:1, column 4: cannot parse 'one'"),
        ("meta.csv", b"0,1.5,0,", b"0,1.5,x,", r"meta\.csv:2, column 3: cannot parse 'x'"),
        ("meta.csv", b",true\r\n1,", b",yes\r\n1,", r"meta\.csv:2, column 7: cannot parse 'yes'"),
        ("cade.csv", b"entity,", b"id,", r"cade\.csv:1: unexpected header"),
        ("meta.csv", b"eps_do,", b"eps_d0,", r"meta\.csv:1: unexpected header"),
        ("cost.csv", b"\r\n1,", b"\r\n2,", r"cost\.csv:3: entity id '2', expected 1"),
        ("meta.csv", b"0.25,disabled,true\r\n1", b"true\r\n1", r"meta\.csv:2: 5 cells, expected 7"),
        ("cade.csv", b"\r\n0,0.0", b"\r\n0,0.0,0.0", r"cade\.csv:2: 5 cells, expected 4"),
    ],
)
def test_problem_files_refuse_unreadable_bytes_with_csv_format_error(
    tmp_path, name, old, new, message
):
    save_problem(_problem(), tmp_path)
    _edit_bytes(tmp_path / name, old, new)
    with pytest.raises(CsvFormatError, match=message):
        load_problem(tmp_path)


@pytest.mark.parametrize("name", ["cade.csv", "cost.csv", "meta.csv"])
def test_problem_file_without_data_rows_is_a_format_error(tmp_path, name):
    save_problem(_problem(), tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes().split(b"\r\n")[0] + b"\r\n")
    with pytest.raises(CsvFormatError, match=rf"{name}: no data rows"):
        load_problem(tmp_path)


def test_dataset_csv_format_errors(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_bytes(DATASET_BYTES.replace(b"x25,a", b"x25,group"))
    with pytest.raises(CsvFormatError, match=r"dataset\.csv:1: unexpected header"):
        load_dataset(path)
    path.write_bytes(DATASET_BYTES.replace(b",1,0.25,0.0\r\n", b",1,0.25\r\n"))
    with pytest.raises(CsvFormatError, match=r"dataset\.csv:2: 27 cells, expected 28"):
        load_dataset(path)


@pytest.mark.parametrize(
    "row, message",
    [(b"0,0.5,0.1,", "dose-0 column must be exactly zero"), (b"0,0.0,nan,", "dose effects must lie in")],
    ids=["dose-0", "nan-effect"],
)
def test_load_cade_csv_names_the_file_of_a_refused_matrix(tmp_path, row, message):
    path = tmp_path / "cade.csv"
    path.write_bytes(CADE_BYTES.replace(b"0,0.0,0.1,", row))
    with pytest.raises(ValueError, match=re.escape(f"cade.csv: {message}")):
        load_cade_csv(path)


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("meta.csv", b"1,0.5,1,", b"1,0.5,2,", "groups must be 0/1"),
        ("meta.csv", b"1,0.5,1,", b"1,nan,1,", "benefits must be finite"),
        ("cost.csv", b"1,0.0,0.25,", b"1,0.0,nan,", "costs must be finite and nonnegative"),
    ],
    ids=["group-2", "nan-benefit", "nan-cost"],
)
def test_load_problem_names_the_directory_of_a_refused_problem(tmp_path, name, old, new, message):
    save_problem(_problem(), tmp_path)
    _edit_bytes(tmp_path / name, old, new)
    with pytest.raises(AllocError, match=re.escape(f"{tmp_path}: {message}")) as exc:
        load_problem(tmp_path)
    assert not isinstance(exc.value, CsvFormatError)


def test_load_dataset_names_the_file_of_a_refused_dataset(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_bytes(DATASET_BYTES.replace(b",1,0.25,0.0\r\n", b",1,1.25,0.0\r\n"))
    with pytest.raises(ValueError, match=r"dataset\.csv: doses must lie in \[0, 1\]"):
        load_dataset(path)
    path.write_bytes(DATASET_BYTES.replace(b",1,0.25,0.0\r\n", b",0,0.25,0.0\r\n"))
    with pytest.raises(CovariateError, match=r"dataset\.csv: group column does not match"):
        load_dataset(path)


def test_content_errors_keep_their_owner_type_and_name_the_file(tmp_path):
    save_problem(_problem(), tmp_path)
    _edit_bytes(tmp_path / "meta.csv", b"1,0.5,1,1.25,", b"1,0.5,1,2.5,")
    with pytest.raises(AllocError, match=r"meta\.csv:3: budget/eps") as exc:
        load_problem(tmp_path)
    assert not isinstance(exc.value, CsvFormatError)

    path = tmp_path / "cov.csv"
    path.write_text("\n".join(",".join(["0.5"] * 24) for _ in range(3)) + "\n")
    with pytest.raises(CovariateError, match=r"cov\.csv:1: expected >= 25 columns, got 24"):
        load_covariates(path)
