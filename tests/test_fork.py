"""The fork-map helper: item order on both paths and a prompt stop on error."""

import multiprocessing
import time

import pytest

from doseuplift._fork import fork_map

from .test_forest import _set_cpus, pools  # noqa: F401  (pools is a fixture)


def _square_after(item, unit):
    time.sleep(unit * (3 - item % 3))  # later items often finish first
    return item * item


def test_fork_map_returns_results_in_item_order(monkeypatch, pools):  # noqa: F811
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        assert fork_map(_square_after, range(7), 0.01) == [i * i for i in range(7)]
    assert fork_map(_square_after, [5], 0.0) == [25]  # one item takes the serial loop
    assert fork_map(_square_after, [], 0.0) == []
    assert pools == [2]
    assert multiprocessing.active_children() == []


def _fail_first_then_mark(item, marker_dir):
    if item == 0:
        raise FloatingPointError("item 0 failed")
    time.sleep(0.1)
    (marker_dir / str(item)).touch()


def test_fork_map_stops_handing_out_items_after_a_raise(tmp_path, monkeypatch, pools):  # noqa: F811
    _set_cpus(monkeypatch, 2)
    with pytest.raises(FloatingPointError, match="item 0 failed"):
        fork_map(_fail_first_then_mark, range(40), tmp_path)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    # only the items already queued to the two workers ran
    assert len(list(tmp_path.iterdir())) <= 10
