"""The process pool of the Haar battery's scenarios and of the measured side
of the ``bounds`` trials: it returns its tasks' results in task order, a
task's error reaches the caller as raised, a worker that dies ends the
command line with one line, and the pooled ``bounds`` and ``haar`` tables
equal the in-process ones column for column, in value, type and dtype. No
worker outlives a call. The tests
start at most two workers (see ``conftest.py``); that the artifacts of both
experiments do not depend on the CPU count is checked in
``test_blas_threads.py``."""
import multiprocessing
import os

import numpy as np
import pytest

from qequil import batteries, cli

from helpers import POOLED, needs_pool

HAAR_SMALL = ["--set", "samples=50", "--set", "battery_scenarios=2",
              "--set", "battery_samples=50", "--set", "twirl_samples=200"]
BOUNDS_SMALL = ["--set", "trials=4", "--set", "gap_counting_dim=12"]


def _square_or_fail(x):
    if x == 3:
        raise ValueError(f"task {x} cannot run")
    return x * x, os.getpid()


def _die(*_):
    os._exit(1)


def test_pool_keeps_the_task_order():
    results = batteries._map_in_processes(_square_or_fail, [(x,) for x in (5, 1, 4, 2)])
    assert [square for square, _ in results] == [25, 1, 16, 4]
    # in the workers where the pool runs, in this process where it does not
    assert (os.getpid() in {pid for _, pid in results}) != POOLED
    assert multiprocessing.active_children() == []


def test_task_error_reaches_the_caller_as_raised():
    with pytest.raises(ValueError, match=r"^task 3 cannot run$"):
        batteries._map_in_processes(_square_or_fail, [(2,), (3,)])
    assert multiprocessing.active_children() == []


def _assert_dead_worker_ends_the_run(monkeypatch, tmp_path, experiment, task, argv):
    monkeypatch.setattr(batteries, task, _die)
    with pytest.raises(SystemExit) as info:
        cli.main([experiment, "--out", str(tmp_path / "out"), *argv])
    message = str(info.value.code)
    assert message.startswith(f"{experiment}: A process in the process pool was terminated")
    assert "\n" not in message
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []


@needs_pool
def test_dead_worker_ends_the_run_with_one_line(monkeypatch, tmp_path):
    _assert_dead_worker_ends_the_run(monkeypatch, tmp_path, "haar", "_haar_scenario",
                                     HAAR_SMALL)


@needs_pool
def test_dead_bounds_worker_ends_the_run_with_one_line(monkeypatch, tmp_path):
    _assert_dead_worker_ends_the_run(monkeypatch, tmp_path, "bounds", "_measure_trial",
                                     BOUNDS_SMALL)


# The numpy dtype kind of every array column that is not float64: counts and
# indices are integers, verdicts booleans. List columns hold strings.
COLUMN_KINDS = {"K": "i", "d": "i", "levels": "i", "N": "i", "trial": "i", "scenario": "i",
                "holds": "b"}


@pytest.mark.parametrize("battery", [
    lambda: batteries.fast_equilibration_battery(20240811, 5, 6, 8),
    lambda: {"haar_battery": batteries.haar_battery(20240811, 3, 50)}],
    ids=["bounds", "haar"])
def test_pooled_tables_equal_the_in_process_ones(monkeypatch, battery):
    tables = []
    for cpus in (1, 2):
        monkeypatch.setattr(batteries, "_usable_cpus", lambda: cpus)
        tables.append(battery())
    in_process, pooled = tables
    assert list(in_process) == list(pooled)
    for name, table in in_process.items():
        assert list(table) == list(pooled[name])
        for column, values in table.items():
            other = pooled[name][column]
            assert type(values) is type(other), (name, column)
            if isinstance(values, np.ndarray):
                assert values.dtype == other.dtype, (name, column)
                assert values.dtype.kind == COLUMN_KINDS.get(column, "f"), (name, column)
            else:
                assert {type(cell) for cell in values + other} == {str}, (name, column)
            assert np.array_equal(values, other), (name, column)
    assert multiprocessing.active_children() == []
