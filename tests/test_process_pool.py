"""The Haar battery's process pool: it returns its tasks' results in task
order, a task's error reaches the caller as raised, and a worker that dies
ends the command line with one line. No worker outlives a call. The tests
start at most two workers (see ``conftest.py``); that the battery's
artifacts do not depend on the CPU count is checked in
``test_blas_threads.py``."""
import multiprocessing
import os
import sys

import pytest

from qequil import batteries, cli

POOLED = (batteries._usable_cpus() >= 2 and sys.version_info < (3, 12)
          and "fork" in multiprocessing.get_all_start_methods())
needs_pool = pytest.mark.skipif(not POOLED, reason="the pool runs in process here: one "
                                "usable CPU, no fork start method, or CPython 3.12+")

HAAR_SMALL = ["--set", "samples=50", "--set", "battery_scenarios=2",
              "--set", "battery_samples=50", "--set", "twirl_samples=200"]


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


@needs_pool
def test_dead_worker_ends_the_run_with_one_line(monkeypatch, tmp_path):
    monkeypatch.setattr(batteries, "_haar_scenario", _die)
    with pytest.raises(SystemExit) as info:
        cli.main(["haar", "--out", str(tmp_path / "out"), *HAAR_SMALL])
    message = str(info.value.code)
    assert message.startswith("haar: A process in the process pool was terminated")
    assert "\n" not in message
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []
