"""The mutant ledger: faults that the experiments' own verdicts must catch.

Each entry names a source file of the package, a text that occurs in it
exactly once, its replacement, an experiment with small ``--set`` sizes and
the checks that must fail. The test copies the package to a temporary
directory, applies the one replacement there, runs the command line on the
copy in a fresh interpreter and asserts exit code 1 with every named check
in ``failures.json``. A refactor that removes a mutant's text fails here
loudly, so the entry is moved to the new code rather than lost.

``SURVIVORS`` lists the known faults that no verdict catches yet, in the
same form. Each is expected to fail its test (the run exits 0); the day a
verdict kills one, its test passes unexpectedly and fails the suite, and
the entry moves to ``MUTANTS`` with the checks that kill it.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qequil

PACKAGE = Path(qequil.__file__).resolve().parent

# name: (file, text, replacement, experiment and sizes, checks that must fail)
MUTANTS = {
    # omega dropped from the partition traces: each sample's distinguishability
    # becomes tr(P rho_t) summed over outcomes, not its distance from omega
    "haar-partition-without-omega": (
        "haar.py", "cols = state_t.column_traces(f) - omega.column_traces(f)",
        "cols = state_t.column_traces(f)",
        ["haar", "--set", "samples=50", "--set", "battery_scenarios=3",
         "--set", "battery_samples=50", "--set", "twirl_samples=200"],
        {"mean_sq_d8_k3", "initial_floor_d12_k4", "n_outcome_d16_n4", "haar_battery"}),
    # the block path's amplitudes summed unsquared: tr(P rho_t) is no longer
    # a sum of |amp|^2
    "series-without-square": (
        "measure.py", "sq = amp.view(float)\n                np.square(sq, out=sq)\n",
        "sq = amp.view(float)\n",
        ["figure3", "--set", "levels=10", "--set", "samples=65"],
        {"revival", "average_at_revival"}),
    # snapshots evolved backwards: the subspace holds |psi(-j tau)>, which the
    # forward evolution leaves at once
    "snapshots-backwards": (
        "constructions.py", "times = tau * np.arange(count)",
        "times = -tau * np.arange(count)",
        ["slow", "--set", "dim=256"],
        {"window_floor"}),
    # the long window never evolves: every time of its grid reads tr(P rho_0),
    # so the average stays at the initial distinguishability
    "slow-long-window-frozen": (
        "constructions.py", "expectation_series(proj, state, grid.times)",
        "expectation_series(proj, state, np.zeros_like(grid.times))",
        ["slow", "--set", "dim=256"],
        {"long_time_ceiling"}),
}


BOUNDS_SMALL = ["bounds", "--set", "trials=4", "--set", "gap_counting_dim=12"]

# Faults that every verdict misses; each runs to exit 0 on bounds.
SURVIVORS = {
    # the deviation taken from tr((1 - P) omega), not tr(P omega): the measured
    # averages stay far below the two-outcome bound
    "complement-swap": (
        "batteries.py", "expectation_series(proj, state, grid) - p_omega",
        "expectation_series(proj, state, grid) - (1 - p_omega)",
        BOUNDS_SMALL, {"fast_equilibration"}),
    # the two-outcome bound without its constant c, still about 30x loose
    "drop-c": (
        "bounds.py", "fast_equilibration_constant() * np.sqrt(", "np.sqrt(",
        BOUNDS_SMALL, {"fast_equilibration"}),
    # every grid of a sweep written from the sweep's start: the grids
    # overwrite each other there, and the rest of the sweep stays 0
    "sweep-offset": (
        "measure.py", "values[key][offsets[g] + first:offsets[g] + first + t.size]",
        "values[key][first:first + t.size]",
        BOUNDS_SMALL, {"fast_equilibration"}),
}
ENTRIES = {**MUTANTS, **SURVIVORS}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_mutant_text_occurs_once(name):
    file_name, text, *_ = ENTRIES[name]
    assert (PACKAGE / file_name).read_text().count(text) == 1


@pytest.mark.parametrize("name", [
    *sorted(MUTANTS),
    *(pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="no verdict catches it yet"))
      for name in sorted(SURVIVORS))])
def test_mutant_fails_its_checks(tmp_path, name):
    file_name, text, replacement, argv, killed = ENTRIES[name]
    copy = tmp_path / "src" / "qequil"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / file_name).read_text()
    assert source.count(text) == 1, f"{name}: its text must occur once in {file_name}"
    (copy / file_name).write_text(source.replace(text, replacement))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(copy.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "qequil.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    failed = {record["check"] for record in
              json.loads((out / "failures.json").read_text())["failures"]}
    assert killed <= failed
