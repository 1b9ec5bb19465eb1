"""Import budget of the command line, checked in a fresh interpreter (this
process already holds scipy). ``import qequil.cli`` must not load scipy, and
a default-path experiment must not load a numpy or scipy module inside
``cli.main``: either would add a fixed cost to every CLI run. Only the
``gaussian`` experiment needs scipy, and it loads it on first use."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qequil

SRC = str(Path(qequil.__file__).resolve().parents[1])

PROBE = """
import json, sys
def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)
import qequil
after_package = scipy_loaded()
import qequil.cli
after_cli = scipy_loaded()
before = set(sys.modules)
code = qequil.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "after_package": after_package,
                  "after_cli": after_cli,
                  "new": sorted(set(sys.modules) - before)}))
"""

SMALL = {
    "slow": ["--set", "dim=128", "--set", "snapshots=4", "--set", "samples=32",
             "--set", "long_window_sigma=50.0"],
    "bounds": ["--set", "trials=2", "--set", "t_points=2",
               "--set", "gap_counting_dim=10"],
    "haar": ["--set", "samples=50", "--set", "battery_scenarios=2",
             "--set", "battery_samples=20", "--set", "twirl_samples=50"],
    "figure3": ["--set", "levels=10", "--samples", "65"],
    "gaussian": ["--set", "levels=200", "--set", "sigma_t_grid=[2.0]"],
}


def _probe(tmp_path, experiment):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = [experiment, "--out", str(tmp_path), *SMALL[experiment]]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _heavy(modules):
    return [m for m in modules if m.startswith("numpy.") or m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("experiment", ["slow", "bounds", "haar", "figure3"])
def test_default_path_loads_no_numpy_or_scipy_module(tmp_path, experiment):
    report = _probe(tmp_path, experiment)
    assert report["code"] == 0
    assert not report["after_package"] and not report["after_cli"]
    assert _heavy(report["new"]) == []


def test_gaussian_loads_scipy_on_first_use(tmp_path):
    report = _probe(tmp_path, "gaussian")
    assert report["code"] == 0
    assert not report["after_cli"]
    assert "scipy.special" in report["new"]
