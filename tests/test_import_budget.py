"""Import budget of the command line, checked in a fresh interpreter in which
scipy cannot be imported, though it is installed for the tests: numpy is the
package's only runtime dependency. Every experiment must run to exit 0 so,
and none may load a numpy or scipy module inside ``cli.main``, which would
add a fixed cost to every CLI run."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qequil
from qequil.states import save_state

from helpers import poisson_spectrum, random_mixed

SRC = str(Path(qequil.__file__).resolve().parents[1])

PROBE = """
import json, sys
sys.modules["scipy"] = None
import qequil.cli
before = set(sys.modules)
code = qequil.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""

SMALL = {
    # 512 levels x 256 samples: both grids take the NUFFT path; figure3 and
    # bounds take the block path
    "slow": ["--set", "dim=512", "--set", "snapshots=4", "--set", "samples=256"],
    "bounds": ["--set", "trials=2", "--set", "t_points=2",
               "--set", "gap_counting_dim=10"],
    "haar": ["--set", "samples=50", "--set", "battery_scenarios=2",
             "--set", "battery_samples=20", "--set", "twirl_samples=50"],
    "figure3": ["--set", "levels=10", "--set", "samples=65"],
    "gaussian": ["--set", "levels=200", "--set", "sigma_t_grid=[2.0]"],
    # the file-reading paths: a mixed state's factor and a spectrum
    "eta": ["--set", "spectrum={dir}/spec.json", "--set", "state={dir}/state.json"],
    "spectrum-info": ["--set", "spectrum={dir}/spec.json", "--set", "epsilon=0.5"],
}


def _probe(tmp_path, experiment):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    spec = poisson_spectrum(np.random.default_rng(3), 12)
    spec.save(tmp_path / "spec.json")
    save_state(random_mixed(np.random.default_rng(4), spec), tmp_path / "state.json",
               tmp_path / "spec.json")
    argv = [experiment, "--out", str(tmp_path / "out"),
            *(a.replace("{dir}", str(tmp_path)) for a in SMALL[experiment])]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _heavy(modules):
    return [m for m in modules if m.startswith("numpy.") or m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_default_path_loads_no_numpy_or_scipy_module(tmp_path, experiment):
    report = _probe(tmp_path, experiment)
    assert report["code"] == 0
    assert _heavy(report["new"]) == []
