"""`qequil bounds` runs every BLAS and LAPACK call on the calling thread: its
series GEMMs stay under OpenBLAS's threading limit and its trial spectra
come from eigenvalues alone. So its artifacts are the same bytes at one and
at two OpenBLAS threads, and with two the worker thread takes no CPU time
across ``cli.main``. `figure3`, `gaussian` and `haar` also write the same
bytes at both thread counts. Each run is a fresh interpreter, because
OpenBLAS reads its thread count when numpy loads it. `haar` also writes the
same bytes pinned to one CPU, where its battery runs in process, as on every
usable CPU, where it runs on a process pool."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qequil

SRC = str(Path(qequil.__file__).resolve().parents[1])

# Ticks (utime + stime, in clock ticks) of every thread but the main one,
# across cli.main, after a pause that lets the workers settle after import.
PROBE = """
import json, os, sys, time
import qequil.cli

def worker_ticks():
    total, workers = 0, 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total, workers = total + int(fields[11]) + int(fields[12]), workers + 1
    return total, workers

time.sleep(0.5)
before, workers = worker_ticks()
code = qequil.cli.main(sys.argv[1:])
after, _ = worker_ticks()
print(json.dumps({"code": code, "workers": workers, "ticks": after - before}))
"""


def _env(threads):
    return {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def _digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def _run_bounds(out, threads):
    proc = subprocess.run([sys.executable, "-c", PROBE, "bounds", "--out", str(out),
                           "--set", "trials=12"],
                          env=_env(threads), capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1]), _digests(out)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_bounds_stays_on_one_blas_thread(tmp_path):
    one, one_digests = _run_bounds(tmp_path / "one", 1)
    two, two_digests = _run_bounds(tmp_path / "two", 2)
    if two["workers"] == 0:
        pytest.skip("numpy's OpenBLAS runs a single thread here")
    assert one["code"] == two["code"] == 0
    assert len(one_digests) == 4 and one_digests == two_digests
    assert two["ticks"] <= 1


@pytest.mark.parametrize("argv, files", [
    (["figure3", "--set", "levels=20", "--set", "samples=257"], 3),
    (["gaussian"], 2),
    (["haar", "--set", "samples=50", "--set", "battery_scenarios=3",
      "--set", "battery_samples=50", "--set", "twirl_samples=200"], 3)],
    ids=["figure3", "gaussian", "haar"])
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, argv, files):
    # small sizes, gaussian at its defaults (a fraction of a second); each
    # run must exit 0
    digests = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "qequil.cli", *argv, "--out", str(out)],
                       env=_env(threads), capture_output=True, timeout=120, check=True)
        digests.append(_digests(out))
    assert len(digests[0]) == files and digests[0] == digests[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs and sched_setaffinity")
def test_haar_artifacts_do_not_depend_on_the_cpu_count(tmp_path):
    # the benchmark's smoke sizes, 3 battery scenarios
    argv = ["haar", "--set", "samples=50", "--set", "battery_scenarios=3",
            "--set", "battery_samples=50", "--set", "twirl_samples=200"]
    one_cpu = min(os.sched_getaffinity(0))
    digests = []
    for pin in (lambda: os.sched_setaffinity(0, {one_cpu}), None):
        out = tmp_path / ("pinned" if pin else "unpinned")
        subprocess.run([sys.executable, "-m", "qequil.cli", *argv, "--out", str(out)],
                       env=_env(1), preexec_fn=pin, capture_output=True, timeout=120,
                       check=True)
        digests.append(_digests(out))
    assert len(digests[0]) == 3 and digests[0] == digests[1]
