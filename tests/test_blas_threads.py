"""`qequil bounds` runs every BLAS and LAPACK call on the calling thread: its
series GEMMs stay under OpenBLAS's threading limit and its trial spectra
come from eigenvalues alone. So its artifacts are the same bytes at one and
at two OpenBLAS threads, and with two the worker thread takes no CPU time
across ``cli.main``. That probe runs the trials in process: a fork shuts
OpenBLAS's worker threads down in the forking process, so where the trials
run on the process pool the thread it watches is gone before the trials'
GEMMs run, and those run in the pool's workers, out of its sight. A second
probe watches those workers: where the pool runs, at two OpenBLAS threads,
each worker's threads but its main one take at most one tick across its
``_measure_trial`` calls.
`figure3`, `gaussian` and `haar` also write the same bytes at both thread
counts. Each run is a fresh interpreter, because OpenBLAS reads its thread
count when numpy loads it. `haar` and `bounds` also write the same bytes
pinned to one CPU, where their trials run in process, as on every usable
CPU, where they run on a process pool."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qequil

from helpers import needs_pool

SRC = str(Path(qequil.__file__).resolve().parents[1])

# Ticks (utime + stime, in clock ticks) of each thread of this process but
# the main one, by thread id.
THREAD_TICKS = """
import json, os, sys, time
import qequil.cli

def thread_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks[tid] = int(fields[11]) + int(fields[12])
    return ticks
"""

# The ticks of those threads across cli.main, after a pause that lets the
# workers settle after import.
PROBE = THREAD_TICKS + """
qequil.batteries._usable_cpus = lambda: 1  # the trials in process, see above
time.sleep(0.5)
before = thread_ticks()
code = qequil.cli.main(sys.argv[1:])
after = thread_ticks()
print(json.dumps({"code": code, "workers": len(before),
                  "ticks": sum(after.values()) - sum(before.values())}))
"""

# The ticks of those threads in each pool worker across its _measure_trial
# calls, summed by worker: each call appends its share to a file named by
# its worker's process id in the directory argv[1]. Threads that start
# during a call count from zero.
POOL_PROBE = THREAD_TICKS + """
from qequil import batteries

measure_trial = batteries._measure_trial

def probed_trial(*args):
    before = thread_ticks()
    result = measure_trial(*args)
    ticks = sum(t - before.get(tid, 0) for tid, t in thread_ticks().items())
    with open(os.path.join(sys.argv[1], str(os.getpid())), "a") as fh:
        fh.write(f"{ticks}\\n")
    return result

usable = batteries._usable_cpus
batteries._usable_cpus = lambda: min(usable(), 2)
batteries._measure_trial = probed_trial
code = qequil.cli.main(sys.argv[2:])
calls = {name: [int(line) for line in open(os.path.join(sys.argv[1], name))]
         for name in os.listdir(sys.argv[1])}
print(json.dumps({"code": code, "pid": os.getpid(), "calls": calls}))
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


@needs_pool
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_pool_workers_stay_on_one_blas_thread(tmp_path):
    calls = tmp_path / "calls"
    calls.mkdir()
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE, str(calls), "bounds",
                           "--out", str(tmp_path / "out"), "--set", "trials=12"],
                          env=_env(2), capture_output=True, text=True, timeout=120,
                          check=True)
    run = json.loads(proc.stdout.splitlines()[-1])
    assert run["code"] == 0
    workers = run["calls"]
    assert workers and str(run["pid"]) not in workers
    assert sum(len(ticks) for ticks in workers.values()) == 12
    assert all(sum(ticks) <= 1 for ticks in workers.values()), workers


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
@pytest.mark.parametrize("argv, files", [
    # the benchmark's smoke sizes, 3 battery scenarios
    (["haar", "--set", "samples=50", "--set", "battery_scenarios=3",
      "--set", "battery_samples=50", "--set", "twirl_samples=200"], 3),
    (["bounds", "--set", "trials=12"], 4)],
    ids=["haar", "bounds"])
def test_artifacts_do_not_depend_on_the_cpu_count(tmp_path, argv, files):
    one_cpu = min(os.sched_getaffinity(0))
    digests = []
    for pin in (lambda: os.sched_setaffinity(0, {one_cpu}), None):
        out = tmp_path / ("pinned" if pin else "unpinned")
        subprocess.run([sys.executable, "-m", "qequil.cli", *argv, "--out", str(out)],
                       env=_env(1), preexec_fn=pin, capture_output=True, timeout=120,
                       check=True)
        digests.append(_digests(out))
    assert len(digests[0]) == files and digests[0] == digests[1]
