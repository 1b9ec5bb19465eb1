"""`qequil bounds` runs every BLAS and LAPACK call on the calling thread: its
series GEMMs stay under OpenBLAS's threading limit and its trial spectra
come from eigenvalues alone. So its artifacts are the same bytes at one and
at two OpenBLAS threads, and with two the worker thread takes no CPU time
across ``cli.main``. Each run is a fresh interpreter, because OpenBLAS reads
its thread count when numpy loads it."""
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


def _run_bounds(out, threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE, "bounds", "--out", str(out),
                           "--set", "trials=12"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir())}
    return report, digests


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_bounds_stays_on_one_blas_thread(tmp_path):
    one, one_digests = _run_bounds(tmp_path / "one", 1)
    two, two_digests = _run_bounds(tmp_path / "two", 2)
    if two["workers"] == 0:
        pytest.skip("numpy's OpenBLAS runs a single thread here")
    assert one["code"] == two["code"] == 0
    assert len(one_digests) == 4 and one_digests == two_digests
    assert two["ticks"] <= 1
