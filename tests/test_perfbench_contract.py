"""The benchmark's traced run, in process: for every workload of
``perfbench/run.py``, the CLI at the benchmark's seed and smoke sizes under
``perfbench/tracer.py`` must exit 0, pass the workload's own artifact checks,
fire its gated span and leave no wrapper installed. A library change that
breaks the tracer's hooks (a renamed argument, a lost cache slot) fails here
rather than as a failed benchmark run. The files under ``perfbench/`` are
only read."""
import os
import time

import pytest

from qequil import cli

from helpers import load_perfbench

run = load_perfbench("run")
tracer = load_perfbench("tracer")


def _traced_smoke_run(tmp_path, name) -> dict:
    """The traced CLI run of a workload at its smoke sizes, checked against
    the benchmark's gates; returns its per-layer metrics."""
    workload = run.WORKLOADS[name]
    out = tmp_path / "out"
    argv = [workload.experiment, "--out", str(out), "--seed", str(run.DEFAULT_SEED)]
    argv += [f"--set={k}={v}" for k, v in workload.smoke.items()]
    trace = tracer.Tracer()
    patches = tracer.install(trace)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall_s = time.perf_counter() - start
        tracer.uninstall(patches)
    assert rc == 0
    assert patches
    assert tracer.leftover_wrappers() == []
    assert workload.verify(out, {**workload.defaults, **workload.smoke}) == []
    artifact_bytes = sum(os.path.getsize(out / f) for f in os.listdir(out))
    return trace.layer_metrics(wall_s, artifact_bytes)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_smoke_run_passes_the_benchmark_gates(tmp_path, name):
    assert _traced_smoke_run(tmp_path, name)[run.WORKLOADS[name].must_fire] > 0


def test_bounds_series_calls_are_traced(tmp_path):
    # every series of the bounds battery goes through expectation_series,
    # the entry point the tracer's series group wraps
    assert _traced_smoke_run(tmp_path, "bounds-battery")["measure.series_calls"] > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_experiment_makes_the_checks_the_benchmark_counts(name):
    """The benchmark counts a workload's failed operations against
    ``workload.checks(size)``; the experiment must list exactly that many
    checks, and none of them may fail."""
    workload = run.WORKLOADS[name]
    config = {**cli.DEFAULTS[workload.experiment], **workload.smoke,
              "seed": run.DEFAULT_SEED}
    result = cli.RUNNERS[workload.experiment](config)
    assert len(result.checks) == workload.checks({**workload.defaults, **workload.smoke})
    assert result.failures == []
