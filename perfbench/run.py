"""qequil benchmark: CLI experiments at their defaults, each in a fresh
interpreter, run closed-loop with one client.

    python3 perfbench/run.py --workload slow-d2048 --seed 20240811 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced
    python3 perfbench/run.py --smoke    # the same on tiny configs, in seconds

Each iteration starts ``perfbench/child.py``, which imports ``qequil.cli``
(``setup_s``), calls ``qequil.cli.main`` (``wall_s``) and reads its own peak
RSS (``peak_rss_mb``). An untraced run passes ``--seed`` to the CLI once,
then cycles through a fixed panel of CLI seeds (see ``panel_seeds``) until
``--seconds`` have passed; ``wall_s`` and ``peak_rss_mb`` are means over the
panel, ``setup_s`` the median over all iterations. Every iteration's
artifacts are checked: exit code, no ``failures.json``, the embedded checks
re-read from the artifacts, the expected check counts, and sha256 digests
identical across all iterations at one CLI seed. Each failed check counts in
``failed`` against ``attempted``.

With ``--trace 1`` untraced and traced iterations alternate, all at
``--seed``; the traced ones report the per-layer metrics (see ``tracer.py``)
and are checked for byte-identical artifacts and for removing their wrappers.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DEFAULT_SEED = 20240811
MIN_SETUP_SAMPLES = 5
# The batteries draw their scenarios from the CLI seed, so the work done at one
# seed varies: bounds-battery's wall time differs by a factor of two between
# seeds. Untraced runs therefore time the same panel of CLI seeds whatever
# --seed is, so that every run times the same work; the iteration at --seed
# is gated like the others but timed apart. The CLI offsets its own sub-seeds
# by less than the stride.
SEED_STRIDE = 1000
# Stop starting iterations once one more could push the run past this.
HARD_LIMIT_S = 150.0


# --- workloads and their correctness gates ----------------------------------

def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _failed_rows(rows: list, label: str) -> list:
    return [f"{label} row {i}: holds={r.get('holds')}"
            for i, r in enumerate(rows) if r.get("holds") != "true"]


def _count(label: str, got: int, expected: int) -> list:
    return [] if got == expected else [f"{label}: {got} != expected {expected}"]


def _verify_slow(out: Path, size: dict) -> list:
    s = _json(out / "slow_summary.json")
    failed = [name for name, ok in (
        ("window_floor", s["min_window_value"] >= s["floor"]),
        ("equilibrium_weight", s["trace_omega"] <= s["trace_omega_bound"]),
        # slow_window_check's default ceiling slack
        ("long_time_ceiling", s["long_time_average"] <= s["ceiling"] + 1e-3),
        ("refinement_dominance", s["refinement_holds"] is True)) if not ok]
    return failed + _count("slow.csv rows", len(_csv_rows(out / "slow.csv")),
                           size["samples"])


def _verify_bounds(out: Path, size: dict) -> list:
    s = _json(out / "bounds_summary.json")
    rows = []
    for name in ("fast_equilibration", "purity_chain", "gap_counting"):
        rows += _csv_rows(out / f"{name}_trials.csv")
    return (_failed_rows(rows, "bounds")
            + _count("bounds rows", len(rows), _bounds_checks(size))
            + _count("bounds summary rows", s["rows"], _bounds_checks(size))
            + _count("bounds summary violations", s["violations"], 0))


def _verify_haar(out: Path, size: dict) -> list:
    s = _json(out / "haar_summary.json")
    reports = _json(out / "haar_reports.json")["reports"]
    rows = _csv_rows(out / "haar_battery.csv")
    return ([f"haar report {k}" for k, r in sorted(reports.items()) if r["holds"] is not True]
            + _failed_rows(rows, "haar_battery")
            + _count("haar reports", len(reports), 5)
            + _count("haar battery rows", len(rows), 4 * size["battery_scenarios"])
            + _count("haar summary violations", s["violations"], 0))


def _bounds_checks(size: dict) -> int:
    # two rows (bound, purity chain) per trial and window, plus 6 windows x
    # 3 widths x 2 forms of gap counting
    return 2 * size["trials"] * 12 + 36


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    defaults: dict            # sizes the gate needs, at the CLI's defaults
    smoke: dict               # tiny overrides for --smoke
    artifacts: tuple
    checks: object            # size -> embedded checks per iteration
    verify: object            # (out_dir, size) -> list of failures
    must_fire: str            # per-layer metric that must be > 0 when traced
    panel: int                # CLI seeds timed per run, about 30 s at defaults


WORKLOADS = {w.name: w for w in (
    Workload("slow-d2048", "slow", {"samples": 256}, {"dim": 256},
             ("slow.csv", "slow_summary.json"), lambda size: 4, _verify_slow,
             "measure.residuals_s", panel=5),
    Workload("bounds-battery", "bounds", {"trials": 200}, {"trials": 4},
             ("fast_equilibration_trials.csv", "purity_chain_trials.csv",
              "gap_counting_trials.csv", "bounds_summary.json"),
             _bounds_checks, _verify_bounds, "spectra.window_scans", panel=4),
    Workload("haar-mc", "haar", {"battery_scenarios": 50},
             {"samples": 50, "battery_scenarios": 3, "battery_samples": 50,
              "twirl_samples": 200},
             ("haar_battery.csv", "haar_reports.json", "haar_summary.json"),
             lambda size: 5 + 4 * size["battery_scenarios"], _verify_haar,
             "haar.draws", panel=2),
)}


# --- one workload run --------------------------------------------------------

@dataclass
class Run:
    workload: Workload
    seed: int
    smoke: bool
    workdir: Path
    deadline: float
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # CLI seed -> artifact digests
    setup: list = field(default_factory=list)

    @property
    def size(self) -> dict:
        return {**self.workload.defaults, **(self.workload.smoke if self.smoke else {})}

    def child(self, cli_seed: int = 0, traced: bool = False,
              probe: bool = False) -> dict | None:
        """Start one child interpreter and wait for it; None if it crashed."""
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        result = out.with_suffix(".json")
        argv = [sys.executable, str(CHILD), "--result", str(result)]
        argv += ["--trace"] * traced + ["--probe"] * probe + ["--"]
        if not probe:
            argv += [self.workload.experiment, "--out", str(out), "--seed", str(cli_seed)]
            if self.smoke:
                argv += [f"--set={k}={v}" for k, v in self.workload.smoke.items()]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(5.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.failures.append("child timed out")
            return None
        if not result.exists():
            self.failures.append(f"child crashed (exit {proc.returncode}): "
                                 + proc.stderr.strip()[-400:])
            return None
        res = _json(result)
        if probe:
            out.rmdir()
        else:
            res["out"] = out
        return res

    def iteration(self, cli_seed: int, traced: bool = False) -> dict | None:
        checks = self.workload.checks(self.size)
        self.attempted += checks
        res = self.child(cli_seed, traced=traced)
        if res is None:
            self.failures += ["embedded checks unverified"] * checks
            return None
        out = res["out"]
        res["seed"] = cli_seed
        self.setup.append(res["setup_s"])
        tag = "traced " * traced
        if res["rc"] != 0:
            self.failures.append(f"{tag}exit code {res['rc']}")
        if (out / "failures.json").exists():
            self.failures.append(f"{tag}failures.json written")
        missing = [a for a in self.workload.artifacts if not (out / a).exists()]
        if missing:
            self.failures.append(f"{tag}missing artifacts {missing}")
            self.failures += ["embedded checks unverified"] * checks
        else:
            try:
                self.failures += self.workload.verify(out, self.size)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.failures.append(f"{tag}unreadable artifacts: {exc!r}")
                self.failures += ["embedded checks unverified"] * checks
            digests = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                       for a in self.workload.artifacts}
            if self.digests.setdefault(cli_seed, digests) != digests:
                self.failures.append(f"{tag}artifacts differ from the first run at seed {cli_seed}")
        shutil.rmtree(out)
        return res


def panel_seeds(workload: Workload) -> list:
    return [DEFAULT_SEED + SEED_STRIDE * (k + 1) for k in range(workload.panel)]


def _quartiles(values: list) -> str:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return f"median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def run_untraced(run: Run, seconds: float, spec: dict) -> dict:
    """--seed once, then the panel over and over. The first panel seed comes
    round again before the run ends, so its digests are compared."""
    panel = panel_seeds(run.workload)
    schedule = itertools.chain([run.seed], itertools.cycle(panel))
    start = time.monotonic()
    iters = []
    for cli_seed in schedule:
        t0 = time.monotonic()
        res = run.iteration(cli_seed)
        if res is None:
            break
        iters.append(res)
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if ((len(iters) >= len(panel) + 2 and elapsed >= seconds)
                or elapsed + took > HARD_LIMIT_S):
            break
    while iters and len(run.setup) < MIN_SETUP_SAMPLES:
        probe = run.child(probe=True)
        if probe is None:
            break
        run.setup.append(probe["setup_s"])
    timed = iters[1:]
    if {r["seed"] for r in timed} != set(panel):
        return {}
    print(f"  --seed {run.seed}: wall_s {iters[0]['wall_s']:.6g} s, "
          f"peak_rss_mb {iters[0]['peak_rss_mb']:.6g} MB (not in the metrics)")
    print(f"  panel seeds {panel}: {len(timed)} iterations; wall_s and peak_rss_mb "
          "are means over the panel of per-seed means, setup_s the median over "
          "all iterations")
    metrics = {"setup_s": statistics.median(run.setup)}
    for key in ("wall_s", "peak_rss_mb"):
        per_seed = _per_seed(timed, key)
        metrics[key] = statistics.fmean(per_seed)
        print(f"  {key:<26} {metrics[key]:14.6g}  per seed: {_quartiles(per_seed)}; "
              f"per iteration: {_quartiles([r[key] for r in timed])}")
    print(f"  {'setup_s':<26} {metrics['setup_s']:14.6g}  {_quartiles(run.setup)}")
    return metrics


def _per_seed(iters: list, key: str) -> list:
    """One value per CLI seed (the mean of its iterations), so that a seed
    that came round twice does not weigh double."""
    by_seed = {}
    for r in iters:
        by_seed.setdefault(r["seed"], []).append(r[key])
    return [statistics.fmean(v) for v in by_seed.values()]


def run_traced(run: Run, seconds: float, spec: dict) -> dict:
    start = time.monotonic()
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        res = run.iteration(run.seed, traced=len(traced) < len(plain))
        if res is None:
            break
        (traced if "layers" in res else plain).append(res)
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if (traced and elapsed >= seconds) or elapsed + took > HARD_LIMIT_S:
            break
    if not traced:
        return {}
    for res in traced:
        if res["patched"] == 0:
            run.failures.append("no tracing wrappers were installed")
        if res["leftover_wrappers"]:
            run.failures.append(f"wrappers left installed: {res['leftover_wrappers'][:5]}")
    counts = [{k: v for k, v in r["layers"].items() if isinstance(v, int)} for r in traced]
    if any(c != counts[0] for c in counts):
        run.failures.append("traced counts differ between iterations at one seed")
    layers = {k: statistics.median(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    if not layers[run.workload.must_fire] > 0:
        run.failures.append(f"span {run.workload.must_fire} did not fire")
    sys.path.insert(0, str(HERE))
    from tracer import COMPUTED
    print(f"  traced iterations n={len(traced)}, untraced n={len(plain)}; "
          "times are medians")
    for m in spec["per_layer"]:
        note = " (computed)" if m["name"] in COMPUTED else ""
        print(f"  {m['name']:<26} {layers[m['name']]:14.6g} {m['unit']}{note}")
    return layers


def _environment(run: Run) -> dict:
    probe = run.child(probe=True)  # also warms the bytecode cache
    env = probe["env"] if probe else {}
    env["git_commit"] = None
    if (ROOT / ".git").exists():  # a plain checkout has none; look no higher
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qequil").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = src.hexdigest()
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spec: dict, workdir: Path) -> tuple:
    wl = WORKLOADS[name]
    run = Run(wl, seed, smoke, workdir, deadline=time.monotonic() + HARD_LIMIT_S + 20)
    env = _environment(run)
    print(json.dumps({"env": {**env, "workload": name, "seed": seed,
                              "trace": int(trace), "smoke": smoke,
                              "seconds": seconds}}, sort_keys=True))
    print(f"{name} ({'traced' if trace else 'untraced'}, seed {seed}):")
    metrics = (run_traced if trace else run_untraced)(run, seconds, spec)
    failed = len(run.failures)
    print(f"  {'checks_failed':<26} {failed:14d} count  of checks={run.attempted}")
    for f in sorted(set(run.failures))[:20]:
        print(f"    FAILED: {f} (x{run.failures.count(f)})")
    for cli_seed, digests in run.digests.items():
        combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode())
        print(json.dumps({"digests": {"workload": name, "seed": cli_seed,
                                      "combined": combined.hexdigest(), **digests}},
                         sort_keys=True))
    return metrics, run.attempted, failed


# --- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: all, untraced then traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs through the same code path")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qequil" / "cli.py").is_file():
        print(f"qequil sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _json(ROOT / "BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(spec["run_seconds"]))
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    metrics, attempted, failed, complete = {}, 0, 0, True
    try:
        for name in names:
            for trace in traces:
                values, n, f = run_workload(name, args.seed, seconds, trace, args.smoke,
                                            spec, workdir)
                attempted, failed = attempted + n, failed + f
                wanted = spec["per_layer" if trace else "end_to_end"]
                complete = complete and all(m["name"] in values for m in wanted)
                prefix = "" if len(names) == 1 else f"{name}."
                metrics.update({f"{prefix}{m['name']}": {"value": values[m["name"]],
                                                         "unit": m["unit"]}
                                for m in wanted if m["name"] in values})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_out").rmdir()
        except OSError:
            pass
    if not complete or attempted == 0:
        print("no complete measurement; see FAILED lines above", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
