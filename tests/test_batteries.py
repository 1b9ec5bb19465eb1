import sys

import numpy as np
import pytest

from qequil import batteries, cli, spectra
from qequil.batteries import (BatteryReport, gap_counting_battery, haar_battery,
                              fast_equilibration_battery)
from qequil.constructions import random_scenario, slow_window_check, snapshot_subspace

from helpers import per_window_fast_equilibration_battery

SEED = 20240811
# Eight trials at each of these seeds draw pure and mixed states on
# nondegenerate, degenerate and random-matrix spectra (every combination).
ORACLE_SEEDS = (2, 24, 33)
ORACLE_TRIALS = 8


def test_trial_generator_covers_flavors():
    report = fast_equilibration_battery(SEED, trials=24, t_points=2)
    rows = [r for r in report.rows if r["battery"] == "fast_equilibration"]
    labels = {r["label"].split("-")[0] for r in rows}
    assert "random" in labels   # ladder spectra
    assert "trial" in labels    # dense-matrix spectra or rebuilt states
    degenerate = {r["d"] != r["levels"] for r in rows}
    assert True in degenerate   # degenerate levels occur
    assert not report.violations


def test_purity_chain_rows_share_one_set_of_columns():
    # the sigma-matched cap used to be named after its width, which changes
    # with every window, so the CSV header kept it for the first row only
    rows = [r for r in fast_equilibration_battery(SEED, trials=2, t_points=3).rows
            if r["battery"] == "purity_chain"]
    assert len(rows) == 6
    assert all(list(r) == list(rows[0]) for r in rows)
    caps = [k for k in rows[0] if k.startswith("bound_delta_")]
    assert caps == [*(f"bound_delta_{d:g}" for d in batteries.PURITY_CHAIN_DELTAS),
                    "bound_delta_matched"]


def test_fast_equilibration_battery_deterministic():
    a = fast_equilibration_battery(3, trials=3, t_points=3)
    b = fast_equilibration_battery(3, trials=3, t_points=3)
    assert a.rows == b.rows


def test_oracle_seeds_cover_every_trial_kind():
    kinds = set()
    for seed in ORACLE_SEEDS:
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            scenario = batteries._random_trial_scenario(rng)
            spec = scenario.spectrum
            # ladder spectra start at 0; random-matrix ones do not
            flavor = ("random-matrix" if spec.levels[0] != 0.0
                      else "nondegenerate" if spec.is_nondegenerate() else "degenerate")
            kinds.add((scenario.state.is_pure, flavor))
    assert kinds == {(pure, flavor) for pure in (True, False)
                     for flavor in ("nondegenerate", "degenerate", "random-matrix")}


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_battery_matches_per_window_oracle(seed):
    # the battery evaluates a trial's windows together; every value, and its
    # type, must be what the window-by-window scalar calls give
    rows = fast_equilibration_battery(seed, trials=ORACLE_TRIALS).rows
    oracle = per_window_fast_equilibration_battery(seed, trials=ORACLE_TRIALS)
    assert len(rows) == len(oracle) == 2 * 12 * ORACLE_TRIALS
    for got, want in zip(rows, oracle):
        assert list(got) == list(want)
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


def test_empty_battery_is_rejected():
    # no windows, trials, scenarios or samples would leave a battery with no
    # rows, which reads as a pass; a one-level spectrum has no gaps to count
    scenario = random_scenario(SEED, 16)
    sub = snapshot_subspace(scenario, 3, 0.5)
    for call, name, least in (
            (lambda: fast_equilibration_battery(SEED, trials=2, t_points=0),
             "t_points", 1),
            (lambda: fast_equilibration_battery(SEED, trials=0), "trials", 1),
            (lambda: haar_battery(SEED, scenarios=0), "scenarios", 1),
            (lambda: gap_counting_battery(SEED, dim=1), "dim", 2),
            (lambda: slow_window_check(sub, scenario, 3, num_samples=0),
             "num_samples", 1)):
        with pytest.raises(ValueError, match=f"{name} must be at least {least}"):
            call()


def test_bounds_run_scans_windows_under_the_traced_names(monkeypatch):
    """perfbench's traced bounds-battery run requires spectra.window_scans > 0,
    and that counter counts only calls of spectra.max_window_probability and
    spectra.max_window_probability_window; a scan under any other name would
    zero it and fail the benchmark gate."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("qequil")]
    for fname in ("max_window_probability", "max_window_probability_window"):
        original = getattr(spectra, fname)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counted)
    config = {**cli.DEFAULTS["bounds"], "trials": 2, "t_points": 3,
              "gap_counting_dim": 24}
    batteries.run_bounds(config)
    assert len(calls) >= 1


def test_haar_battery_rows_and_determinism():
    a = haar_battery(5, scenarios=4, samples=120)
    b = haar_battery(5, scenarios=4, samples=120)
    assert a.rows == b.rows
    assert len(a.rows) == 4 * 4  # four checks per scenario
    assert not a.violations


def test_constrained_n_outcome_rows_measure_every_outcome():
    # a partition of the initial state's complement into N - 1 parts once
    # gave the N = 2 rows a single outcome, the identity: 10 of these 50
    # rows read 0 with a standard error of 0
    rows = [r for r in haar_battery(SEED).rows if r["name"] == "constrained_n_outcome"]
    assert len(rows) == 50
    assert all(r["mc_stderr"] > 0 for r in rows)


def test_appendix_battery_reports_vacuous_flag():
    report = gap_counting_battery(SEED, dim=24)
    assert all("informative" in row for row in report.rows)
    assert not report.violations


SLOW_BATTERY_SAMPLES = 128


def slow_battery(seed: int, scenarios: int = 20) -> BatteryReport:
    """Snapshot-subspace floor/ceiling checks plus N-outcome refinement
    dominance across a range of dimensions and snapshot counts."""
    report = BatteryReport()
    dims = (256, 512, 1024, 2048)
    counts = (4, 8, 16, 32)
    eps_choices = (0.25, 0.5)
    for idx in range(scenarios):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x510, idx]))
        d = int(dims[idx % len(dims)])
        k = int(counts[int(rng.integers(len(counts)))])
        # keep the guaranteed floor strictly positive and meaningful
        while np.sqrt(k / (d / 2.2)) > 0.5:
            k //= 2
        eps = float(eps_choices[int(rng.integers(2))])
        scenario = random_scenario(int(rng.integers(2 ** 62)), d)
        sub = snapshot_subspace(scenario, k, eps)
        rep = slow_window_check(sub, scenario, 3, num_samples=SLOW_BATTERY_SAMPLES)
        report.rows.append({"scenario": idx, "d": d, "K": k, "eps": eps,
                            "floor": rep.floor, "min_value": rep.worst_value,
                            "ceiling": rep.ceiling, "holds": rep.holds})
    return report


def test_slow_battery_full_sweep():
    # floor and ceiling hold simultaneously across dimensions, snapshot
    # counts, and window parameters
    report = slow_battery(SEED, scenarios=20)
    assert len(report.rows) == 20
    dims = {r["d"] for r in report.rows}
    assert dims == {256, 512, 1024, 2048}
    assert {r["eps"] for r in report.rows} <= {0.25, 0.5}
    assert not report.violations, report.violations[:2]


def test_figure3_checks_fail_on_nan(monkeypatch):
    # a NaN series passes every `x > limit` test; each check must name it
    def nan_series(state, times):
        return np.full(times.size, np.nan)

    monkeypatch.setattr(batteries, "_initial_projector_series", nan_series)
    result = batteries.run_figure3(cli.DEFAULTS["figure3"])
    assert [f["check"] for f in result.failures] == [
        "initial_distinguishability", "revival", "average_at_revival"]


def test_gaussian_asymptote_check_fails_on_nan(monkeypatch):
    monkeypatch.setattr(batteries.bounds_mod, "gaussian_purity_exact",
                        lambda sigma, window: np.nan)
    config = {**cli.DEFAULTS["gaussian"], "sigma_t_grid": [2.0, 10.0]}
    result = batteries.run_gaussian(config)
    assert [f["check"] for f in result.failures] == ["purity_asymptote"]
