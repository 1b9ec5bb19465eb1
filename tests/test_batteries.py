import numpy as np

from qequil import batteries, cli
from qequil.averaging import TimeSeries
from qequil.batteries import (gap_counting_battery, haar_battery, slow_battery,
                              fast_equilibration_battery)

SEED = 20240811


def test_trial_generator_covers_flavors():
    report = fast_equilibration_battery(SEED, trials=24, t_points=2)
    rows = [r for r in report.rows if r["battery"] == "fast_equilibration"]
    labels = {r["label"].split("-")[0] for r in rows}
    assert "random" in labels   # ladder spectra
    assert "trial" in labels    # dense-matrix spectra or rebuilt states
    degenerate = {r["d"] != r["levels"] for r in rows}
    assert True in degenerate   # degenerate levels occur
    assert report.ok


def test_fast_equilibration_battery_deterministic():
    a = fast_equilibration_battery(3, trials=3, t_points=3)
    b = fast_equilibration_battery(3, trials=3, t_points=3)
    assert a.rows == b.rows


def test_haar_battery_rows_and_determinism():
    a = haar_battery(5, scenarios=4, samples=120)
    b = haar_battery(5, scenarios=4, samples=120)
    assert a.rows == b.rows
    assert len(a.rows) == 4 * 4  # four checks per scenario
    assert a.ok


def test_appendix_battery_reports_vacuous_flag():
    report = gap_counting_battery(SEED, dim=24)
    assert all("informative" in row for row in report.rows)
    assert report.ok


def test_slow_battery_full_sweep():
    # floor and ceiling hold simultaneously across dimensions, snapshot
    # counts, and window parameters
    report = slow_battery(SEED, scenarios=20)
    assert len(report.rows) == 20
    dims = {r["d"] for r in report.rows}
    assert dims == {256, 512, 1024, 2048}
    assert {r["eps"] for r in report.rows} <= {0.25, 0.5}
    assert report.ok, report.violations[:2]


def test_figure3_checks_fail_on_nan(monkeypatch):
    # a NaN series passes every `x > limit` test; each check must name it
    def nan_series(state, times):
        nan = np.full(times.size, np.nan)
        return TimeSeries(times, nan, running=nan)

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
